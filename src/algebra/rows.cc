#include "algebra/rows.h"

#include <utility>
#include <vector>

#include "common/check.h"

namespace wuw {

namespace {

/// The image of a batch with no columns: shared by every default-built
/// and moved-from batch, so neither allocates.
const std::shared_ptr<const ColumnTable>& NoColumns() {
  static const std::shared_ptr<const ColumnTable> kNoColumns =
      std::make_shared<const ColumnTable>();
  return kNoColumns;
}

}  // namespace

Rows::Rows() : image_(NoColumns()) {}

Rows::Rows(Schema s)
    : schema(std::move(s)), image_(std::make_shared<ColumnTable>(schema)) {}

Rows::~Rows() = default;

Rows::Rows(Rows&& other) noexcept
    : schema(std::move(other.schema)),
      image_(std::exchange(other.image_, NoColumns())) {}

Rows& Rows::operator=(Rows&& other) noexcept {
  if (this == &other) return *this;
  schema = std::move(other.schema);
  image_ = std::exchange(other.image_, NoColumns());
  return *this;
}

ColumnTable* Rows::MutableImage() {
  if (image_.use_count() != 1) image_ = image_->CopyForEdit();
  return const_cast<ColumnTable*>(image_.get());
}

void Rows::Add(const Tuple& t, int64_t count) {
  if (count == 0) return;
  WUW_CHECK(image_->Accepts(t),
            "Rows::Add: the tuple does not fit the batch's schema (arity, or "
            "a cell of another type than its column's)");
  MutableImage()->AppendRow(t, count);
}

void Rows::Append(const Rows& other) {
  const std::vector<int64_t>& mult = other.image_->mult();
  std::vector<uint32_t> ids;
  ids.reserve(mult.size());
  for (size_t i = 0; i < mult.size(); ++i) {
    if (mult[i] != 0) ids.push_back(static_cast<uint32_t>(i));
  }
  if (ids.empty()) return;
  if (empty() && ids.size() == mult.size() && schema == other.schema) {
    image_ = other.image_;
    return;
  }
  MutableImage()->AppendRows(*other.image_, ids);
}

Rows Rows::FromTable(const Table& table) {
  return FromColumnar(table.ColumnarSnapshot());
}

Rows Rows::FromColumnar(std::shared_ptr<const ColumnTable> table) {
  Schema schema = table->schema();
  return Rows(std::move(schema), std::move(table));
}

}  // namespace wuw
