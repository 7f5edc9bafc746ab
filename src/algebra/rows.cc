#include "algebra/rows.h"

#include <mutex>

#include "common/check.h"
#include "obs/metrics.h"
#include "storage/column_table.h"

namespace wuw {

/// Lazily-filled columnar mirror, shared between copies of a Rows value.
/// The mutex serializes the one-time build; readers that arrive later take
/// it briefly and return the shared table.
struct Rows::ColumnarSlot {
  std::mutex mu;
  std::shared_ptr<const ColumnTable> table;
  /// Set when conversion failed (type-violating cell): don't retry.
  bool failed = false;
};

/// The row image a columnar-only batch builds on first demand.  Copies of
/// the batch share this object, so the build runs once for all of them;
/// std::call_once gives concurrent first callers the same discipline as
/// the columnar slot's mutex.
struct Rows::PendingRows {
  std::once_flag once;
  std::atomic<bool> built{false};
  /// The batch's content; row k of the image is row k of `table`.
  std::shared_ptr<const ColumnTable> table;
  std::shared_ptr<const RowVec> rows;

  const std::shared_ptr<const RowVec>& Get() {
    std::call_once(once, [this] { Build(); });
    return rows;
  }

  void Build() {
    auto out = std::make_shared<RowVec>();
    const std::vector<int64_t>& mult = table->mult();
    out->reserve(mult.size());
    for (size_t i = 0; i < mult.size(); ++i) {
      out->emplace_back(table->TupleAt(i), mult[i]);
    }
    rows = std::move(out);
    built.store(true, std::memory_order_release);
  }
};

Rows::Rows() : columnar_(std::make_shared<ColumnarSlot>()) {}

Rows::Rows(Schema s)
    : schema(std::move(s)), columnar_(std::make_shared<ColumnarSlot>()) {}

Rows::~Rows() = default;

// A copy shares the source's current slot: a stale flag is resolved into
// one fresh slot first, so the copies convert once between them.
Rows::Rows(const Rows& other)
    : schema(other.schema),
      rows_(other.rows_),
      pending_(other.pending_),
      columnar_(other.FreshSlot()),
      signed_card_(other.signed_card_.load(std::memory_order_relaxed)),
      abs_card_(other.abs_card_.load(std::memory_order_relaxed)) {}

Rows::Rows(Rows&& other) noexcept
    : schema(std::move(other.schema)),
      rows_(std::move(other.rows_)),
      pending_(std::move(other.pending_)),
      columnar_(std::move(other.columnar_)),
      columnar_stale_(other.columnar_stale_),
      signed_card_(other.signed_card_.load(std::memory_order_relaxed)),
      abs_card_(other.abs_card_.load(std::memory_order_relaxed)) {
  other.columnar_ = std::make_shared<ColumnarSlot>();
  other.columnar_stale_ = false;
  other.signed_card_.store(kCardUnset, std::memory_order_relaxed);
  other.abs_card_.store(kCardUnset, std::memory_order_relaxed);
}

Rows& Rows::operator=(const Rows& other) {
  if (this == &other) return *this;
  schema = other.schema;
  rows_ = other.rows_;
  pending_ = other.pending_;
  columnar_ = other.FreshSlot();
  columnar_stale_ = false;
  signed_card_.store(other.signed_card_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  abs_card_.store(other.abs_card_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  return *this;
}

Rows& Rows::operator=(Rows&& other) noexcept {
  if (this == &other) return *this;
  schema = std::move(other.schema);
  rows_ = std::move(other.rows_);
  pending_ = std::move(other.pending_);
  columnar_ = std::move(other.columnar_);
  columnar_stale_ = other.columnar_stale_;
  signed_card_.store(other.signed_card_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  abs_card_.store(other.abs_card_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  other.columnar_ = std::make_shared<ColumnarSlot>();
  other.columnar_stale_ = false;
  other.signed_card_.store(kCardUnset, std::memory_order_relaxed);
  other.abs_card_.store(kCardUnset, std::memory_order_relaxed);
  return *this;
}

const RowVec& Rows::BuiltRows() const { return *pending_->Get(); }

const RowVec& Rows::NoRows() {
  static const RowVec kNoRows;
  return kNoRows;
}

void Rows::DetachRows() {
  if (pending_ != nullptr) {
    rows_ = pending_->Get();
    pending_.reset();
  }
  if (rows_ == nullptr) {
    rows_ = std::make_shared<RowVec>();
  } else if (rows_.use_count() != 1) {
    rows_ = std::make_shared<RowVec>(*rows_);
  }
}

bool Rows::rows_materialized() const {
  return pending_ == nullptr ||
         pending_->built.load(std::memory_order_acquire);
}

size_t Rows::size() const {
  if (pending_ != nullptr) return pending_->table->num_rows();
  return rows_ != nullptr ? rows_->size() : 0;
}

template <typename F>
int64_t Rows::SumMults(F f) const {
  int64_t n = 0;
  if (!rows_materialized()) {
    for (int64_t c : pending_->table->mult()) n += f(c);
  } else {
    for (const auto& [t, c] : rows()) n += f(c);
  }
  return n;
}

namespace {

int64_t Identity(int64_t c) { return c; }
int64_t Magnitude(int64_t c) { return std::llabs(c); }

}  // namespace

int64_t Rows::SignedCardinality() const {
  int64_t cached = signed_card_.load(std::memory_order_relaxed);
  if (cached == kCardUnset) {
    cached = SumMults(Identity);
    signed_card_.store(cached, std::memory_order_relaxed);
  }
#ifndef NDEBUG
  WUW_CHECK(cached == SumMults(Identity),
            "Rows signed cardinality cache is stale "
            "(rows mutated behind Add/SetCachedCardinalities?)");
#endif
  return cached;
}

int64_t Rows::AbsCardinality() const {
  int64_t cached = abs_card_.load(std::memory_order_relaxed);
  if (cached == kCardUnset) {
    cached = SumMults(Magnitude);
    abs_card_.store(cached, std::memory_order_relaxed);
  }
#ifndef NDEBUG
  WUW_CHECK(cached == SumMults(Magnitude),
            "Rows abs cardinality cache is stale "
            "(rows mutated behind Add/SetCachedCardinalities?)");
#endif
  return cached;
}

void Rows::SetCachedCardinalities(int64_t signed_card, int64_t abs_card) const {
  signed_card_.store(signed_card, std::memory_order_relaxed);
  abs_card_.store(abs_card, std::memory_order_relaxed);
#ifndef NDEBUG
  WUW_CHECK(signed_card == SumMults(Identity),
            "SetCachedCardinalities: wrong signed cardinality");
  WUW_CHECK(abs_card == SumMults(Magnitude),
            "SetCachedCardinalities: wrong abs cardinality");
#endif
}

Rows Rows::FromTable(const Table& table) {
  return FromColumnar(table.ColumnarSnapshot());
}

Rows Rows::FromColumnar(std::shared_ptr<const ColumnTable> table) {
  Rows out(table->schema());
  out.pending_ = std::make_shared<PendingRows>();
  out.pending_->table = table;
  out.SetCachedCardinalities(table->signed_total(), table->abs_total());
  out.AttachColumnar(std::move(table));
  return out;
}

std::shared_ptr<Rows::ColumnarSlot> Rows::FreshSlot() const {
  // Resolve staleness into a fresh slot so copies sharing the old one keep
  // their (still valid for them) cached table; the swap is guarded so
  // concurrent callers on a shared batch agree on one slot.
  std::lock_guard<std::mutex> swap_lock(columnar_mu_);
  if (columnar_stale_) {
    columnar_ = std::make_shared<ColumnarSlot>();
    columnar_stale_ = false;
  }
  return columnar_;
}

std::shared_ptr<const ColumnTable> Rows::Columnar() const {
  std::shared_ptr<ColumnarSlot> slot = FreshSlot();
  std::lock_guard<std::mutex> lock(slot->mu);
  if (slot->table != nullptr && slot->table->num_rows() == size()) {
    return slot->table;
  }
  if (slot->failed && slot->table == nullptr) return nullptr;
  slot->table = ColumnTable::FromRows(schema, rows());
  slot->failed = slot->table == nullptr;
  return slot->table;
}

void Rows::AttachColumnar(std::shared_ptr<const ColumnTable> table) const {
  if (table != nullptr) {
    WUW_CHECK(table->num_rows() == size(),
              "attached columnar mirror disagrees with row count");
  }
  std::shared_ptr<ColumnarSlot> slot = FreshSlot();
  std::lock_guard<std::mutex> lock(slot->mu);
  slot->table = std::move(table);
  slot->failed = false;
}

}  // namespace wuw
