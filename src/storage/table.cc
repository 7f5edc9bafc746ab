#include "storage/table.h"

#include <algorithm>
#include <mutex>

#include "common/check.h"
#include "storage/column_table.h"

namespace wuw {

namespace {

/// The capacity n incremental inserts grow an index to: the smallest power
/// of two from 16 up that holds n slots at no more than 70% load.
size_t IndexCapacityFor(size_t n) {
  if (n == 0) return 0;
  size_t capacity = 16;
  while (n * 10 > capacity * 7) capacity <<= 1;
  return capacity;
}

/// A finished image with no rows.
std::shared_ptr<ColumnTable> EmptyImage(const Schema& schema) {
  auto image = std::make_shared<ColumnTable>(schema);
  image->Finish();
  return image;
}

}  // namespace

KeyIndex::KeyIndex(std::vector<size_t> columns)
    : columns_(std::move(columns)) {}

size_t KeyIndex::Bytes() const {
  return (heads_.capacity() + next_.capacity() + prev_.capacity()) *
         sizeof(int32_t);
}

uint64_t KeyIndex::KeyHash(const ColumnTable& image, size_t pos) const {
  uint64_t h = kKeyHashSeed;
  for (size_t c : columns_) {
    h = CombineKeyHash(h, CellHashAt(image.column(c), pos));
  }
  return h;
}

void KeyIndex::Build(const ColumnTable& image) {
  const size_t n = image.num_rows();
  size_t nbuckets = 16;
  while (nbuckets < n) nbuckets <<= 1;
  const uint64_t mask = nbuckets - 1;
  heads_.assign(nbuckets, -1);
  next_.resize(n);
  prev_.resize(n);
  // Key hashes a column and a chunk at a time, so a fault-in's rebuild
  // holds no per-row hash array beside the row index's.
  constexpr size_t kChunk = 1024;
  uint64_t hashes[kChunk];
  for (size_t begin = 0; begin < n; begin += kChunk) {
    const size_t end = std::min(n, begin + kChunk);
    std::fill(hashes, hashes + (end - begin), kKeyHashSeed);
    for (size_t c : columns_) {
      FoldCellHashes(image.column(c), begin, end, hashes);
    }
    for (size_t pos = begin; pos < end; ++pos) {
      int32_t& head = heads_[hashes[pos - begin] & mask];
      next_[pos] = head;
      prev_[pos] = -1;
      if (head >= 0) prev_[head] = static_cast<int32_t>(pos);
      head = static_cast<int32_t>(pos);
    }
  }
}

void KeyIndex::Append(const ColumnTable& image) {
  const size_t pos = next_.size();
  if (pos + 1 > heads_.size()) {
    Build(image);  // doubles the buckets; amortized O(1) per append
    return;
  }
  int32_t& head = heads_[KeyHash(image, pos) & (heads_.size() - 1)];
  next_.push_back(head);
  prev_.push_back(-1);
  if (head >= 0) prev_[head] = static_cast<int32_t>(pos);
  head = static_cast<int32_t>(pos);
}

void KeyIndex::Remove(const ColumnTable& image, size_t pos) {
  const uint64_t mask = heads_.size() - 1;
  // Unlink pos.
  const int32_t p = prev_[pos], q = next_[pos];
  if (p < 0) {
    heads_[KeyHash(image, pos) & mask] = q;
  } else {
    next_[p] = q;
  }
  if (q >= 0) prev_[q] = p;
  // Relink the last row at pos, where the image is about to move it.
  const size_t last = next_.size() - 1;
  if (pos != last) {
    const int32_t lp = prev_[last], lq = next_[last];
    const int32_t to = static_cast<int32_t>(pos);
    prev_[pos] = lp;
    next_[pos] = lq;
    if (lp < 0) {
      heads_[KeyHash(image, last) & mask] = to;
    } else {
      next_[lp] = to;
    }
    if (lq >= 0) prev_[lq] = to;
  }
  next_.pop_back();
  prev_.pop_back();
}

Table::Table() : image_(EmptyImage(schema_)) {}

Table::Table(Schema schema)
    : schema_(std::move(schema)), image_(EmptyImage(schema_)) {}

Table::~Table() = default;

// The source may be a published extent that concurrent readers are
// reading (a copy-on-write detach copies exactly such a table);
// ColumnarSnapshot finishes the image under the source's lock, so the copy
// shares a finished image that neither side edits in place again.
Table::Table(const Table& other)
    : schema_(other.schema_),
      image_(std::const_pointer_cast<ColumnTable>(other.ColumnarSnapshot())),
      slots_(other.slots_),
      slots_used_(other.slots_used_),
      key_indexes_(other.key_indexes_),
      cardinality_(other.cardinality_),
      mutation_count_(other.mutation_count_) {}

Table::Table(Table&& other) noexcept
    : schema_(other.schema_),
      image_(std::move(other.image_)),
      slots_(std::move(other.slots_)),
      slots_used_(other.slots_used_),
      key_indexes_(std::move(other.key_indexes_)),
      cardinality_(other.cardinality_),
      mutation_count_(other.mutation_count_),
      unfinished_(other.unfinished_) {
  other.image_ = EmptyImage(other.schema_);
  other.key_indexes_.clear();
  other.slots_used_ = 0;
  other.cardinality_ = 0;
  other.mutation_count_ = 0;
  other.unfinished_ = false;
}

Table& Table::operator=(const Table& other) {
  if (this != &other) *this = Table(other);
  return *this;
}

Table& Table::operator=(Table&& other) noexcept {
  if (this == &other) return *this;
  schema_ = other.schema_;
  image_ = std::move(other.image_);
  slots_ = std::move(other.slots_);
  slots_used_ = other.slots_used_;
  key_indexes_ = std::move(other.key_indexes_);
  cardinality_ = other.cardinality_;
  mutation_count_ = other.mutation_count_;
  unfinished_ = other.unfinished_;
  other.image_ = EmptyImage(other.schema_);
  other.slots_.reset();
  other.key_indexes_.clear();
  other.slots_used_ = 0;
  other.cardinality_ = 0;
  other.mutation_count_ = 0;
  other.unfinished_ = false;
  return *this;
}

size_t Table::distinct_size() const { return image_->num_rows(); }

RowVec Table::dense_rows() const {
  RowVec out;
  out.reserve(distinct_size());
  ForEach([&](const Tuple& tuple, int64_t count) {
    out.emplace_back(tuple, count);
  });
  return out;
}

std::vector<Table::IndexSlot>& Table::MutableSlots() {
  if (slots_ == nullptr) {
    slots_ = std::make_shared<std::vector<IndexSlot>>();
  } else if (slots_.use_count() != 1) {
    slots_ = std::make_shared<std::vector<IndexSlot>>(*slots_);
  }
  return *slots_;
}

KeyIndex* Table::MutableKeyIndex(size_t k) {
  std::shared_ptr<KeyIndex>& index = key_indexes_[k];
  if (index.use_count() != 1) index = std::make_shared<KeyIndex>(*index);
  return index.get();
}

ColumnTable* Table::MutableImage() {
  std::lock_guard<std::mutex> lock(finish_mu_);
  // A shared image is finished (see the copy constructor).
  if (image_.use_count() != 1) image_ = image_->CopyForEdit();
  unfinished_ = true;
  return image_.get();
}

size_t Table::FindPosition(const Tuple& tuple, size_t hash) const {
  if (slots_ == nullptr || slots_->empty()) return SIZE_MAX;
  const std::vector<IndexSlot>& slots = *slots_;
  const size_t mask = slots.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const IndexSlot& slot = slots[i];
    if (slot.pos == kIndexEmpty) return SIZE_MAX;
    if (slot.pos != kIndexTombstone && slot.hash == hash &&
        image_->RowEquals(slot.pos, tuple)) {
      return slot.pos;
    }
  }
}

void Table::IndexRehash(size_t new_capacity) {
  std::vector<IndexSlot>& slots = MutableSlots();
  std::vector<IndexSlot> old = std::move(slots);
  slots.assign(new_capacity, IndexSlot{0, kIndexEmpty});
  slots_used_ = 0;
  const size_t mask = new_capacity - 1;
  for (const IndexSlot& slot : old) {
    if (slot.pos == kIndexEmpty || slot.pos == kIndexTombstone) continue;
    size_t i = slot.hash & mask;
    while (slots[i].pos != kIndexEmpty) i = (i + 1) & mask;
    slots[i] = slot;
    ++slots_used_;
  }
}

void Table::IndexInsert(size_t hash, uint32_t pos) {
  // Grow at 70% occupancy (live + tombstones) so probes stay short;
  // rehashing also purges tombstones.
  std::vector<IndexSlot>& slots = MutableSlots();
  if (slots.empty()) {
    slots.assign(16, IndexSlot{0, kIndexEmpty});
  } else if ((slots_used_ + 1) * 10 > slots.size() * 7) {
    IndexRehash(slots.size() * 2);
  }
  const size_t mask = slots.size() - 1;
  size_t i = hash & mask;
  while (slots[i].pos != kIndexEmpty && slots[i].pos != kIndexTombstone) {
    i = (i + 1) & mask;
  }
  if (slots[i].pos == kIndexEmpty) ++slots_used_;
  slots[i] = IndexSlot{hash, pos};
}

void Table::IndexErase(size_t hash, uint32_t pos) {
  std::vector<IndexSlot>& slots = MutableSlots();
  const size_t mask = slots.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    IndexSlot& slot = slots[i];
    WUW_CHECK(slot.pos != kIndexEmpty, "erasing an unindexed row");
    if (slot.pos == pos && slot.hash == hash) {
      slot.pos = kIndexTombstone;
      return;
    }
  }
}

void Table::IndexRepoint(size_t hash, uint32_t old_pos, uint32_t new_pos) {
  std::vector<IndexSlot>& slots = MutableSlots();
  const size_t mask = slots.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    IndexSlot& slot = slots[i];
    WUW_CHECK(slot.pos != kIndexEmpty, "repointing an unindexed row");
    if (slot.pos == old_pos && slot.hash == hash) {
      slot.pos = new_pos;
      return;
    }
  }
}

int64_t Table::Add(const Tuple& tuple, int64_t count) {
  if (count == 0) return Count(tuple);
  const size_t hash = ColumnTable::TupleRowHash(tuple);
  const size_t pos = FindPosition(tuple, hash);
  ++mutation_count_;

  if (pos == SIZE_MAX) {
    if (count < 0) return 0;  // clamp: deleting an absent tuple is a no-op
    WUW_CHECK(image_->Accepts(tuple),
              "Table::Add: the tuple does not fit the table's schema (arity, "
              "or a cell of another type than its column's)");
    ColumnTable* image = MutableImage();
    IndexInsert(hash, static_cast<uint32_t>(image->num_rows()));
    image->AppendRow(tuple, count);
    for (size_t k = 0; k < key_indexes_.size(); ++k) {
      MutableKeyIndex(k)->Append(*image);
    }
    image->CompactDicts();
    cardinality_ += count;
    return count;
  }

  ColumnTable* image = MutableImage();
  const int64_t old = image->mult()[pos];
  const int64_t next = old + count;
  if (next > 0) {
    cardinality_ += next - old;
    image->SetMult(pos, next);
    return next;
  }

  // Remove the row: swap-with-last keeps the image dense.  Drop the erased
  // row's slot first; positions are unique, so (hash, pos) never aliases
  // the moved row's slot.
  cardinality_ -= old;
  const size_t last = image->num_rows() - 1;
  IndexErase(hash, static_cast<uint32_t>(pos));
  if (pos != last) {
    IndexRepoint(image->RowHash(last), static_cast<uint32_t>(last),
                 static_cast<uint32_t>(pos));
  }
  for (size_t k = 0; k < key_indexes_.size(); ++k) {
    MutableKeyIndex(k)->Remove(*image, pos);
  }
  image->RemoveRow(pos);
  image->CompactDicts();
  return 0;
}

int64_t Table::Count(const Tuple& tuple) const {
  const size_t pos = FindPosition(tuple, ColumnTable::TupleRowHash(tuple));
  return pos == SIZE_MAX ? 0 : image_->mult()[pos];
}

bool Table::VisitRows(
    const std::function<bool(const Tuple&, int64_t)>& fn) const {
  const ColumnTable& image = *image_;
  const std::vector<int64_t>& mult = image.mult();
  for (size_t i = 0; i < image.num_rows(); ++i) {
    if (!fn(image.TupleAt(i), mult[i])) return false;
  }
  return true;
}

void Table::ForEach(
    const std::function<void(const Tuple&, int64_t)>& fn) const {
  VisitRows([&](const Tuple& tuple, int64_t count) {
    fn(tuple, count);
    return true;
  });
}

std::vector<std::pair<Tuple, int64_t>> Table::SortedRows() const {
  RowVec out = dense_rows();
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void Table::ClearKeyIndexes() {
  for (std::shared_ptr<KeyIndex>& index : key_indexes_) {
    index = std::make_shared<KeyIndex>(index->columns());
  }
}

void Table::Clear() {
  std::lock_guard<std::mutex> lock(finish_mu_);
  image_ = EmptyImage(schema_);
  slots_.reset();
  ClearKeyIndexes();
  slots_used_ = 0;
  cardinality_ = 0;
  unfinished_ = false;
  ++mutation_count_;
}

void Table::ReleasePayload() {
  std::lock_guard<std::mutex> lock(finish_mu_);
  image_ = EmptyImage(schema_);
  slots_.reset();
  ClearKeyIndexes();
  slots_used_ = 0;
  unfinished_ = false;
}

std::string Table::RestorePayload(std::shared_ptr<ColumnTable> image,
                                  int64_t cardinality,
                                  int64_t mutation_count) {
  if (image == nullptr) return "no image";
  if (!(image->schema() == schema_)) return "image schema differs";
  const size_t n = image->num_rows();
  if (n >= kIndexTombstone) return "too many rows for the index";
  for (size_t c = 0; c < image->num_columns(); ++c) {
    const ColumnVec& col = image->column(c);
    if (col.size() != n || (!col.nulls.empty() && col.nulls.size() != n)) {
      return "column length differs from the row count";
    }
  }
  int64_t total = 0;
  for (int64_t count : image->mult()) {
    if (count <= 0) return "non-positive multiplicity";
    if (__builtin_add_overflow(total, count, &total)) {
      return "multiplicity overflow";
    }
  }
  if (total != cardinality) return "cardinality mismatch";
  auto slots = std::make_shared<std::vector<IndexSlot>>(
      IndexCapacityFor(n), IndexSlot{0, kIndexEmpty});
  {
    // One hash pass fills the row index and finds repeated rows.
    const std::vector<uint64_t> hashes = image->RowHashes();
    const size_t mask = slots->size() - 1;
    // The slots are written in hash order, a cache miss each on a large
    // table; fetching a few rows ahead overlaps the misses.
    constexpr size_t kPrefetchRows = 16;
    for (size_t pos = 0; pos < n; ++pos) {
      if (pos + kPrefetchRows < n) {
        __builtin_prefetch(&(*slots)[hashes[pos + kPrefetchRows] & mask], 1);
      }
      size_t i = hashes[pos] & mask;
      for (; (*slots)[i].pos != kIndexEmpty; i = (i + 1) & mask) {
        const IndexSlot& slot = (*slots)[i];
        if (slot.hash == hashes[pos] && image->RowsEqual(slot.pos, pos)) {
          return "repeated row";
        }
      }
      (*slots)[i] = IndexSlot{hashes[pos], static_cast<uint32_t>(pos)};
    }
  }
  std::vector<std::shared_ptr<KeyIndex>> key_indexes;
  for (const std::shared_ptr<KeyIndex>& declared : key_indexes_) {
    key_indexes.push_back(std::make_shared<KeyIndex>(declared->columns()));
    key_indexes.back()->Build(*image);
  }
  image->Finish();
  std::lock_guard<std::mutex> lock(finish_mu_);
  image_ = std::move(image);
  slots_ = std::move(slots);
  key_indexes_ = std::move(key_indexes);
  slots_used_ = n;
  cardinality_ = total;
  mutation_count_ = mutation_count;
  unfinished_ = false;
  return "";
}

bool Table::ContentsEqual(const Table& other) const {
  if (cardinality_ != other.cardinality_) return false;
  if (distinct_size() != other.distinct_size()) return false;
  return VisitRows([&](const Tuple& tuple, int64_t count) {
    return other.Count(tuple) == count;
  });
}

std::shared_ptr<const ColumnTable> Table::ColumnarSnapshot() const {
  std::lock_guard<std::mutex> lock(finish_mu_);
  if (unfinished_) {
    // Edits left the totals stale; nobody else holds the image yet,
    // so finishing it here is invisible.
    image_->Finish();
    unfinished_ = false;
  }
  return image_;
}

size_t Table::IndexBytes() const {
  size_t bytes = slots_ != nullptr ? slots_->capacity() * sizeof(IndexSlot) : 0;
  for (const std::shared_ptr<KeyIndex>& index : key_indexes_) {
    bytes += index->Bytes();
  }
  return bytes;
}

void Table::DeclareKeyIndex(const std::vector<size_t>& columns) {
  if (FindKeyIndex(columns) != nullptr) return;
  for (size_t c : columns) {
    WUW_CHECK(c < schema_.num_columns(), "key index column out of range");
  }
  auto index = std::make_shared<KeyIndex>(columns);
  index->Build(*image_);
  key_indexes_.push_back(std::move(index));
}

std::shared_ptr<const KeyIndex> Table::FindKeyIndex(
    const std::vector<size_t>& columns) const {
  for (const std::shared_ptr<KeyIndex>& index : key_indexes_) {
    if (index->columns() == columns) return index;
  }
  return nullptr;
}

std::vector<std::shared_ptr<const KeyIndex>> Table::KeyIndexes() const {
  return {key_indexes_.begin(), key_indexes_.end()};
}

std::string Table::ToString(size_t max_rows) const {
  std::string out = schema_.ToString() + " {\n";
  size_t shown = 0;
  VisitRows([&](const Tuple& tuple, int64_t count) {
    if (shown++ >= max_rows) {
      out += "  ...\n";
      return false;
    }
    out += "  " + tuple.ToString();
    if (count != 1) out += " x" + std::to_string(count);
    out += "\n";
    return true;
  });
  out += "} (" + std::to_string(cardinality_) + " rows)";
  return out;
}

}  // namespace wuw
