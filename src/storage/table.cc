#include "storage/table.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "common/check.h"
#include "obs/metrics.h"
#include "storage/column_table.h"
#include "storage/page.h"

namespace wuw {

/// Lazily-filled columnar snapshot, shared between copies of a Table (a
/// copy sees the same rows until one side mutates, at which point that side
/// detaches to a fresh cache).
struct Table::SnapshotCache {
  std::mutex mu;
  std::shared_ptr<ColumnTable> table;
  bool built = false;  // distinguishes "not built" from "built, failed"
  /// Set by in-place edits: the prefix sums need Finish() before hand-out.
  bool unfinished = false;
};

namespace {

/// The capacity n incremental inserts grow an index to: the smallest power
/// of two from 16 up that holds n slots at no more than 70% load.
size_t IndexCapacityFor(size_t n) {
  if (n == 0) return 0;
  size_t capacity = 16;
  while (n * 10 > capacity * 7) capacity <<= 1;
  return capacity;
}

}  // namespace

/// What an image-primary table builds for row consumers, from its image as
/// it stands: the dense rows on the first dense_rows()/SharedRows(), a
/// tuple index over them on the first Count after that.  std::call_once
/// gives concurrent first callers one build of each; copies of the table
/// share this object, so they share the builds too.  An image edit
/// replaces the object once it holds rows.
struct Table::LazyPayload {
  std::once_flag rows_once;
  std::once_flag index_once;
  std::atomic<bool> rows_built{false};
  std::atomic<bool> index_built{false};
  std::shared_ptr<RowVec> rows;
  std::shared_ptr<std::vector<IndexSlot>> slots;

  const std::shared_ptr<RowVec>& Rows(const ColumnTable& image) {
    std::call_once(rows_once, [&] { BuildRows(image); });
    return rows;
  }

  const std::shared_ptr<std::vector<IndexSlot>>& Slots(
      const ColumnTable& image) {
    std::call_once(index_once, [&] { BuildIndex(image); });
    return slots;
  }

  void BuildRows(const ColumnTable& image) {
    auto out = std::make_shared<RowVec>();
    const size_t n = image.num_rows();
    out->reserve(n);
    const std::vector<int64_t>& mult = image.mult();
    for (size_t i = 0; i < n; ++i) out->emplace_back(image.TupleAt(i), mult[i]);
    rows = std::move(out);
    paged::internal::g_row_builds.fetch_add(1, std::memory_order_relaxed);
    rows_built.store(true, std::memory_order_release);
  }

  /// The index n incremental inserts would have grown: same capacity, no
  /// tombstones.
  void BuildIndex(const ColumnTable& image) {
    const RowVec& rs = *Rows(image);
    std::vector<IndexSlot> out(IndexCapacityFor(rs.size()),
                               IndexSlot{0, kIndexEmpty});
    const size_t mask = out.size() - 1;
    for (size_t pos = 0; pos < rs.size(); ++pos) {
      const Tuple& tuple = rs[pos].first;
      const size_t hash = tuple.Hash();
      size_t i = hash & mask;
      // RestorePayload rejected repeated rows and image edits never add
      // one; this only guards that.
      for (; out[i].pos != kIndexEmpty; i = (i + 1) & mask) {
        WUW_CHECK(out[i].hash != hash || rs[out[i].pos].first != tuple,
                  "restored table image holds a duplicate row");
      }
      out[i] = IndexSlot{hash, static_cast<uint32_t>(pos)};
    }
    slots = std::make_shared<std::vector<IndexSlot>>(std::move(out));
    paged::internal::g_index_builds.fetch_add(1, std::memory_order_relaxed);
    index_built.store(true, std::memory_order_release);
  }
};

Table::Table() : snapshot_(std::make_shared<SnapshotCache>()) {}

Table::Table(Schema schema)
    : schema_(std::move(schema)), snapshot_(std::make_shared<SnapshotCache>()) {}

Table::~Table() = default;

Table::Table(const Table& other)
    : schema_(other.schema_),
      rows_(other.rows_),
      slots_(other.slots_),
      slots_used_(other.slots_used_),
      lazy_(other.lazy_),
      cardinality_(other.cardinality_),
      mutation_count_(other.mutation_count_) {
  // The source may be a published extent whose concurrent readers are
  // filling its columnar cache (ColumnarSnapshot writes snapshot_ /
  // snapshot_stale_ under snapshot_mu_) — a copy-on-write detach copies
  // exactly such a table.  The row and index blocks are immutable then and
  // shared here; only the cache handle needs the lock.
  std::lock_guard<std::mutex> lock(other.snapshot_mu_);
  snapshot_ = other.snapshot_;
  snapshot_stale_ = other.snapshot_stale_;
}

Table::Table(Table&& other) noexcept
    : schema_(std::move(other.schema_)),
      rows_(std::move(other.rows_)),
      slots_(std::move(other.slots_)),
      slots_used_(other.slots_used_),
      lazy_(std::move(other.lazy_)),
      cardinality_(other.cardinality_),
      mutation_count_(other.mutation_count_),
      snapshot_(std::move(other.snapshot_)),
      snapshot_stale_(other.snapshot_stale_) {
  other.slots_used_ = 0;
  other.cardinality_ = 0;
  other.mutation_count_ = 0;
  other.snapshot_ = std::make_shared<SnapshotCache>();
  other.snapshot_stale_ = false;
}

const ColumnTable& Table::Image() const { return *snapshot_->table; }

const std::shared_ptr<RowVec>& Table::RowBlock() const {
  return lazy_ != nullptr ? lazy_->Rows(Image()) : rows_;
}

const std::shared_ptr<std::vector<Table::IndexSlot>>& Table::SlotBlock()
    const {
  return lazy_ != nullptr ? lazy_->Slots(Image()) : slots_;
}

void Table::AdoptLazyPayload() {
  rows_ = lazy_->Rows(Image());
  slots_ = lazy_->Slots(Image());
  slots_used_ = rows_->size();
  lazy_.reset();
}

const RowVec& Table::dense_rows() const {
  static const RowVec kNoRows;
  const std::shared_ptr<RowVec>& rows = RowBlock();
  return rows != nullptr ? *rows : kNoRows;
}

std::shared_ptr<const RowVec> Table::SharedRows() const { return RowBlock(); }

bool Table::rows_materialized() const {
  return lazy_ == nullptr ||
         lazy_->rows_built.load(std::memory_order_acquire);
}

size_t Table::distinct_size() const {
  if (lazy_ != nullptr) return Image().num_rows();
  return rows_ != nullptr ? rows_->size() : 0;
}

RowVec& Table::MutableRows() {
  if (rows_ == nullptr) {
    rows_ = std::make_shared<RowVec>();
  } else if (rows_.use_count() != 1) {
    rows_ = std::make_shared<RowVec>(*rows_);
  }
  return *rows_;
}

std::vector<Table::IndexSlot>& Table::MutableSlots() {
  if (slots_ == nullptr) {
    slots_ = std::make_shared<std::vector<IndexSlot>>();
  } else if (slots_.use_count() != 1) {
    slots_ = std::make_shared<std::vector<IndexSlot>>(*slots_);
  }
  return *slots_;
}

Table& Table::operator=(const Table& other) {
  if (this == &other) return *this;
  schema_ = other.schema_;
  rows_ = other.rows_;
  slots_ = other.slots_;
  slots_used_ = other.slots_used_;
  lazy_ = other.lazy_;
  cardinality_ = other.cardinality_;
  mutation_count_ = other.mutation_count_;
  // Same discipline as the copy constructor: the source's columnar cache
  // may be racing with concurrent readers.
  std::lock_guard<std::mutex> lock(other.snapshot_mu_);
  snapshot_ = other.snapshot_;
  snapshot_stale_ = other.snapshot_stale_;
  return *this;
}

Table& Table::operator=(Table&& other) noexcept {
  if (this == &other) return *this;
  schema_ = std::move(other.schema_);
  rows_ = std::move(other.rows_);
  slots_ = std::move(other.slots_);
  slots_used_ = other.slots_used_;
  lazy_ = std::move(other.lazy_);
  cardinality_ = other.cardinality_;
  mutation_count_ = other.mutation_count_;
  snapshot_ = std::move(other.snapshot_);
  snapshot_stale_ = other.snapshot_stale_;
  other.slots_used_ = 0;
  other.cardinality_ = 0;
  other.mutation_count_ = 0;
  other.snapshot_ = std::make_shared<SnapshotCache>();
  other.snapshot_stale_ = false;
  return *this;
}

size_t Table::FindPosition(const Tuple& tuple, size_t hash) const {
  const std::shared_ptr<std::vector<IndexSlot>>& block = SlotBlock();
  if (block == nullptr || block->empty()) return SIZE_MAX;
  const std::vector<IndexSlot>& slots = *block;
  const RowVec& rows = *RowBlock();
  const size_t mask = slots.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const IndexSlot& slot = slots[i];
    if (slot.pos == kIndexEmpty) return SIZE_MAX;
    if (slot.pos != kIndexTombstone && slot.hash == hash &&
        rows[slot.pos].first == tuple) {
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

size_t Table::FindImagePosition(const Tuple& tuple, size_t hash) const {
  if (slots_ == nullptr || slots_->empty()) return SIZE_MAX;
  const ColumnTable& image = Image();
  if (tuple.size() != image.num_columns()) return SIZE_MAX;
  const std::vector<IndexSlot>& slots = *slots_;
  const size_t mask = slots.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const IndexSlot& slot = slots[i];
    if (slot.pos == kIndexEmpty) return SIZE_MAX;
    if (slot.pos != kIndexTombstone && slot.hash == hash &&
        image.RowEquals(slot.pos, tuple)) {
      return slot.pos;
    }
  }
}

ColumnTable* Table::MutableImage() {
  if (lazy_.use_count() != 1 ||
      lazy_->rows_built.load(std::memory_order_acquire)) {
    lazy_ = std::make_shared<LazyPayload>();
  }
  if (snapshot_.use_count() != 1 || snapshot_->table.use_count() != 1) {
    auto cache = std::make_shared<SnapshotCache>();
    {
      // A reader of a copy may be finishing the shared image.
      std::lock_guard<std::mutex> lock(snapshot_->mu);
      cache->table = std::make_shared<ColumnTable>(*snapshot_->table);
    }
    cache->built = true;
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(cache);
  }
  snapshot_->unfinished = true;
  return snapshot_->table.get();
}

bool Table::AddToImage(const Tuple& tuple, int64_t count, int64_t* result) {
  const size_t hash = ColumnTable::TupleRowHash(tuple);
  const size_t pos = FindImagePosition(tuple, hash);
  if (pos == SIZE_MAX) {
    if (count > 0 && !Image().Accepts(tuple)) return false;
    ++mutation_count_;
    *result = 0;
    if (count <= 0) return true;  // clamp: deleting an absent tuple
    ColumnTable* image = MutableImage();
    IndexInsert(hash, static_cast<uint32_t>(image->num_rows()));
    image->AppendRow(tuple, count);
    if (image->DictsOverBound()) image->CompactDicts();
    cardinality_ += count;
    *result = count;
    return true;
  }

  ++mutation_count_;
  ColumnTable* image = MutableImage();
  const int64_t old = image->mult()[pos];
  const int64_t next = old + count;
  if (next > 0) {
    cardinality_ += next - old;
    image->SetMult(pos, next);
    *result = next;
    return true;
  }
  cardinality_ -= old;
  const size_t last = image->num_rows() - 1;
  IndexErase(hash, static_cast<uint32_t>(pos));
  if (pos != last) {
    IndexRepoint(image->RowHash(last), static_cast<uint32_t>(last),
                 static_cast<uint32_t>(pos));
  }
  image->RemoveRow(pos);
  if (image->DictsOverBound()) image->CompactDicts();
  *result = 0;
  return true;
}

ColumnTable* Table::EditableImage() {
  if (!snapshot_stale_ && snapshot_.use_count() == 1 &&
      snapshot_->table != nullptr && snapshot_->table.use_count() == 1) {
    snapshot_->unfinished = true;
    return snapshot_->table.get();
  }
  snapshot_stale_ = true;
  return nullptr;
}

int64_t Table::Add(const Tuple& tuple, int64_t count) {
  if (count == 0) return Count(tuple);
  if (lazy_ != nullptr) {
    int64_t result;
    if (AddToImage(tuple, count, &result)) return result;
    AdoptLazyPayload();
  }
  size_t hash = tuple.Hash();
  size_t pos = FindPosition(tuple, hash);
  ++mutation_count_;

  if (pos == SIZE_MAX) {
    if (count <= 0) return 0;  // clamp: deleting an absent tuple is a no-op
    RowVec& rows = MutableRows();
    WUW_CHECK(rows.size() < kIndexTombstone, "table too large for row index");
    IndexInsert(hash, static_cast<uint32_t>(rows.size()));
    rows.emplace_back(tuple, count);
    cardinality_ += count;
    // An image that cannot hold the row (a type-violating cell) or whose
    // dictionaries are mostly dead entries is dropped: the next snapshot
    // rebuilds it from the rows, and keeps failing while such a row stays.
    ColumnTable* image = EditableImage();
    if (image != nullptr &&
        (!image->AppendRow(tuple, count) || image->DictsOverBound())) {
      snapshot_stale_ = true;
    }
    return count;
  }

  RowVec& rows = MutableRows();
  int64_t next = rows[pos].second + count;
  if (next > 0) {
    cardinality_ += next - rows[pos].second;
    rows[pos].second = next;
    if (ColumnTable* image = EditableImage()) image->SetMult(pos, next);
    return next;
  }

  // Remove the row: swap-with-last keeps rows_ dense.
  cardinality_ -= rows[pos].second;
  size_t last = rows.size() - 1;
  // Drop the erased tuple's slot first: if the moved row shares (hash,
  // last) aliasing never arises because positions are unique.
  IndexErase(hash, static_cast<uint32_t>(pos));
  if (pos != last) {
    size_t moved_hash = rows[last].first.Hash();
    rows[pos] = std::move(rows[last]);
    IndexRepoint(moved_hash, static_cast<uint32_t>(last),
                 static_cast<uint32_t>(pos));
  }
  rows.pop_back();
  if (ColumnTable* image = EditableImage()) {
    image->RemoveRow(pos);
    if (image->DictsOverBound()) snapshot_stale_ = true;
  }
  return 0;
}

int64_t Table::Count(const Tuple& tuple) const {
  if (!rows_materialized()) {
    const size_t pos =
        FindImagePosition(tuple, ColumnTable::TupleRowHash(tuple));
    return pos == SIZE_MAX ? 0 : Image().mult()[pos];
  }
  size_t pos = FindPosition(tuple, tuple.Hash());
  return pos == SIZE_MAX ? 0 : (*RowBlock())[pos].second;
}

bool Table::VisitRows(
    const std::function<bool(const Tuple&, int64_t)>& fn) const {
  if (!rows_materialized()) {
    const ColumnTable& image = Image();
    const std::vector<int64_t>& mult = image.mult();
    for (size_t i = 0; i < image.num_rows(); ++i) {
      if (!fn(image.TupleAt(i), mult[i])) return false;
    }
    return true;
  }
  for (const auto& [tuple, count] : dense_rows()) {
    if (!fn(tuple, count)) return false;
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
  std::vector<std::pair<Tuple, int64_t>> out;
  out.reserve(distinct_size());
  ForEach([&](const Tuple& tuple, int64_t count) {
    out.emplace_back(tuple, count);
  });
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void Table::Clear() {
  lazy_.reset();
  // A shared block is dropped rather than cleared; the fresh index keeps
  // the capacity the detached copy would have had (IndexBytes).
  if (rows_ != nullptr && rows_.use_count() != 1) {
    rows_.reset();
  } else if (rows_ != nullptr) {
    rows_->clear();
  }
  if (slots_ != nullptr && slots_.use_count() != 1) {
    auto fresh = std::make_shared<std::vector<IndexSlot>>();
    fresh->reserve(slots_->size());
    slots_ = std::move(fresh);
  } else if (slots_ != nullptr) {
    slots_->clear();
  }
  slots_used_ = 0;
  cardinality_ = 0;
  snapshot_stale_ = true;
  ++mutation_count_;
}

void Table::ReleasePayload() {
  lazy_.reset();
  rows_.reset();
  slots_.reset();
  slots_used_ = 0;
  // Detach the columnar cache so a copy sharing it keeps its (still
  // valid) snapshot while this object drops the reference.
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::make_shared<SnapshotCache>();
  snapshot_stale_ = false;
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
  // One hash pass fills the row index and finds repeated rows.
  const std::vector<uint64_t> hashes = image->RowHashes();
  auto slots = std::make_shared<std::vector<IndexSlot>>(
      IndexCapacityFor(n), IndexSlot{0, kIndexEmpty});
  const size_t mask = slots->size() - 1;
  for (size_t pos = 0; pos < n; ++pos) {
    size_t i = hashes[pos] & mask;
    for (; (*slots)[i].pos != kIndexEmpty; i = (i + 1) & mask) {
      const IndexSlot& slot = (*slots)[i];
      if (slot.hash == hashes[pos] && image->RowsEqual(slot.pos, pos)) {
        return "repeated row";
      }
    }
    (*slots)[i] = IndexSlot{hashes[pos], static_cast<uint32_t>(pos)};
  }
  image->Finish();
  rows_.reset();
  slots_ = std::move(slots);
  slots_used_ = n;
  lazy_ = std::make_shared<LazyPayload>();
  cardinality_ = total;
  mutation_count_ = mutation_count;
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::make_shared<SnapshotCache>();
  snapshot_->table = std::move(image);
  snapshot_->built = true;
  snapshot_stale_ = false;
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
  // snapshot_mu_ makes this safe for concurrent const readers of an
  // immutable table (snapshot-pinned extents): the stale-detach below
  // rewrites snapshot_, and two first-readers would otherwise race on it.
  std::lock_guard<std::mutex> outer(snapshot_mu_);
  // Reader-session threads (obs::ServeScope) may share this table with the
  // maintenance path, so they must not populate the cache: the build fires
  // deterministic kEngine counters, and a reader warming the cache would
  // steal the conversion the maintenance run counts in a readers-off run.
  // Returning nullptr is always legal — the scan's Rows then converts a
  // private copy on first Columnar() call.
  if (snapshot_stale_) {
    if (obs::InServeScope()) return nullptr;
    snapshot_ = std::make_shared<SnapshotCache>();
    const_cast<Table*>(this)->snapshot_stale_ = false;
  }
  std::lock_guard<std::mutex> lock(snapshot_->mu);
  if (!snapshot_->built) {
    if (obs::InServeScope()) return nullptr;
    // Headroom for the appends Add makes: a batch inserts a few percent of
    // a table, and growing a full array would reallocate every column at
    // the first insert, each freed old array raising peak memory.
    snapshot_->table = ColumnTable::FromRows(
        schema_, dense_rows(), dense_rows().size() / 8 + 16);
    snapshot_->built = true;
  } else if (snapshot_->unfinished) {
    // In-place edits (Add) left the prefix sums stale; nobody else holds
    // the image yet, so finishing it here is invisible.  Fires no counter,
    // so a reader may do it too.
    snapshot_->table->Finish();
    snapshot_->unfinished = false;
  }
  return snapshot_->table;
}

size_t Table::IndexBytes() const {
  if (lazy_ != nullptr && !lazy_->index_built.load(std::memory_order_acquire)) {
    return 0;
  }
  const std::shared_ptr<std::vector<IndexSlot>>& slots =
      lazy_ != nullptr ? lazy_->slots : slots_;
  return slots != nullptr ? slots->capacity() * sizeof(IndexSlot) : 0;
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
