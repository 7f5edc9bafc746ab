#include "storage/table.h"

#include <algorithm>
#include <mutex>

#include "common/check.h"
#include "obs/metrics.h"
#include "storage/column_table.h"

namespace wuw {

/// Lazily-filled columnar snapshot, shared between copies of a Table (a
/// copy sees the same rows until one side mutates, at which point that side
/// detaches to a fresh cache).
struct Table::SnapshotCache {
  std::mutex mu;
  std::shared_ptr<const ColumnTable> table;
  bool built = false;  // distinguishes "not built" from "built, failed"
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

const RowVec& Table::dense_rows() const {
  static const RowVec kNoRows;
  return rows_ != nullptr ? *rows_ : kNoRows;
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
  if (slots_ == nullptr || slots_->empty()) return SIZE_MAX;
  const std::vector<IndexSlot>& slots = *slots_;
  const RowVec& rows = *rows_;
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

int64_t Table::Add(const Tuple& tuple, int64_t count) {
  if (count == 0) return Count(tuple);
  size_t hash = tuple.Hash();
  size_t pos = FindPosition(tuple, hash);
  snapshot_stale_ = true;
  ++mutation_count_;

  if (pos == SIZE_MAX) {
    if (count <= 0) return 0;  // clamp: deleting an absent tuple is a no-op
    RowVec& rows = MutableRows();
    WUW_CHECK(rows.size() < kIndexTombstone, "table too large for row index");
    IndexInsert(hash, static_cast<uint32_t>(rows.size()));
    rows.emplace_back(tuple, count);
    cardinality_ += count;
    return count;
  }

  RowVec& rows = MutableRows();
  int64_t next = rows[pos].second + count;
  if (next > 0) {
    cardinality_ += next - rows[pos].second;
    rows[pos].second = next;
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
  return 0;
}

int64_t Table::Count(const Tuple& tuple) const {
  size_t pos = FindPosition(tuple, tuple.Hash());
  return pos == SIZE_MAX ? 0 : (*rows_)[pos].second;
}

void Table::ForEach(
    const std::function<void(const Tuple&, int64_t)>& fn) const {
  for (const auto& [tuple, count] : dense_rows()) fn(tuple, count);
}

std::vector<std::pair<Tuple, int64_t>> Table::SortedRows() const {
  std::vector<std::pair<Tuple, int64_t>> out = dense_rows();
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void Table::Clear() {
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
  rows_.reset();
  slots_.reset();
  slots_used_ = 0;
  // Detach the columnar cache so a copy sharing it keeps its (still
  // valid) snapshot while this object drops the reference.
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::make_shared<SnapshotCache>();
  snapshot_stale_ = false;
}

std::string Table::RestorePayload(std::vector<std::pair<Tuple, int64_t>> rows,
                                  int64_t cardinality,
                                  int64_t mutation_count) {
  if (rows.size() >= kIndexTombstone) return "too many rows for the index";
  // The capacity n incremental inserts would have grown the index to.
  std::vector<IndexSlot> slots;
  if (!rows.empty()) {
    size_t capacity = 16;
    while (rows.size() * 10 > capacity * 7) capacity <<= 1;
    slots.assign(capacity, IndexSlot{0, kIndexEmpty});
  }
  const size_t mask = slots.size() - 1;
  int64_t total = 0;
  for (size_t pos = 0; pos < rows.size(); ++pos) {
    const auto& [tuple, count] = rows[pos];
    if (count <= 0) return "non-positive multiplicity";
    if (__builtin_add_overflow(total, count, &total)) {
      return "multiplicity overflow";
    }
    const size_t hash = tuple.Hash();
    size_t i = hash & mask;
    for (; slots[i].pos != kIndexEmpty; i = (i + 1) & mask) {
      if (slots[i].hash == hash && rows[slots[i].pos].first == tuple) {
        return "duplicate tuple";
      }
    }
    slots[i] = IndexSlot{hash, static_cast<uint32_t>(pos)};
  }
  if (total != cardinality) return "cardinality mismatch";
  slots_used_ = rows.size();
  rows_ = std::make_shared<RowVec>(std::move(rows));
  slots_ = std::make_shared<std::vector<IndexSlot>>(std::move(slots));
  cardinality_ = total;
  mutation_count_ = mutation_count;
  snapshot_stale_ = true;
  return "";
}

bool Table::ContentsEqual(const Table& other) const {
  if (cardinality_ != other.cardinality_) return false;
  if (distinct_size() != other.distinct_size()) return false;
  for (const auto& [tuple, count] : dense_rows()) {
    if (other.Count(tuple) != count) return false;
  }
  return true;
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
  // Returning nullptr is always legal — callers fall back to the row path.
  if (snapshot_stale_) {
    if (obs::InServeScope()) return nullptr;
    snapshot_ = std::make_shared<SnapshotCache>();
    const_cast<Table*>(this)->snapshot_stale_ = false;
  }
  std::lock_guard<std::mutex> lock(snapshot_->mu);
  if (!snapshot_->built) {
    if (obs::InServeScope()) return nullptr;
    snapshot_->table = ColumnTable::FromRows(schema_, dense_rows());
    snapshot_->built = true;
  }
  return snapshot_->table;
}

size_t Table::IndexBytes() const {
  return slots_ != nullptr ? slots_->capacity() * sizeof(IndexSlot) : 0;
}

std::string Table::ToString(size_t max_rows) const {
  std::string out = schema_.ToString() + " {\n";
  size_t shown = 0;
  for (const auto& [tuple, count] : dense_rows()) {
    if (shown++ >= max_rows) {
      out += "  ...\n";
      break;
    }
    out += "  " + tuple.ToString();
    if (count != 1) out += " x" + std::to_string(count);
    out += "\n";
  }
  out += "} (" + std::to_string(cardinality_) + " rows)";
  return out;
}

}  // namespace wuw
