// Counting (multiset) tables: the storage representation of every
// materialized view in the warehouse.
//
// A table maps each distinct tuple to a positive multiplicity.  This is the
// standard "counting" representation used by incremental view maintenance
// (Gupta-Mumick-Subrahmanian 1993, Griffin-Libkin 1995): installing a delta
// relation is then a pure multiplicity merge, and deletions never need to
// search for "which copy" of a duplicate to remove.
//
// Storage layout matters here: rows live in a dense vector (scans cost
// exactly the live rows, like a compacted heap file) with a hash index of
// tuple-hash -> position for O(1) point updates.  Deleting rows genuinely
// makes later scans cheaper — the physical effect the paper's view
// orderings exploit ("install shrinking views early").  Both live in shared
// copy-on-write blocks: a Table copy (the warehouse's copy-on-write
// detach) and a scan (Rows::FromTable, via SharedRows) share them in O(1),
// and a mutation copies a block only while someone else still holds it.
//
// The index is a flat open-addressing table (linear probing, tombstoned
// deletes): one inline {hash, position} slot per live row, no per-hash heap
// vectors.  Distinct tuples that collide on their full hash simply occupy
// neighboring slots.  Rehashing reuses the stored hashes, so growth never
// re-hashes tuples.
#ifndef WUW_STORAGE_TABLE_H_
#define WUW_STORAGE_TABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "storage/schema.h"
#include "storage/tuple.h"

namespace wuw {

class ColumnTable;

/// A multiset relation instance.
class Table {
 public:
  Table();
  explicit Table(Schema schema);
  Table(const Table& other);
  Table(Table&& other) noexcept;
  Table& operator=(const Table& other);
  Table& operator=(Table&& other) noexcept;
  ~Table();

  const Schema& schema() const { return schema_; }

  /// Number of tuples counting multiplicity.  This is the |V| of the
  /// paper's work metric.
  int64_t cardinality() const { return cardinality_; }

  /// Number of distinct tuples.
  size_t distinct_size() const { return dense_rows().size(); }

  bool empty() const { return cardinality_ == 0; }

  /// Adds `count` copies of `tuple` (count may be negative; the stored
  /// multiplicity is clamped at zero — a warning-free model of installing a
  /// deletion for a tuple that is absent, which correct strategies never
  /// produce but tests exercise).  Returns the resulting multiplicity.
  int64_t Add(const Tuple& tuple, int64_t count);

  /// Multiplicity of `tuple` (0 if absent).
  int64_t Count(const Tuple& tuple) const;

  /// Iterates over (tuple, multiplicity) pairs in unspecified order.
  void ForEach(
      const std::function<void(const Tuple&, int64_t)>& fn) const;

  /// The dense live-row storage, in the same order ForEach visits it.
  /// Valid until the next mutation of this table.
  const RowVec& dense_rows() const;

  /// The dense row block itself, shared in O(1): the holder sees the rows
  /// as of this call, because the table copies the block before its next
  /// write while the handle lives.  May be null for an empty table.
  std::shared_ptr<const RowVec> SharedRows() const { return rows_; }

  /// Stable snapshot of contents sorted by tuple — used by tests to compare
  /// database states across strategies.
  std::vector<std::pair<Tuple, int64_t>> SortedRows() const;

  void Clear();

  /// Multiset equality.
  bool ContentsEqual(const Table& other) const;

  /// Columnar mirror of dense_rows(), built lazily on first request
  /// (thread-safe) and cached until the next mutation; shared with copies.
  /// Null when any cell violates its declared column type — consumers then
  /// stay on the row-at-a-time path (see storage/column_table.h).
  std::shared_ptr<const ColumnTable> ColumnarSnapshot() const;

  /// Heap bytes held by the hash index (the micro_engine memory line).
  size_t IndexBytes() const;

  /// Monotone count of mutating calls (Add with a non-zero effect window,
  /// Clear).  Copies inherit the count, so a copy-on-write detach preserves
  /// continuity — the snapshot-audit in exec/warehouse.cc compares it
  /// against extent_version across publishes to catch unbumped mutations.
  int64_t mutation_count() const { return mutation_count_; }

  /// PAGED STORE ONLY (storage/paged_store.h): drops the in-memory payload
  /// of a hibernated extent — rows, index, and columnar cache — while
  /// preserving schema, cardinality() (so size estimation works without a
  /// fault-in) and mutation_count() (so the publish audit and the pager's
  /// image-staleness check stay coherent).  The table must not be read or
  /// mutated until the pager faults it back in.
  void ReleasePayload();

  /// PAGED STORE ONLY: the fault-in counterpart of ReleasePayload.  Moves
  /// `rows` (the hibernated dense rows, in dense order) in as the payload
  /// in one bulk step, sizing the index once for their count, and restores
  /// the exact pre-hibernation `mutation_count` — contents are
  /// bit-identical to the hibernated state, so continuity of the count is
  /// the truthful accounting.  Returns "" on success; on a duplicate
  /// tuple, a non-positive multiplicity, or a multiplicity total other
  /// than `cardinality` (a corrupt image) returns a description and leaves
  /// the table untouched.
  std::string RestorePayload(std::vector<std::pair<Tuple, int64_t>> rows,
                             int64_t cardinality, int64_t mutation_count);

  std::string ToString(size_t max_rows = 20) const;

 private:
  /// Slot position markers.  Row positions must stay below kIndexTombstone.
  static constexpr uint32_t kIndexEmpty = UINT32_MAX;
  static constexpr uint32_t kIndexTombstone = UINT32_MAX - 1;

  /// One open-addressing slot: the row's full tuple hash (for probe
  /// skipping and rehashing without touching tuples) and its position in
  /// rows_.
  struct IndexSlot {
    size_t hash;
    uint32_t pos;
  };

  /// Writable blocks: allocated on first use, copied while shared.
  RowVec& MutableRows();
  std::vector<IndexSlot>& MutableSlots();

  /// Position of `tuple` in rows_, or SIZE_MAX.
  size_t FindPosition(const Tuple& tuple, size_t hash) const;

  /// Places (hash, pos) in the first free slot, growing first if needed.
  void IndexInsert(size_t hash, uint32_t pos);
  /// Tombstones the slot holding exactly (hash, pos).
  void IndexErase(size_t hash, uint32_t pos);
  /// Redirects the slot holding (hash, old_pos) to new_pos.
  void IndexRepoint(size_t hash, uint32_t old_pos, uint32_t new_pos);
  /// Rebuilds slots_ at `new_capacity` (a power of two) from live slots.
  void IndexRehash(size_t new_capacity);

  struct SnapshotCache;

  Schema schema_;
  /// Dense live rows: (tuple, multiplicity > 0); may be null when empty.
  std::shared_ptr<RowVec> rows_;
  /// Flat open-addressing index over rows_; null or empty until first Add.
  std::shared_ptr<std::vector<IndexSlot>> slots_;
  /// Live + tombstoned slots (the probe-length load factor).
  size_t slots_used_ = 0;
  int64_t cardinality_ = 0;
  /// See mutation_count().
  int64_t mutation_count_ = 0;
  /// Lazily-built columnar snapshot; see ColumnarSnapshot().
  mutable std::shared_ptr<SnapshotCache> snapshot_;
  /// Set by mutations; the next ColumnarSnapshot() starts a fresh cache so
  /// copies sharing the old one keep theirs.
  bool snapshot_stale_ = false;
  /// Guards snapshot_ / snapshot_stale_ so concurrent readers of an
  /// immutable (published) table can all call ColumnarSnapshot().  Never
  /// copied or moved: each Table object owns its own lock.
  mutable std::mutex snapshot_mu_;
};

}  // namespace wuw

#endif  // WUW_STORAGE_TABLE_H_
