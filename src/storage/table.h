// Counting (multiset) tables: the storage representation of every
// materialized view in the warehouse.
//
// A table maps each distinct tuple to a positive multiplicity.  This is the
// standard "counting" representation used by incremental view maintenance
// (Gupta-Mumick-Subrahmanian 1993, Griffin-Libkin 1995): installing a delta
// relation is then a pure multiplicity merge, and deletions never need to
// search for "which copy" of a duplicate to remove.
//
// A table is its columnar image (storage/column_table.h) plus a row index
// over it.  The image holds the live rows densely (scans cost exactly the
// live rows, like a compacted heap file) and is what every scan, kernel,
// page image and reader sees; the index is a flat open-addressing table
// (linear probing, tombstoned deletes) of {row hash, position} slots,
// keyed by ColumnTable::RowHash, so Add and Count find a tuple's row
// without building one (ColumnTable::TupleRowHash, RowEquals).  Distinct
// rows that collide on their full hash occupy neighboring slots, and
// rehashing reuses the stored hashes.
//
// Add makes one of three edits: append a row, change a multiplicity, or
// delete by moving the last row into the hole and repointing its slot.
// Deleting rows genuinely makes later scans cheaper — the physical effect
// the paper's view orderings exploit ("install shrinking views early").
// The image and the index are shared copy-on-write: a Table copy (the
// warehouse's detach, a catalog clone) and a scan (Rows::FromTable) share
// them in O(1), and the next edit copies whichever is still shared, so a
// holder keeps seeing the rows as of its copy.  Edits leave the image's
// cardinality totals stale; every sharing point finishes them first, so an
// image anyone else holds is finished and never changes.
//
// Every tuple Add inserts must fit the schema: the declared arity, and
// each non-NULL cell of its column's declared type.  Anything else is a
// caller bug and aborts (WUW_CHECK); every ingest route is typed (CSV
// ingest, the engine's kernels, and journal replay, which checks at
// decode).
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
  size_t distinct_size() const;

  bool empty() const { return cardinality_ == 0; }

  /// Adds `count` copies of `tuple` (count may be negative; the stored
  /// multiplicity is clamped at zero — a warning-free model of installing a
  /// deletion for a tuple that is absent, which correct strategies never
  /// produce but tests exercise).  Returns the resulting multiplicity.
  /// Aborts when `tuple` is new and does not fit the schema (see the file
  /// comment); a tuple equal to a stored row may use another numeric type.
  int64_t Add(const Tuple& tuple, int64_t count);

  /// Multiplicity of `tuple` (0 if absent).
  int64_t Count(const Tuple& tuple) const;

  /// Iterates over (tuple, multiplicity) pairs in dense order.  Each tuple
  /// is materialized off the image and valid during the call only.
  void ForEach(
      const std::function<void(const Tuple&, int64_t)>& fn) const;

  /// The live rows in dense order, materialized off the image on every
  /// call (nothing is cached).
  RowVec dense_rows() const;

  /// Stable snapshot of contents sorted by tuple — used by tests to compare
  /// database states across strategies.
  std::vector<std::pair<Tuple, int64_t>> SortedRows() const;

  void Clear();

  /// Multiset equality.
  bool ContentsEqual(const Table& other) const;

  /// The table's image, finished and shared: the holder sees the rows as
  /// of this call.  Thread-safe for concurrent const readers.  Empty while
  /// the pager holds the table hibernated.
  std::shared_ptr<const ColumnTable> ColumnarSnapshot() const;

  /// Heap bytes held by the row index (the micro_engine memory line).
  size_t IndexBytes() const;

  /// Monotone count of mutating calls (Add with a non-zero effect window,
  /// Clear).  Copies inherit the count, so a copy-on-write detach preserves
  /// continuity — the snapshot-audit in exec/warehouse.cc compares it
  /// against extent_version across publishes to catch unbumped mutations.
  int64_t mutation_count() const { return mutation_count_; }

  /// PAGED STORE ONLY (storage/paged_store.h): drops the in-memory payload
  /// of a hibernated extent — image and index — while preserving schema,
  /// cardinality() (so size estimation works without a fault-in) and
  /// mutation_count() (so the publish audit and the pager's
  /// image-staleness check stay coherent).  Until the pager faults it back
  /// in, the table reads as holding no rows and must not be mutated.
  void ReleasePayload();

  /// PAGED STORE ONLY: the fault-in counterpart of ReleasePayload.  Makes
  /// `image` (the hibernated columnar image, dense order; finished here
  /// once its multiplicities pass the checks below) the table's image,
  /// owned by this table alone, builds the row index over it, and
  /// restores the exact pre-hibernation `mutation_count` — contents are
  /// bit-identical to the hibernated state, so continuity of the count is
  /// the truthful accounting.  Returns "" on success; on a schema other
  /// than this table's, a column length other than the row count, a
  /// non-positive multiplicity, a multiplicity total other than
  /// `cardinality`, or two equal rows (a corrupt image) returns a
  /// description and leaves the table untouched.
  std::string RestorePayload(std::shared_ptr<ColumnTable> image,
                             int64_t cardinality, int64_t mutation_count);

  std::string ToString(size_t max_rows = 20) const;

 private:
  /// Slot position markers.  Row positions must stay below kIndexTombstone.
  static constexpr uint32_t kIndexEmpty = UINT32_MAX;
  static constexpr uint32_t kIndexTombstone = UINT32_MAX - 1;

  /// One open-addressing slot: the row's full hash (for probe skipping and
  /// rehashing without touching the image) and its position in the image.
  struct IndexSlot {
    size_t hash;
    uint32_t pos;
  };

  /// Position of `tuple` in the image, or SIZE_MAX.  `hash` is
  /// ColumnTable::TupleRowHash(tuple).
  size_t FindPosition(const Tuple& tuple, size_t hash) const;

  /// The image, ready for an in-place edit: copied first while a scan or a
  /// Table copy holds it.
  ColumnTable* MutableImage();

  /// Calls fn on every (tuple, multiplicity) in dense order until it
  /// returns false; returns false iff it did.
  bool VisitRows(const std::function<bool(const Tuple&, int64_t)>& fn) const;

  /// The writable index: allocated on first use, copied while shared.
  std::vector<IndexSlot>& MutableSlots();

  /// Places (hash, pos) in the first free slot, growing first if needed.
  void IndexInsert(size_t hash, uint32_t pos);
  /// Tombstones the slot holding exactly (hash, pos).
  void IndexErase(size_t hash, uint32_t pos);
  /// Redirects the slot holding (hash, old_pos) to new_pos.
  void IndexRepoint(size_t hash, uint32_t old_pos, uint32_t new_pos);
  /// Rebuilds slots_ at `new_capacity` (a power of two) from live slots.
  void IndexRehash(size_t new_capacity);

  Schema schema_;
  /// The live rows, dense; multiplicities are positive.  Never null; empty
  /// while hibernated (ReleasePayload).
  std::shared_ptr<ColumnTable> image_;
  /// Row index over image_.  Null or empty until the first insert.
  std::shared_ptr<std::vector<IndexSlot>> slots_;
  /// Live + tombstoned slots (the probe-length load factor).
  size_t slots_used_ = 0;
  int64_t cardinality_ = 0;
  /// See mutation_count().
  int64_t mutation_count_ = 0;
  /// Set by edits: image_'s totals need Finish() before it is shared.
  /// Guarded by finish_mu_, so concurrent readers of an immutable
  /// (published) table can all call ColumnarSnapshot().
  mutable bool unfinished_ = false;
  /// Never copied or moved: each Table object owns its own lock.
  mutable std::mutex finish_mu_;
};

}  // namespace wuw

#endif  // WUW_STORAGE_TABLE_H_
