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
//
// A table the extent pager faults in (storage/paged_store.h) comes back as
// its columnar image plus a row index over it, and stays image-primary:
// no tuple is decoded at fault-in, and none is built to install into it.
// RestorePayload's one hash pass over the image (ColumnTable::RowHashes)
// both checks that its rows are distinct and fills the index — the same
// flat {hash, position} slots, keyed by the image's row hash instead of
// Tuple::Hash.  Add hashes the incoming tuple the same way
// (ColumnTable::TupleRowHash), compares cells against it, and edits the
// image in place with the row path's three edits (append, multiplicity
// change, swap-with-last delete; the index slot is repointed), so the
// dense order is exactly what the row path would give.  Count probes the
// same index; ForEach, ContentsEqual and SortedRows read tuples off the
// image one at a time.  Dense rows are built only for dense_rows() and
// SharedRows() — once per image state, by whichever thread gets there
// first, shared with every copy — and a later Count looks tuples up in
// them as a resident table does.  A scan or a Table copy holding the
// image or the index makes the next edit copy it first.  Only an insert
// the image cannot hold (a type-violating cell, which only the direct
// Table API produces) turns the table row-primary again.
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

  /// Number of distinct tuples.  Never builds rows.
  size_t distinct_size() const;

  bool empty() const { return cardinality_ == 0; }

  /// Adds `count` copies of `tuple` (count may be negative; the stored
  /// multiplicity is clamped at zero — a warning-free model of installing a
  /// deletion for a tuple that is absent, which correct strategies never
  /// produce but tests exercise).  Returns the resulting multiplicity.
  int64_t Add(const Tuple& tuple, int64_t count);

  /// Multiplicity of `tuple` (0 if absent).
  int64_t Count(const Tuple& tuple) const;

  /// Iterates over (tuple, multiplicity) pairs in dense order.  The tuple
  /// reference is valid during the call only (a faulted-in table that has
  /// not built its rows materializes each one off its image).
  void ForEach(
      const std::function<void(const Tuple&, int64_t)>& fn) const;

  /// The dense live-row storage, in the same order ForEach visits it.
  /// Valid until the next mutation of this table.  Builds the rows of a
  /// faulted-in table on first call (thread-safe: concurrent callers share
  /// one build).
  const RowVec& dense_rows() const;

  /// The dense row block itself, shared in O(1): the holder sees the rows
  /// as of this call, because the table copies the block before its next
  /// write while the handle lives.  May be null for an empty table.
  /// Builds like dense_rows().
  std::shared_ptr<const RowVec> SharedRows() const;

  /// False while a faulted-in table has not built its dense rows yet; its
  /// content is then exactly ColumnarSnapshot().
  bool rows_materialized() const;

  /// Stable snapshot of contents sorted by tuple — used by tests to compare
  /// database states across strategies.
  std::vector<std::pair<Tuple, int64_t>> SortedRows() const;

  void Clear();

  /// Multiset equality.
  bool ContentsEqual(const Table& other) const;

  /// Columnar mirror of dense_rows(), built lazily on first request
  /// (thread-safe) and shared with copies.  Add keeps it current in place
  /// while this table alone holds it — no Table copy shares the cache and
  /// no Rows holds the image; otherwise a mutation of a resident table
  /// drops it and the next call rebuilds, while an image-primary table
  /// copies it and edits the copy.  Null when any cell violates its
  /// declared column type (see storage/column_table.h), or inside a
  /// reader's serve scope before the image is built.  Never null for a
  /// faulted-in table: the restored image is the snapshot.
  std::shared_ptr<const ColumnTable> ColumnarSnapshot() const;

  /// Heap bytes held by the tuple hash index (the micro_engine memory
  /// line).  A faulted-in table's row index over its image is not counted:
  /// this reads 0 until a Count after dense_rows() builds a tuple index.
  size_t IndexBytes() const;

  /// Monotone count of mutating calls (Add with a non-zero effect window,
  /// Clear).  Copies inherit the count, so a copy-on-write detach preserves
  /// continuity — the snapshot-audit in exec/warehouse.cc compares it
  /// against extent_version across publishes to catch unbumped mutations.
  int64_t mutation_count() const { return mutation_count_; }

  /// PAGED STORE ONLY (storage/paged_store.h): drops the in-memory payload
  /// of a hibernated extent — rows, index, and columnar image — while
  /// preserving schema, cardinality() (so size estimation works without a
  /// fault-in) and mutation_count() (so the publish audit and the pager's
  /// image-staleness check stay coherent).  The table must not be read or
  /// mutated until the pager faults it back in.
  void ReleasePayload();

  /// PAGED STORE ONLY: the fault-in counterpart of ReleasePayload.  Makes
  /// `image` (the hibernated columnar image, dense order; finished here
  /// once its multiplicities pass the checks below) the table's columnar
  /// snapshot, owned by this table alone, builds the row index over it,
  /// and restores the exact pre-hibernation `mutation_count` — contents are
  /// bit-identical to the hibernated state, so continuity of the count is
  /// the truthful accounting.  The table is then image-primary (see the
  /// file comment).  Returns "" on success; on a schema other than this
  /// table's, a column length other than the row count, a non-positive
  /// multiplicity, a multiplicity total other than `cardinality`, or two
  /// equal rows (a corrupt image) returns a description and leaves the
  /// table untouched.
  std::string RestorePayload(std::shared_ptr<ColumnTable> image,
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

  /// The rows and tuple index an image-primary table builds for row
  /// consumers; see table.cc.
  struct LazyPayload;

  /// The row and tuple-index blocks const readers see: lazy_'s, built
  /// from the image on first use, while it is set; otherwise rows_ and
  /// slots_.
  const std::shared_ptr<RowVec>& RowBlock() const;
  const std::shared_ptr<std::vector<IndexSlot>>& SlotBlock() const;

  /// Makes an image-primary table row-primary: takes lazy_'s rows and
  /// tuple index (building them if needed) as this table's own blocks.
  void AdoptLazyPayload();

  /// The image of an image-primary table (lazy_ set).
  const ColumnTable& Image() const;

  /// Position of `tuple` in the image, by the row index in slots_, or
  /// SIZE_MAX.  `hash` is ColumnTable::TupleRowHash(tuple).
  size_t FindImagePosition(const Tuple& tuple, size_t hash) const;

  /// Add on an image-primary table.  Returns false, changing nothing,
  /// when the tuple is new and the image cannot hold it.
  bool AddToImage(const Tuple& tuple, int64_t count, int64_t* result);

  /// The image of an image-primary table, ready for an in-place edit:
  /// copied first while a scan or a Table copy holds it.  Drops rows built
  /// from the image before this edit.
  ColumnTable* MutableImage();

  /// Calls fn on every (tuple, multiplicity) in dense order until it
  /// returns false; returns false iff it did.  Never builds dense rows.
  bool VisitRows(const std::function<bool(const Tuple&, int64_t)>& fn) const;

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

  /// The columnar image, for an in-place edit, if this table alone holds
  /// it; otherwise marks it stale and returns null.  Reads only state the
  /// mutating thread owns (published copies share the cache, scans hold
  /// the image), so the choice never depends on reader timing.
  ColumnTable* EditableImage();

  struct SnapshotCache;

  Schema schema_;
  /// Dense live rows: (tuple, multiplicity > 0); may be null when empty.
  /// Null while the table is image-primary.
  std::shared_ptr<RowVec> rows_;
  /// Flat open-addressing index: over rows_ by Tuple::Hash, or, while the
  /// table is image-primary, over the image by its row hash.  Null or
  /// empty until first Add.
  std::shared_ptr<std::vector<IndexSlot>> slots_;
  /// Live + tombstoned slots (the probe-length load factor).
  size_t slots_used_ = 0;
  /// Set exactly while the table is image-primary: from RestorePayload
  /// until Clear, ReleasePayload or an insert the image cannot hold.
  /// Shared by copies, so a copy and its source build rows once between
  /// them; an image edit replaces it once it holds rows.
  std::shared_ptr<LazyPayload> lazy_;
  int64_t cardinality_ = 0;
  /// See mutation_count().
  int64_t mutation_count_ = 0;
  /// Lazily-built columnar snapshot; see ColumnarSnapshot().
  mutable std::shared_ptr<SnapshotCache> snapshot_;
  /// Set by mutations that drop the image; the next ColumnarSnapshot()
  /// starts a fresh cache so copies sharing the old one keep theirs.
  bool snapshot_stale_ = false;
  /// Guards snapshot_ / snapshot_stale_ so concurrent readers of an
  /// immutable (published) table can all call ColumnarSnapshot().  Never
  /// copied or moved: each Table object owns its own lock.
  mutable std::mutex snapshot_mu_;
};

}  // namespace wuw

#endif  // WUW_STORAGE_TABLE_H_
