// Pipeline row batches: the intermediate representation flowing between
// relational operators.
//
// A Rows value is a signed multiset — each tuple carries a signed
// multiplicity.  Positive multiplicities are ordinary rows; negative ones
// are deletions flowing through delta computations.  Both full tables and
// delta relations convert into Rows for processing.
//
// A batch carries up to two images of the same multiset:
//  - the row image, (tuple, multiplicity) pairs in a shared copy-on-write
//    block.  Copying a batch, or scanning a table (FromTable), shares the
//    block in O(1); mutable_rows() copies it only while it is shared.
//  - the columnar mirror (storage/column_table.h), built lazily on first
//    Columnar() request and shared by copies, which is what lets the
//    vectorized kernels (algebra/vectorized.h) engage without changing any
//    operator signature.
// Vectorized Filter and HashJoin emit columnar-only batches (FromColumnar,
// Select): their row image is built once, on the first rows() call, either
// by sharing the input's tuples through a selection vector or from the
// columnar cells (ColumnTable::TupleAt round-trips exactly).  size(),
// empty() and the cardinality caches never build it.
//
// Running signed/abs cardinalities are memoized so the window-budget work
// charging and plan cost hooks stop re-scanning multiplicities (debug
// builds assert the cache against the O(n) recompute).
#ifndef WUW_ALGEBRA_ROWS_H_
#define WUW_ALGEBRA_ROWS_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "storage/schema.h"
#include "storage/table.h"
#include "storage/tuple.h"

namespace wuw {

class ColumnTable;

/// A signed multiset of tuples with a schema.
struct Rows {
  Schema schema;

  Rows();
  explicit Rows(Schema s);
  Rows(const Rows& other);
  Rows(Rows&& other) noexcept;
  Rows& operator=(const Rows& other);
  Rows& operator=(Rows&& other) noexcept;
  ~Rows();

  /// The row image.  Builds it on the first call for a columnar-only batch
  /// (thread-safe: concurrent callers share one build).  The reference
  /// stays valid until the next non-const call on this object.
  const RowVec& rows() const {
    if (pending_ != nullptr) return BuiltRows();
    return rows_ != nullptr ? *rows_ : NoRows();
  }

  /// Writable row image: builds it if needed, copies the block while it is
  /// shared, and marks the columnar mirror stale.
  RowVec& mutable_rows() {
    if (pending_ != nullptr || rows_ == nullptr || rows_.use_count() != 1) {
      DetachRows();
    }
    columnar_stale_ = true;
    return const_cast<RowVec&>(*rows_);
  }

  /// False while a columnar-only batch has not built its row image yet.
  bool rows_materialized() const;

  /// Number of (tuple, multiplicity) entries; never builds rows.
  size_t size() const;
  bool empty() const { return size() == 0; }

  void Add(Tuple t, int64_t count) {
    if (count == 0) return;
    mutable_rows().emplace_back(std::move(t), count);
    BumpCards(count);
  }

  /// Sum of multiplicities (may be negative for deltas).  O(n) on first
  /// call, O(1) memoized afterwards (and O(1) up front when the producer
  /// called SetCachedCardinalities); Add() maintains a set cache
  /// incrementally.
  int64_t SignedCardinality() const;

  /// Sum of |multiplicity| — the "size" of the batch as an operand, which
  /// is what the linear work metric charges for scanning it.  Memoized
  /// like SignedCardinality.
  int64_t AbsCardinality() const;

  /// Snapshot of a table as +1-weighted rows (multiplicities preserved).
  /// Shares the table's row block in O(1) and carries its cardinality and
  /// columnar snapshot along.
  static Rows FromTable(const Table& table);

  /// Columnar-only batch whose content is exactly `table` (non-null).
  /// Rows are rebuilt from the columns if anyone asks for them.
  static Rows FromColumnar(std::shared_ptr<const ColumnTable> table);

  /// Columnar-only selection of `input`: row k of `table` is row `sel[k]`
  /// of `input`, with the same multiplicity.  When `input`'s rows exist,
  /// the row image shares its tuples instead of rebuilding them.
  static Rows Select(const Rows& input, std::vector<uint32_t> sel,
                     std::shared_ptr<const ColumnTable> table);

  /// The columnar mirror of this batch, built on first request (thread-safe
  /// for concurrent readers) and shared with copies.  Null when any cell
  /// violates its declared column type — such batches stay row-at-a-time.
  std::shared_ptr<const ColumnTable> Columnar() const;

  /// Attaches a pre-built mirror (vectorized kernels attach the columnar
  /// image of their output so downstream operators never re-convert).
  /// The mirror must represent exactly schema/rows.
  void AttachColumnar(std::shared_ptr<const ColumnTable> table) const;

  /// Seeds both cardinality caches from a producer that knows them.
  void SetCachedCardinalities(int64_t signed_card, int64_t abs_card) const;

 private:
  /// Shared lazily-filled columnar cache; see rows.cc.
  struct ColumnarSlot;
  /// Deferred row build of a columnar-only batch, shared by copies.
  struct PendingRows;

  /// rows() of a columnar-only batch: builds the image on first call.
  const RowVec& BuiltRows() const;
  static const RowVec& NoRows();

  /// Makes rows_ a uniquely owned, built block (mutable_rows' slow path).
  void DetachRows();

  /// The row block if the row image exists (null for an empty batch).
  std::shared_ptr<const RowVec> RowBlock() const;

  /// Sum of f(multiplicity) over whichever image exists.
  template <typename F>
  int64_t SumMults(F f) const;

  /// Resolves columnar_stale_ (detaching a fresh slot) and returns the
  /// current slot, all under columnar_mu_ — the one place the slot pointer
  /// is swapped or read.
  std::shared_ptr<ColumnarSlot> FreshSlot() const;

  void BumpCards(int64_t count) {
    int64_t s = signed_card_.load(std::memory_order_relaxed);
    if (s != kCardUnset) {
      signed_card_.store(s + count, std::memory_order_relaxed);
      abs_card_.store(abs_card_.load(std::memory_order_relaxed) +
                          std::llabs(count),
                      std::memory_order_relaxed);
    }
  }

  static constexpr int64_t kCardUnset = INT64_MIN;

  /// Row image; null means empty (or not built yet when pending_ is set).
  /// Blocks are always allocated mutable, so a sole owner may write.
  std::shared_ptr<const RowVec> rows_;
  /// Set for a columnar-only batch until mutable_rows() takes its rows.
  std::shared_ptr<PendingRows> pending_;
  /// Guards columnar_/columnar_stale_ so concurrent Columnar() callers on
  /// a shared batch (term workers over a cached subplan result, snapshot
  /// readers) never race on the lazy slot detach.  Held for one pointer
  /// swap/copy only; the slot's own mutex serializes the build.  Not
  /// copied by the copy/move members (each Rows owns its mutex).
  mutable std::mutex columnar_mu_;
  mutable std::shared_ptr<ColumnarSlot> columnar_;
  /// Set when rows changed after the slot was (possibly) filled; Columnar()
  /// rebuilds into a fresh slot so copies sharing the old one stay valid.
  /// Written without columnar_mu_ only from mutable_rows(), which is legal
  /// only while the batch is still uniquely owned (mutation during
  /// concurrent reads would already race on the rows themselves).
  mutable bool columnar_stale_ = false;
  mutable std::atomic<int64_t> signed_card_{kCardUnset};
  mutable std::atomic<int64_t> abs_card_{kCardUnset};
};

}  // namespace wuw

#endif  // WUW_ALGEBRA_ROWS_H_
