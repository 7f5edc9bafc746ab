// Batch-at-a-time IR: the unit the vectorized kernels process.
//
// A RowBatch is a VIEW over a contiguous row range of a ColumnTable plus an
// optional selection vector — filtering narrows the selection instead of
// copying cells, and every downstream loop walks `row(k)` indices into the
// shared column arrays.  Batches carry their signed/abs cardinality,
// summed once over the batch's multiplicities when it is made (debug
// builds assert the cached values against a recompute).
//
// Batch capacity is kBatchRows.  The size only chunks kernel loops — no
// per-row semantics cross a batch boundary — so tests cover batch
// boundaries through input sizes around multiples of kBatchRows.
#ifndef WUW_ALGEBRA_ROW_BATCH_H_
#define WUW_ALGEBRA_ROW_BATCH_H_

#include <cstdint>
#include <vector>

#include "storage/column_table.h"

namespace wuw {

/// Rows per batch: big enough to amortize per-batch dispatch, small
/// enough that a batch's working set (a few live columns) stays
/// cache-resident.
inline constexpr size_t kBatchRows = 1024;

/// A view of rows [begin, end) of a ColumnTable, optionally narrowed by a
/// selection vector of absolute row ids (ascending).  Cells are read
/// through source->column(c) at row(k); nothing is copied.
struct RowBatch {
  const ColumnTable* source = nullptr;
  size_t begin = 0;
  size_t end = 0;
  /// Absolute row ids surviving a filter, ascending; used iff `filtered`.
  std::vector<uint32_t> sel;
  bool filtered = false;
  /// Running cardinalities of the viewed rows (sum of mult / |mult|).
  int64_t signed_card = 0;
  int64_t abs_card = 0;

  /// Number of rows visible through the batch.
  size_t size() const { return filtered ? sel.size() : end - begin; }
  /// Absolute row id of the k-th visible row.
  size_t row(size_t k) const { return filtered ? sel[k] : begin + k; }

  /// Unfiltered view of [begin, end), its cardinalities summed here.
  static RowBatch Of(const ColumnTable& table, size_t begin, size_t end);

  /// Narrows `base` to `selected` (absolute ids within [base.begin,
  /// base.end), ascending), recomputing cardinalities from the sums the
  /// caller accumulated while selecting.
  static RowBatch Select(const RowBatch& base, std::vector<uint32_t> selected,
                         int64_t signed_card, int64_t abs_card);

  /// Debug oracle: recomputes both cardinalities in O(n) and aborts on
  /// mismatch with the cached fields.  No-op in release builds.
  void CheckCards() const;
};

/// Splits [0, table.num_rows()) into kBatchRows-sized batches and calls
/// fn on each, in order.
template <typename Fn>
void ForEachBatch(const ColumnTable& table, Fn&& fn) {
  const size_t n = table.num_rows();
  for (size_t b = 0; b < n; b += kBatchRows) {
    fn(RowBatch::Of(table, b, b + kBatchRows < n ? b + kBatchRows : n));
  }
}

}  // namespace wuw

#endif  // WUW_ALGEBRA_ROW_BATCH_H_
