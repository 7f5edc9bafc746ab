// Shared plumbing of the grace-partition spill routes (WUW_MEM_MB): the
// hash join (algebra/hash_join.cc) and the aggregate
// (algebra/vectorized.cc) partition an oversized input by the TOP bits of
// its key hash, spill each partition as a column image through the page
// codec (storage/page.h), then read the partitions back one at a time and
// run the same vectorized kernel on each.  Equal keys share a hash, hence
// a partition, and a partition keeps its rows in input order, so merging
// the partitions' outputs by global row index reproduces the resident
// kernel's rows, row order and OperatorStats bit for bit.
//
// Each operator owns a private temp page file + BufferPool, so spill
// traffic is single-threaded and the `paged.spill_faults` /
// `paged.spill_writebacks` / `paged.spilled_partitions` counters are
// deterministic at a fixed budget regardless of WUW_THREADS.
#ifndef WUW_ALGEBRA_SPILL_UTIL_H_
#define WUW_ALGEBRA_SPILL_UTIL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "algebra/rows.h"
#include "storage/buffer_pool.h"
#include "storage/column_table.h"
#include "storage/paged_store.h"

namespace wuw {
namespace spill {

/// True iff the analytic serialized bytes of a batch (storage/page.h size
/// model) exceed `limit` — the deterministic test the kernels' spill gates
/// apply against ResolvedSpillBytes.  Stops as soon as the limit is
/// crossed.
bool RowsExceedBytes(const Rows& rows, int64_t limit);

/// The rows of `image` in each of `partitions` partitions, ascending: a
/// row's partition is the top bits of the kernels' key hash over columns
/// `key_idx`, so rows with equal keys share one.
std::vector<std::vector<uint32_t>> PartitionRows(
    const ColumnTable& image, const std::vector<size_t>& key_idx,
    size_t partitions);

/// A set of partitions spilled as column images through a byte-budgeted
/// BufferPool over a private temp page file (removed on destruction).
/// I/O failures throw std::runtime_error; the paged.io.* fault sites fire
/// inside the page reads/writes.
class PartitionedSpill {
 public:
  PartitionedSpill(const paged::PagedOptions& options, size_t partitions);

  PartitionedSpill(const PartitionedSpill&) = delete;
  PartitionedSpill& operator=(const PartitionedSpill&) = delete;

  /// Spills rows `ids` of `image`, in that order, as partition
  /// `partition`; counts it in `paged.spilled_partitions` when it has
  /// rows.  Each partition is written once.
  void Write(size_t partition, const ColumnTable& image,
             const std::vector<uint32_t>& ids);

  /// Partition `partition`'s rows, read back.
  Rows Read(size_t partition);

 private:
  std::unique_ptr<paged::PageFile> file_;
  std::unique_ptr<paged::BufferPool> pool_;
  /// Each partition's pages, in order.
  std::vector<std::vector<int64_t>> pages_;
};

}  // namespace spill
}  // namespace wuw

#endif  // WUW_ALGEBRA_SPILL_UTIL_H_
