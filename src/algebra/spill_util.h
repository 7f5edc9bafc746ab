// Shared plumbing of the grace-partition spill paths (WUW_MEM_MB): the
// hash join and aggregation kernels partition their inputs by the TOP
// hash bits into page-backed spill streams, then process one partition at
// a time — bounding operator memory to roughly one partition plus the
// buffer pool's budget while reproducing the resident kernels' rows, row
// order, and OperatorStats bit for bit.
//
// Record streams carry (global row index, key hash, multiplicity, tuple):
// the global index lets per-partition results merge back into the exact
// sequential order (equal keys share a hash, hence a partition, so index
// sets across partitions are disjoint), and the stored hash avoids
// re-hashing on the read side.  Each operator owns a private temp page
// file + BufferPool, so spill traffic is single-threaded and the
// `paged.spill_faults` / `paged.spill_writebacks` /
// `paged.spilled_partitions` counters are deterministic at a fixed budget
// regardless of WUW_THREADS.
#ifndef WUW_ALGEBRA_SPILL_UTIL_H_
#define WUW_ALGEBRA_SPILL_UTIL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algebra/rows.h"
#include "storage/buffer_pool.h"
#include "storage/paged_store.h"

namespace wuw {
namespace spill {

/// True iff the analytic serialized bytes of a row set (storage/page.h
/// size model) exceed `limit` — the deterministic test the kernels' spill
/// gates apply against ResolvedSpillBytes.  Stops walking the rows as soon
/// as the limit is crossed.
bool RowsExceedBytes(const Rows& rows, int64_t limit);

/// One spilled row.
struct SpillRecord {
  uint32_t idx;    ///< global input-row index
  size_t hash;     ///< full key hash
  int64_t count;   ///< multiplicity
  Tuple tuple;
};

/// Append-only partitioned spill of SpillRecords through a byte-budgeted
/// BufferPool over a private temp page file (removed on destruction).
/// Usage: Append per input row, Finish once, then ReadPartition each
/// partition.  I/O failures throw std::runtime_error; the paged.io.*
/// fault sites fire inside the page reads/writes.
class PartitionedSpill {
 public:
  PartitionedSpill(const paged::PagedOptions& options, size_t partitions);
  ~PartitionedSpill() = default;

  PartitionedSpill(const PartitionedSpill&) = delete;
  PartitionedSpill& operator=(const PartitionedSpill&) = delete;

  void Append(size_t partition, uint32_t idx, size_t hash, int64_t count,
              const Tuple& tuple);

  /// Flushes partial pages and counts the non-empty partitions into
  /// `paged.spilled_partitions`.
  void Finish();

  /// Records of `partition` in append (= global input) order.
  std::vector<SpillRecord> ReadPartition(size_t partition);

  size_t partitions() const { return parts_.size(); }
  int64_t records(size_t partition) const {
    return parts_[partition].records;
  }

 private:
  struct Part {
    std::vector<int64_t> pages;
    std::string pending;
    int64_t records = 0;
  };

  /// Moves exactly `bytes` from `part.pending` into a fresh pool page.
  void FlushChunk(Part* part, size_t bytes);

  std::unique_ptr<paged::PageFile> file_;
  std::unique_ptr<paged::BufferPool> pool_;
  std::vector<Part> parts_;
  bool finished_ = false;
};

}  // namespace spill
}  // namespace wuw

#endif  // WUW_ALGEBRA_SPILL_UTIL_H_
