#include "algebra/hash_join.h"

#include <algorithm>
#include <numeric>

#include "algebra/spill_util.h"
#include "algebra/vectorized.h"
#include "common/check.h"
#include "obs/metrics.h"
#include "storage/paged_store.h"

namespace wuw {

namespace {

/// WUW_MEM_MB grace join, for when both sides exceed the spill threshold:
/// both sides partition by the TOP bits of their key hash and spill as
/// column images (algebra/spill_util.h), then each partition runs the
/// vectorized kernel on its two sides read back, so operator memory holds
/// one partition's hash table instead of the whole build side's.  A probe
/// row's matches all live in its own partition (equal keys share a hash),
/// in the kernel's order, so a stable sort of the partitions' outputs by
/// global probe row reproduces the resident kernel's rows and order; every
/// partition runs, one side empty or not, so the partitions' stats sum to
/// the resident kernel's.
Rows GraceHashJoin(const Rows& left, const Rows& right,
                   const std::vector<size_t>& left_idx,
                   const std::vector<size_t>& right_idx,
                   const std::vector<size_t>* columns, OperatorStats* stats,
                   const paged::PagedOptions& options) {
  const size_t nparts = options.partitions;
  std::shared_ptr<const ColumnTable> lct = left.Columnar();
  std::shared_ptr<const ColumnTable> rct = right.Columnar();
  const std::vector<std::vector<uint32_t>> lparts =
      spill::PartitionRows(*lct, left_idx, nparts);
  // Build partitions occupy [0, nparts), probe partitions [nparts,
  // 2*nparts) of one spill file.
  spill::PartitionedSpill spilled(options, nparts * 2);
  const std::vector<std::vector<uint32_t>> rparts =
      spill::PartitionRows(*rct, right_idx, nparts);
  for (size_t p = 0; p < nparts; ++p) {
    spilled.Write(p, *rct, rparts[p]);
    spilled.Write(nparts + p, *lct, lparts[p]);
  }

  // The partitions' outputs, concatenated, and each row's global probe row.
  Rows joined;
  std::vector<uint32_t> probe_of;
  for (size_t p = 0; p < nparts; ++p) {
    const Rows build = spilled.Read(p);
    const Rows probe = spilled.Read(nparts + p);
    std::vector<uint32_t> probe_rows;
    Rows out = vec::TryHashJoin(probe, build, left_idx, right_idx, stats,
                                nullptr, nullptr, vec::HashedSide::kRight,
                                columns, &probe_rows);
    for (uint32_t i : probe_rows) probe_of.push_back(lparts[p][i]);
    if (p == 0) {
      joined = std::move(out);
    } else {
      joined.Append(out);
    }
  }
  std::vector<uint32_t> order(probe_of.size());
  std::iota(order.begin(), order.end(), uint32_t{0});
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return probe_of[a] < probe_of[b];
  });
  auto merged = std::make_shared<ColumnTable>(joined.schema);
  merged->AppendRows(*joined.Columnar(), order);
  return Rows::FromColumnar(std::move(merged));
}

}  // namespace

Rows HashJoinKernel::Run(const std::vector<const Rows*>& inputs,
                         OperatorStats* stats, ThreadPool* pool,
                         const CancelToken* cancel) const {
  WUW_CHECK(inputs.size() == 2, "HashJoinKernel takes exactly two inputs");
  return HashJoin(*inputs[0], *inputs[1], keys, stats, pool, cancel,
                  &columns);
}

Rows HashJoin(const Rows& left, const Rows& right, const JoinKeys& keys,
              OperatorStats* stats, ThreadPool* pool,
              const CancelToken* cancel, const std::vector<size_t>* columns) {
  WUW_CHECK(keys.left_columns.size() == keys.right_columns.size(),
            "join key arity mismatch");
  std::vector<size_t> left_idx, right_idx;
  for (const std::string& c : keys.left_columns) {
    left_idx.push_back(left.schema.MustIndexOf(c));
  }
  for (const std::string& c : keys.right_columns) {
    right_idx.push_back(right.schema.MustIndexOf(c));
  }

  // WUW_MEM_MB: an oversized build side never gets a resident hash table.
  // If the probe side fits under the spill threshold the vectorized kernel
  // hashes it instead and streams the build side past it; only when both
  // sides are oversized do they grace-partition through a spill.  Rows,
  // row order, and OperatorStats are bit-identical to the resident kernel
  // on every route.  Disarmed: one relaxed atomic load.
  vec::HashedSide hashed = vec::HashedSide::kRight;
  if (const paged::PagedOptions* spill_opts = paged::OperatorSpill();
      spill_opts != nullptr) {
    const int64_t threshold = paged::ResolvedSpillBytes(*spill_opts);
    if (spill::RowsExceedBytes(right, threshold)) {
      if (spill::RowsExceedBytes(left, threshold)) {
        return GraceHashJoin(left, right, left_idx, right_idx, columns,
                             stats, *spill_opts);
      }
      hashed = vec::HashedSide::kLeft;
      WUW_METRIC_ADD("paged.probe_side_joins", obs::MetricClass::kEngine, 1);
    }
  }
  return vec::TryHashJoin(left, right, left_idx, right_idx, stats, pool,
                          cancel, hashed, columns);
}

}  // namespace wuw
