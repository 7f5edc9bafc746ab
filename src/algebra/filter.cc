#include "algebra/filter.h"

#include <cstdlib>

#include "algebra/vectorized.h"
#include "common/check.h"
#include "expr/evaluator.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"

namespace wuw {

Rows FilterKernel::Run(const std::vector<const Rows*>& inputs,
                       OperatorStats* stats, ThreadPool* pool,
                       const CancelToken* cancel) const {
  WUW_CHECK(inputs.size() == 1, "FilterKernel takes exactly one input");
  return Filter(*inputs[0], predicate, stats, pool, cancel);
}

Rows Filter(const Rows& input, const ScalarExpr::Ptr& predicate,
            OperatorStats* stats, ThreadPool* pool,
            const CancelToken* cancel) {
  if (predicate == nullptr) return input;
  if (vec::Enabled()) {
    Rows vec_out;
    if (vec::TryFilter(input, predicate, stats, pool, cancel, &vec_out)) {
      return vec_out;
    }
  }
  Rows out(input.schema);
  BoundExpr bound = BoundExpr::Bind(predicate, input.schema);
  const size_t n = input.size();
  // One bound-tree evaluation per row, on either path below.
  WUW_METRIC_ADD("engine.row.expr_evals", obs::MetricClass::kEngine,
                 static_cast<int64_t>(n));

  if (ShouldParallelize(pool, n)) {
    // Per-morsel buffers merged in morsel order keep the surviving rows in
    // input order — identical to the sequential scan.  The bound predicate
    // is evaluated concurrently over an immutable tree (see evaluator.h).
    const size_t nmorsels = (n + kMorselRows - 1) / kMorselRows;
    std::vector<std::vector<std::pair<Tuple, int64_t>>> buffers(nmorsels);
    std::vector<OperatorStats> partial(nmorsels);
    auto morsel = [&](size_t begin, size_t end) {
      size_t m = begin / kMorselRows;
      std::vector<std::pair<Tuple, int64_t>>& buf = buffers[m];
      OperatorStats& ps = partial[m];
      buf.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) {
        const auto& [tuple, count] = input.rows()[i];
        ps.rows_scanned += std::llabs(count);
        if (bound.EvalBool(tuple)) {
          if (count != 0) buf.emplace_back(tuple, count);
          ps.rows_produced += std::llabs(count);
        }
      }
    };
    pool->ParallelFor(n, kMorselRows, morsel, cancel);
    size_t total = 0;
    for (const auto& buf : buffers) total += buf.size();
    RowVec& out_rows = out.mutable_rows();
    out_rows.reserve(total);
    for (auto& buf : buffers) {
      out_rows.insert(out_rows.end(), std::make_move_iterator(buf.begin()),
                      std::make_move_iterator(buf.end()));
    }
    if (stats != nullptr) {
      for (const OperatorStats& ps : partial) *stats += ps;
    }
    return out;
  }

  out.mutable_rows().reserve(n);
  for (const auto& [tuple, count] : input.rows()) {
    if (stats != nullptr) stats->rows_scanned += std::llabs(count);
    if (bound.EvalBool(tuple)) {
      out.Add(tuple, count);
      if (stats != nullptr) stats->rows_produced += std::llabs(count);
    }
  }
  return out;
}

}  // namespace wuw
