#include "algebra/project.h"

#include <cstdlib>

#include "algebra/vectorized.h"
#include "common/check.h"
#include "expr/evaluator.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"

namespace wuw {

Rows ProjectKernel::Run(const std::vector<const Rows*>& inputs,
                        OperatorStats* stats, ThreadPool* pool,
                        const CancelToken* cancel) const {
  WUW_CHECK(inputs.size() == 1, "ProjectKernel takes exactly one input");
  return Project(*inputs[0], items, stats, pool, cancel);
}

Rows Project(const Rows& input, const std::vector<ProjectItem>& items,
             OperatorStats* stats, ThreadPool* pool,
             const CancelToken* cancel) {
  if (vec::Enabled()) {
    Rows vec_out;
    if (vec::TryProject(input, items, stats, pool, cancel, &vec_out)) {
      return vec_out;
    }
  }
  std::vector<BoundExpr> bound;
  std::vector<Column> out_cols;
  bound.reserve(items.size());
  for (const ProjectItem& item : items) {
    bound.push_back(BoundExpr::Bind(item.expr, input.schema));
    out_cols.push_back(Column{item.name, bound.back().result_type()});
  }
  Rows out((Schema(std::move(out_cols))));
  const size_t n = input.size();
  // One bound-tree evaluation per (row, item), on either path below.
  WUW_METRIC_ADD("engine.row.expr_evals", obs::MetricClass::kEngine,
                 static_cast<int64_t>(n * items.size()));

  if (ShouldParallelize(pool, n)) {
    // One output row per input row and no filtering, so morsels can write
    // disjoint windows of the pre-sized output directly — merge order is
    // the row index itself.  (Rows with multiplicity 0 never occur in
    // operator pipelines; Add() upstream drops them.)
    const size_t nmorsels = (n + kMorselRows - 1) / kMorselRows;
    std::vector<OperatorStats> partial(nmorsels);
    RowVec& out_rows = out.mutable_rows();
    out_rows.resize(n);
    auto morsel = [&](size_t begin, size_t end) {
      OperatorStats& ps = partial[begin / kMorselRows];
      for (size_t i = begin; i < end; ++i) {
        const auto& [tuple, count] = input.rows()[i];
        ps.rows_scanned += std::llabs(count);
        std::vector<Value> values;
        values.reserve(bound.size());
        for (const BoundExpr& b : bound) values.push_back(b.Eval(tuple));
        out_rows[i] = {Tuple(std::move(values)), count};
        ps.rows_produced += std::llabs(count);
      }
    };
    pool->ParallelFor(n, kMorselRows, morsel, cancel);
    if (stats != nullptr) {
      for (const OperatorStats& ps : partial) *stats += ps;
    }
    return out;
  }

  out.mutable_rows().reserve(n);
  for (const auto& [tuple, count] : input.rows()) {
    if (stats != nullptr) stats->rows_scanned += std::llabs(count);
    std::vector<Value> values;
    values.reserve(bound.size());
    for (const BoundExpr& b : bound) values.push_back(b.Eval(tuple));
    out.Add(Tuple(std::move(values)), count);
    if (stats != nullptr) stats->rows_produced += std::llabs(count);
  }
  return out;
}

}  // namespace wuw
