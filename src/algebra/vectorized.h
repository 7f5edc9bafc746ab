// Vectorized (batch-at-a-time) kernels over the columnar core.
//
// Each Try* entry point mirrors one row kernel (Filter / Project /
// HashJoin / AggregateSigned).  When the inputs convert to ColumnTable form
// (Rows::Columnar()) and the expression/key shapes compile to typed column
// loops, the vectorized kernel runs and returns true; otherwise it returns
// false without touching *out and the caller falls back to the row path.
// The fallback decision depends only on (input contents, expression,
// schema) — never on the pool or cache state — so the executed path, rows,
// row ORDER, and OperatorStats are identical at every WUW_THREADS value.
// TryFilter and TryHashJoin return columnar-only batches (Rows::Select /
// Rows::FromColumnar): no output tuple is built unless a consumer calls
// rows().  TryProject and TryAggregate build their rows eagerly.
//
// Bit-identity argument.  The vec kernels hash keys with an internal mixer
// (per-code dictionary hashes for strings, the normalized double image for
// numerics — matching Value equality exactly), which is deliberately NOT
// Value::Hash.  That is sound because no kernel's output order depends on
// the hash function: filter/project preserve input order; join output
// order is (probe row asc, build row desc among equal keys), and equal
// keys share a full hash under ANY consistent hash, hence one bucket in
// both layouts; aggregate emits in first-occurrence order.  Double SUMs
// accumulate per group in input order, exactly like the row path.
//
// WUW_COLUMNAR=0 disables every Try* (used for before/after benching);
// WUW_BATCH_ROWS sizes the internal batches (algebra/row_batch.h) and
// cannot change any output, only loop chunking.
#ifndef WUW_ALGEBRA_VECTORIZED_H_
#define WUW_ALGEBRA_VECTORIZED_H_

#include <cstddef>
#include <string>
#include <vector>

#include "algebra/aggregate.h"
#include "algebra/operator_stats.h"
#include "algebra/project.h"
#include "algebra/rows.h"
#include "expr/scalar_expr.h"

namespace wuw {

class CancelToken;
class ThreadPool;

namespace vec {

/// Columnar execution gate: true unless WUW_COLUMNAR=0.
bool Enabled();

/// Test hook: -1 restores the environment-derived gate, 0 forces the row
/// path, 1 forces the gate open (kernels still fall back per call when a
/// shape does not compile).
void TestOnlySetEnabled(int mode);

/// Vectorized selection.  `predicate` must be non-null.
bool TryFilter(const Rows& input, const ScalarExpr::Ptr& predicate,
               OperatorStats* stats, ThreadPool* pool,
               const CancelToken* cancel, Rows* out);

/// Vectorized generalized projection.
bool TryProject(const Rows& input, const std::vector<ProjectItem>& items,
                OperatorStats* stats, ThreadPool* pool,
                const CancelToken* cancel, Rows* out);

/// Vectorized hash join over pre-hashed key columns; keeps the
/// radix-partitioned parallel build when the pool and input sizes warrant
/// it.  `left_idx` / `right_idx` are resolved key column positions.
bool TryHashJoin(const Rows& left, const Rows& right,
                 const std::vector<size_t>& left_idx,
                 const std::vector<size_t>& right_idx, OperatorStats* stats,
                 ThreadPool* pool, const CancelToken* cancel, Rows* out);

/// Vectorized signed aggregation with flat accumulators.
bool TryAggregate(const Rows& input, const std::vector<std::string>& group_by,
                  const std::vector<AggSpec>& aggs, OperatorStats* stats,
                  ThreadPool* pool, const CancelToken* cancel, Rows* out);

}  // namespace vec
}  // namespace wuw

#endif  // WUW_ALGEBRA_VECTORIZED_H_
