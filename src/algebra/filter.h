// Selection over signed multisets.
#ifndef WUW_ALGEBRA_FILTER_H_
#define WUW_ALGEBRA_FILTER_H_

#include <vector>

#include "algebra/operator_stats.h"
#include "algebra/rows.h"
#include "expr/scalar_expr.h"

namespace wuw {

class CancelToken;
class ThreadPool;

/// Returns the rows of `input` satisfying `predicate` (multiplicities kept
/// verbatim, input order kept) through the vectorized kernel
/// (algebra/vectorized.h), with the input columns at positions `columns`
/// (ascending; null keeps every column).  A null predicate passes every
/// row through.  The scan is sequential: `pool` and `cancel` keep the
/// signature uniform with HashJoin, the one operator that uses them.
Rows Filter(const Rows& input, const ScalarExpr::Ptr& predicate,
            OperatorStats* stats, ThreadPool* pool = nullptr,
            const CancelToken* cancel = nullptr,
            const std::vector<size_t>* columns = nullptr);

/// Plan-node kernel form of Filter: parameters captured at plan-build time,
/// executed with the uniform Run(inputs, stats) signature shared by every
/// relational operator (see plan/plan_node.h).
struct FilterKernel {
  ScalarExpr::Ptr predicate;
  /// Positions of the input columns the node emits (ascending).
  std::vector<size_t> columns;

  /// inputs = {child}.
  Rows Run(const std::vector<const Rows*>& inputs, OperatorStats* stats,
           ThreadPool* pool = nullptr,
           const CancelToken* cancel = nullptr) const;
};

}  // namespace wuw

#endif  // WUW_ALGEBRA_FILTER_H_
