// Generalized projection over signed multisets.
#ifndef WUW_ALGEBRA_PROJECT_H_
#define WUW_ALGEBRA_PROJECT_H_

#include <string>
#include <vector>

#include "algebra/operator_stats.h"
#include "algebra/rows.h"
#include "expr/scalar_expr.h"

namespace wuw {

class CancelToken;
class ThreadPool;

/// One output column of a projection: an expression plus an output name.
struct ProjectItem {
  ScalarExpr::Ptr expr;
  std::string name;
};

/// Evaluates `items` over every row of `input` through the vectorized
/// kernel (algebra/vectorized.h): one output row per input row, in input
/// order.  Duplicates are NOT collapsed (multiset projection);
/// multiplicities are kept verbatim.  The scan is sequential: `pool` and
/// `cancel` keep the signature uniform with HashJoin.
Rows Project(const Rows& input, const std::vector<ProjectItem>& items,
             OperatorStats* stats, ThreadPool* pool = nullptr,
             const CancelToken* cancel = nullptr);

/// Plan-node kernel form of Project (uniform Run(inputs, stats) signature;
/// see plan/plan_node.h).
struct ProjectKernel {
  std::vector<ProjectItem> items;

  /// inputs = {child}.
  Rows Run(const std::vector<const Rows*>& inputs, OperatorStats* stats,
           ThreadPool* pool = nullptr,
           const CancelToken* cancel = nullptr) const;
};

}  // namespace wuw

#endif  // WUW_ALGEBRA_PROJECT_H_
