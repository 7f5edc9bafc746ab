// Grouped aggregation over signed multisets.
//
// Supports SUM and COUNT, the aggregates that are exactly maintainable
// under insertions and deletions with per-group counts (the paper's views
// are TPC-D SELECT-FROM-WHERE-GROUPBY summaries with SUM of revenue; MIN /
// MAX are not self-maintainable under deletions and are deliberately
// excluded from the maintainable view language).
#ifndef WUW_ALGEBRA_AGGREGATE_H_
#define WUW_ALGEBRA_AGGREGATE_H_

#include <string>
#include <vector>

#include "algebra/operator_stats.h"
#include "algebra/rows.h"
#include "expr/scalar_expr.h"

namespace wuw {

class CancelToken;
class ThreadPool;

enum class AggFn : uint8_t { kSum, kCount };

/// One aggregate output column.
struct AggSpec {
  AggFn fn;
  /// Argument expression (ignored for COUNT).
  ScalarExpr::Ptr arg;
  std::string name;
};

/// Groups `input` by the named `group_by` columns and computes the signed
/// aggregate totals of each group: SUM adds multiplicity * arg, COUNT adds
/// multiplicity.
///
/// Output schema: group columns, one column per AggSpec, plus a trailing
/// "__count" INT64 column holding the signed number of contributing rows.
/// Emits one +1-weighted row per group whose aggregates or count are not
/// all zero.  Over all-positive input this is ordinary GROUP BY; over a
/// signed delta it is the *summary delta* of Mumick-Quass-Mumick 1997.
///
/// The vectorized kernel (algebra/vectorized.h): groups emit in
/// first-occurrence order and accumulate in input order, so double SUMs
/// are bit-identical across strategies.  With operator spills armed
/// (WUW_MEM_MB) an oversized input is partitioned by key hash and spilled
/// as column images, and the same kernel runs on each partition read
/// back, with byte-identical output.  The scan is sequential: `pool` and
/// `cancel` keep the signature uniform with HashJoin.
Rows AggregateSigned(const Rows& input, const std::vector<std::string>& group_by,
                     const std::vector<AggSpec>& aggs, OperatorStats* stats,
                     ThreadPool* pool = nullptr,
                     const CancelToken* cancel = nullptr);

/// Name of the hidden per-group contributing-row counter column.
inline const char* kGroupCountColumn = "__count";

}  // namespace wuw

#endif  // WUW_ALGEBRA_AGGREGATE_H_
