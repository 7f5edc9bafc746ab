// Equi hash join over signed multisets.
//
// Multiplicities multiply: joining a -2-weighted delta row with a
// 3-weighted table row yields a -6-weighted output row, which is exactly
// the counting semantics incremental view maintenance requires.
#ifndef WUW_ALGEBRA_HASH_JOIN_H_
#define WUW_ALGEBRA_HASH_JOIN_H_

#include <string>
#include <vector>

#include "algebra/operator_stats.h"
#include "algebra/rows.h"

namespace wuw {

class CancelToken;
class ThreadPool;

/// A conjunctive equi-join condition: left.key[i] == right.key[i] for all i.
struct JoinKeys {
  std::vector<std::string> left_columns;
  std::vector<std::string> right_columns;
};

/// Hash join (build on `right`, probe with `left`) through the vectorized
/// kernel (algebra/vectorized.h).  The output keeps the columns of the
/// concatenation left ++ right at positions `columns` (ascending; null
/// keeps them all); callers guarantee column-name uniqueness (view binding
/// qualifies ambiguous names before joining).
///
/// With a pool (and a large enough input) the build is radix-partitioned
/// by key hash and the probe runs morsel-parallel with per-morsel output
/// buffers merged in morsel order — output rows, row ORDER, and stats are
/// byte-identical to the sequential kernel at every pool size.  A non-null
/// `cancel` token is checked at morsel boundaries.  With operator spills
/// armed (WUW_MEM_MB) an oversized build side is never hashed: the kernel
/// hashes the probe side instead when it fits (vec::HashedSide::kLeft),
/// else both sides partition by key hash and spill as column images, and
/// the same kernel joins one partition at a time (algebra/spill_util.h) —
/// with the same byte-identical output.
Rows HashJoin(const Rows& left, const Rows& right, const JoinKeys& keys,
              OperatorStats* stats, ThreadPool* pool = nullptr,
              const CancelToken* cancel = nullptr,
              const std::vector<size_t>* columns = nullptr);

/// Plan-node kernel form of HashJoin (uniform Run(inputs, stats, pool)
/// signature; see plan/plan_node.h).
struct HashJoinKernel {
  JoinKeys keys;
  /// Positions in left ++ right of the columns the node emits (ascending).
  std::vector<size_t> columns;

  /// inputs = {left, right}.
  Rows Run(const std::vector<const Rows*>& inputs, OperatorStats* stats,
           ThreadPool* pool = nullptr,
           const CancelToken* cancel = nullptr) const;
};

}  // namespace wuw

#endif  // WUW_ALGEBRA_HASH_JOIN_H_
