// Vectorized (batch-at-a-time) kernels over the columnar core: the one
// implementation of Filter, Project, HashJoin and AggregateSigned, in
// memory and spilled.  Filter, Project and AggregateSigned are defined in
// vectorized.cc; HashJoin (algebra/hash_join.cc) routes through
// vec::TryHashJoin, whose HashedSide::kLeft mode is its probe-side route.
// Under WUW_MEM_MB the join's and the aggregate's grace routes run these
// same kernels on partitions spilled as column images
// (algebra/spill_util.h).
//
// Every input and output is a column image (Rows, algebra/rows.h); no
// kernel builds a tuple.  Filter and TryHashJoin keep only the columns
// the caller asks for.  Expressions are typed by the binder's rules
// (expr/evaluator.h), which ValidateDefinition applies to user input
// before anything runs, so ill-typed arithmetic or a SUM over strings
// reaches a kernel only through a bug, and aborts there.
//
// Filter narrows a selection vector one top-level conjunct at a time,
// with branch-free compaction.  A `column op constant` conjunct (either
// orientation) runs as one typed loop off the column array, with the op
// resolved and a string constant turned into a per-code pass table once
// per call, and the null test only for a column that has nulls; every
// other conjunct runs through the expression evaluator over the surviving
// rows only.  Semantics are BoundExpr::EvalBool's (expr/evaluator.h):
// numerics compare by double image with kLe/kGe as negated kGt/kLt (a NaN
// passes them), a NULL operand compares false, and string-vs-numeric
// compares by type rank.
//
// Output order, which the grace routes reproduce: filter and project keep
// input order (project emits one row per input row; filter drops zero
// multiplicities, as the join drops zero products); the join emits probe
// (left) rows ascending and, per probe row, its build matches in
// descending build index; the aggregate emits groups in first-occurrence
// order, their key cells taken from each group's first row.
// OperatorStats: rows_scanned sums |multiplicity| over every input row;
// rows_produced sums |multiplicity| over passing rows (filter, project),
// |probe x build| over key-equal pairs (join), or counts emitted groups
// (aggregate); the join adds one hash_probes per probe row and one
// hash_build_rows per build row.  None of this depends on the pool: the
// join's radix-partitioned parallel build and morsel probe reproduce the
// sequential layout exactly, so rows, order and stats are identical at
// every WUW_THREADS value.
//
// Bit-identity argument.  The kernels hash keys with an internal mixer
// (per-code dictionary hashes for strings, the normalized double image for
// numerics — matching Value equality exactly), deliberately NOT
// Value::Hash.  No output order depends on the hash function: equal keys
// share a full hash under ANY consistent hash, hence one bucket, and the
// chains walk rows in index order.  Double SUMs accumulate per group in
// input order.  Batches (algebra/row_batch.h) only chunk loops.
#ifndef WUW_ALGEBRA_VECTORIZED_H_
#define WUW_ALGEBRA_VECTORIZED_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "algebra/operator_stats.h"
#include "algebra/rows.h"

namespace wuw {

class CancelToken;
class ThreadPool;

namespace vec {

/// The side a hash join builds its table over.
enum class HashedSide {
  /// The build (right) side; the left side probes it.
  kRight,
  /// The probe (left) side, with the right side streamed past it: the
  /// WUW_MEM_MB route for a build side too large to hash.  Sequential.
  /// The sequential kRight kernel also takes it when the left side is at
  /// most a quarter of the right.
  kLeft,
};

/// Vectorized hash join over pre-hashed key columns; runs the
/// radix-partitioned parallel build when the pool and input sizes warrant
/// it.  `left_idx` / `right_idx` are resolved key column positions.  Rows,
/// order, stats and kEngine counters are the same for either `hashed`.
/// The output keeps the columns of left ++ right at positions `columns`
/// (ascending; null keeps them all).  `probe_rows`, when non-null,
/// receives the left row of every output row.
Rows TryHashJoin(const Rows& left, const Rows& right,
                 const std::vector<size_t>& left_idx,
                 const std::vector<size_t>& right_idx, OperatorStats* stats,
                 ThreadPool* pool, const CancelToken* cancel,
                 HashedSide hashed = HashedSide::kRight,
                 const std::vector<size_t>* columns = nullptr,
                 std::vector<uint32_t>* probe_rows = nullptr);

}  // namespace vec
}  // namespace wuw

#endif  // WUW_ALGEBRA_VECTORIZED_H_
