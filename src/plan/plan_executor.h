// Executes a PlanDag with two layers of result reuse:
//
//  1. Intra-DAG memoization: nodes with more than one parent (the common
//     join prefixes CSE discovered across a Comp's terms) are materialized
//     once by PrepareShared and served from an id-indexed memo afterwards.
//  2. Cross-DAG caching: cacheable interior nodes consult the SubplanCache
//     by fingerprint, so later expressions of the same stage — or later
//     strategy runs over clones of the same state — reuse results computed
//     under a different DAG entirely.  Leaf scans never touch the cache.
//
// Both layers are attached iff a SubplanCache is supplied.  With a null
// cache the executor re-evaluates each term eagerly, which is what the
// paper-fidelity experiment tables run.
//
// A join whose subtree reads a delta evaluates its delta side first.  If
// that side is empty the join is empty and the other side never runs
// (plan.empty_operand_skips).  If the other side is an extent operand (a
// table scan, or a filter over one) whose table has a KeyIndex on exactly
// this join's key columns (storage/table.h), and the delta side has at
// most a quarter of the extent's rows, vec::IndexJoin probes the index
// with the delta side instead of scanning and hashing the extent
// (plan.index_joins).  Both routes return the rows, in the order, that
// the hash join would.
//
// Thread-safety: after PrepareShared returns, Execute only reads the memo,
// so concurrent term workers may call Execute on disjoint roots with their
// own OperatorStats (the SubplanCache locks internally).  With a ThreadPool
// attached, Execute additionally runs morsel-parallel kernels and evaluates
// a join's two sides concurrently (per-child stats fold in child order);
// PrepareShared — the only memo writer — always evaluates single-threaded.
#ifndef WUW_PLAN_PLAN_EXECUTOR_H_
#define WUW_PLAN_PLAN_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "algebra/operator_stats.h"
#include "obs/plan_observation.h"
#include "plan/plan_node.h"
#include "plan/subplan_cache.h"

namespace wuw {

class CancelToken;
class ThreadPool;
namespace vec {
struct IndexedExtent;
}  // namespace vec

/// Per-node execution record for EXPLAIN (obs/explain.h): rows the node
/// actually produced and where they came from.
struct PlanNodeRuntime {
  /// Rows produced, or -1 if the node never ran (short-circuited by a
  /// memo/cache hit above it, skipped for an empty operand, or its term
  /// was skipped).  An index-answered operand counts what the probes read
  /// (obs::PlanNodeObservation::measured_rows).
  int64_t rows = -1;
  obs::Provenance provenance = obs::Provenance::kComputed;
};

class PlanExecutor {
 public:
  /// `dag` must outlive the executor.  `cache` may be null (no sharing);
  /// `pool` may be null (fully sequential kernels).  A non-null `cancel`
  /// token is checked at every node entry and forwarded to the kernels'
  /// morsel loops; a fired token unwinds WindowCancelledError out of
  /// Execute/PrepareShared (see exec/window_budget.h).
  PlanExecutor(const PlanDag& dag, SubplanCache* cache,
               ThreadPool* pool = nullptr,
               const CancelToken* cancel = nullptr);

  /// Materializes every cacheable node with num_uses >= 2 that is reachable
  /// from `roots`, in topological (id) order, charging the work to `stats`.
  /// No-op when no cache is attached.  Call once, before any Execute.
  void PrepareShared(const std::vector<PlanNodeId>& roots,
                     OperatorStats* stats);

  /// Evaluates `root` and returns its result.  Results are shared and
  /// immutable; callers needing to mutate should copy (tuples are COW, so
  /// copies are cheap).
  std::shared_ptr<const Rows> Execute(PlanNodeId root, OperatorStats* stats);

  /// Attaches a per-node runtime sink (sized to dag.size() by the caller).
  /// Writes are unsynchronized, so only valid when evaluation is sequential
  /// (null pool or parallelism() == 1) — EXPLAIN's single-threaded replay.
  void set_runtime(std::vector<PlanNodeRuntime>* runtime) {
    runtime_ = runtime;
  }

 private:
  std::shared_ptr<const Rows> Eval(PlanNodeId id, OperatorStats* stats,
                                   bool memoize_shared);
  /// An interior node: its children, then its kernel.
  Rows EvalOperator(const PlanNode& n, OperatorStats* stats,
                    bool memoize_shared);
  /// A join with a delta side: that side first, then the empty-operand
  /// skip, the index route, or the other side and the hash join.
  Rows EvalDeltaFirstJoin(const PlanNode& n, OperatorStats* stats,
                          bool memoize_shared);
  /// True, with `extent` filled, when node `id` is an extent operand
  /// with a KeyIndex on its columns `keys` and at least 4 x `probe_rows`
  /// rows.
  bool IndexedOperand(PlanNodeId id, const std::vector<std::string>& keys,
                      size_t probe_rows, vec::IndexedExtent* extent) const;
  /// Records `root`'s subtree as not evaluated.
  void MarkSkipped(PlanNodeId root);

  const PlanDag& dag_;
  SubplanCache* cache_;
  ThreadPool* pool_;
  const CancelToken* cancel_;
  /// Per-node memo, filled only by PrepareShared (read-only afterwards).
  std::vector<std::shared_ptr<const Rows>> memo_;
  /// Optional EXPLAIN sink; see set_runtime.
  std::vector<PlanNodeRuntime>* runtime_ = nullptr;
};

}  // namespace wuw

#endif  // WUW_PLAN_PLAN_EXECUTOR_H_
