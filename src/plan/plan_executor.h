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
// cache the executor degenerates to eager per-term re-evaluation with
// operator-for-operator identical OperatorStats to the pre-plan pipeline,
// which is what the paper-fidelity experiment tables run.
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
#include <vector>

#include "algebra/operator_stats.h"
#include "plan/plan_node.h"
#include "plan/subplan_cache.h"

namespace wuw {

class CancelToken;
class ThreadPool;

/// Per-node execution record for EXPLAIN (obs/explain.h): rows the node
/// actually produced and whether they came from the cross-DAG cache.
struct PlanNodeRuntime {
  /// Rows produced, or -1 if the node never ran (short-circuited by a
  /// memo/cache hit above it, or its term was skipped).
  int64_t rows = -1;
  bool from_cache = false;
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
