// Per-plan-node observations for the EXPLAIN strategy report.
//
// EvalComp lowers a Comp expression's terms into one interned PlanDag; when
// a PlanObserver is attached (CompEvalOptions::observer), it receives — per
// expression — a snapshot of every DAG node with its estimated output rows
// (stats/plan_cardinality.h) alongside the rows the executor actually
// produced for it.  obs/explain.h assembles these into the EXPLAIN report;
// nothing here depends on the plan layer, so leaf modules can include it
// freely.
//
// Measured rows are only meaningful when evaluation is sequential: an
// attached observer runs each Comp's terms one at a time and each stage
// one expression at a time, and ExplainStrategy runs on a cloned warehouse
// with a single-thread pool.
#ifndef WUW_OBS_PLAN_OBSERVATION_H_
#define WUW_OBS_PLAN_OBSERVATION_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace wuw {
namespace obs {

/// One plan node's estimate-vs-measurement record.
struct PlanNodeObservation {
  /// Node id within its DAG (ids are a topological order).
  int32_t id = 0;
  /// Ids of the node's children within the same DAG.
  std::vector<int32_t> children;
  /// Operator label, e.g. "HashJoin", "ScanDelta(Orders)".
  std::string label;
  /// Parent-edge count across the whole DAG; >= 2 marks a shared subplan
  /// (the memoization payoff EXPLAIN annotates).
  int num_uses = 0;
  /// False iff the subtree reads caller-owned rows (never cached).
  bool cacheable = true;
  /// Estimated output cardinality (System-R composition); < 0 when the DAG
  /// was not annotated (no cache attached and estimates not requested).
  double est_rows = -1;
  /// Rows actually produced, or -1 if the node never ran this evaluation
  /// (skipped term, or short-circuited by a subplan-cache hit).
  int64_t measured_rows = -1;
  /// True when the result came from the cross-expression SubplanCache
  /// rather than being computed.
  bool from_cache = false;
};

/// All observations for one evaluated Comp expression.
struct CompPlanObservation {
  /// The expression as rendered by the strategy ("Comp(V, {A,B})").
  std::string expression;
  /// 1-based strategy step the expression belongs to (0 = unknown).
  int64_t step = 0;
  /// Number of maintenance terms the DAG covers (2^|Y|-1 before skipping).
  int64_t num_terms = 0;
  /// Every DAG node in id (topological) order.
  std::vector<PlanNodeObservation> nodes;
  /// Root node id per term slot, in term-mask order.
  std::vector<int32_t> term_roots;
};

/// Sink for per-expression plan observations.  The callback runs on the
/// evaluating thread, once per EvalComp, after the expression finishes.
struct PlanObserver {
  std::function<void(CompPlanObservation)> on_comp;
};

}  // namespace obs
}  // namespace wuw

#endif  // WUW_OBS_PLAN_OBSERVATION_H_
