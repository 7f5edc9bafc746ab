#include "obs/explain.h"

#include <cstdio>

#include "exec/executor.h"
#include "exec/warehouse.h"
#include "parallel/thread_pool.h"
#include "plan/subplan_cache.h"

namespace wuw {
namespace obs {

namespace {

std::string FormatEstRows(double est) {
  if (est < 0) return "est=?";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "est=%.0f", est);
  return buf;
}

std::string FormatMeasuredRows(const PlanNodeObservation& node) {
  std::string out = "rows=-";
  if (node.measured_rows >= 0) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "rows=%lld",
                  static_cast<long long>(node.measured_rows));
    out = buf;
  }
  switch (node.provenance) {
    case Provenance::kComputed: break;
    case Provenance::kCached: out += " (cached)"; break;
    case Provenance::kIndex: out += " (index)"; break;
    case Provenance::kSkipped: out += " (skipped)"; break;
  }
  return out;
}

/// Prints `id`'s subtree.  A shared node (num_uses >= 2) renders its
/// subtree only on first visit; later parents print a back-reference so
/// the sharing is visible without duplicating whole trees.
void PrintSubtree(const CompPlanObservation& comp, int32_t id, int indent,
                  std::vector<char>* printed, std::string* out) {
  const PlanNodeObservation& node = comp.nodes[id];
  out->append(static_cast<size_t>(indent) * 2, ' ');
  char buf[32];
  std::snprintf(buf, sizeof(buf), "#%d ", node.id);
  *out += buf;
  *out += node.label;
  *out += "  " + FormatEstRows(node.est_rows);
  *out += " " + FormatMeasuredRows(node);
  if (node.num_uses >= 2) {
    std::snprintf(buf, sizeof(buf), "  [shared x%d]", node.num_uses);
    *out += buf;
  }
  if (!node.cacheable) *out += "  [volatile]";
  if ((*printed)[id]) {
    *out += "  (see above)\n";
    return;
  }
  (*printed)[id] = 1;
  *out += "\n";
  for (int32_t child : node.children) {
    PrintSubtree(comp, child, indent + 1, printed, out);
  }
}

}  // namespace

std::string ExplainReport::ToString() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "EXPLAIN strategy: %zu steps\n",
                steps.size());
  out += line;
  for (size_t i = 0; i < steps.size(); ++i) {
    std::snprintf(line, sizeof(line), "  step %2zu: %-44s work=%lld\n", i + 1,
                  steps[i].expression.c_str(),
                  static_cast<long long>(steps[i].linear_work));
    out += line;
  }
  std::snprintf(line, sizeof(line), "  total linear work: %lld\n",
                static_cast<long long>(total_linear_work));
  out += line;

  for (const CompPlanObservation& comp : comps) {
    std::snprintf(line, sizeof(line), "\nstep %lld: %s  [%lld terms]\n",
                  static_cast<long long>(comp.step), comp.expression.c_str(),
                  static_cast<long long>(comp.num_terms));
    out += line;
    std::vector<char> printed(comp.nodes.size(), 0);
    for (size_t t = 0; t < comp.term_roots.size(); ++t) {
      std::snprintf(line, sizeof(line), "  term %zu:\n", t + 1);
      out += line;
      PrintSubtree(comp, comp.term_roots[t], /*indent=*/2, &printed, &out);
    }
  }
  return out;
}

ExplainReport ExplainStrategy(const Warehouse& warehouse,
                              const Strategy& strategy,
                              const ExplainOptions& options) {
  ExplainReport report;

  // Private, fully sequential replay: one-thread pool, cloned state, and —
  // when requested — a scratch cache, so nothing the caller owns changes
  // and the observations are deterministic.
  Warehouse clone = warehouse.Clone();
  ThreadPool sequential(1);
  SubplanCache scratch(SubplanCacheOptions{options.cache_budget});

  PlanObserver observer;
  observer.on_comp = [&report](CompPlanObservation observation) {
    report.comps.push_back(std::move(observation));
  };

  ExecutorOptions exec_options;
  // The caller's real run already validated (or will); a diagnostic replay
  // must not abort the process on a strategy the caller chose to inspect.
  exec_options.validate = false;
  exec_options.skip_empty_delta_terms = options.skip_empty_delta_terms;
  exec_options.simplify_empty_deltas = options.simplify_empty_deltas;
  exec_options.pool = &sequential;
  if (options.with_subplan_cache) exec_options.subplan_cache = &scratch;
  exec_options.plan_observer = &observer;

  ExecutionReport run = Executor(&clone, exec_options).Execute(strategy);
  report.steps.reserve(run.per_expression.size());
  for (const ExpressionReport& er : run.per_expression) {
    report.steps.push_back(
        ExplainStep{er.expression.ToString(), er.linear_work});
  }
  report.total_linear_work = run.total_linear_work;
  return report;
}

}  // namespace obs
}  // namespace wuw
