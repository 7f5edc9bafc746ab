// Experiment 7 (system extension): the cost of SHRINKING the update
// window by splitting it.  The paper's premise is a warehouse that is
// offline while maintenance runs; window budgets bound each outage
// instead, pausing the strategy at a step boundary and carrying the rest
// into later windows (exec/window_budget.h).  This bench measures what
// that costs: one run of the MinWork plan split into k windows via a
// work budget of ceil(total/k), against the uninterrupted baseline.
//
// Two baselines separate the overhead sources: a limiting budget forces
// journaling (that is what makes the pause durable), so "journal on,
// 1 window" isolates the journal's share from the pause/resume chain's.
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "core/min_work.h"
#include "exec/journal.h"
#include "exec/recovery.h"
#include "exec/window_budget.h"
#include "tpcd/change_generator.h"
#include "tpcd/tpcd_views.h"

int main() {
  using namespace wuw;
  bench::BenchEnv env = bench::FromEnv(/*default_scale_factor=*/0.02);
  bench::PrintHeader(
      "Experiment 7 (extension): k-way window splits under a work budget",
      "TPC-D SF=" + std::to_string(env.scale_factor) + ", 10% deletions");

  tpcd::GeneratorOptions options;
  options.scale_factor = env.scale_factor;
  options.seed = env.seed;
  Warehouse pristine = tpcd::MakeTpcdWarehouse(options, {"Q3", "Q5", "Q10"});
  tpcd::ApplyPaperChangeWorkload(&pristine, 0.10, 0.0, env.seed);
  Strategy plan = MinWork(pristine.vdag(), pristine.EstimatedSizes()).strategy;

  // Uninterrupted baselines (best of 3 each).
  ExecutionReport plain = bench::RunOnCloneBest(pristine, plan);
  ExecutorOptions journal_options;
  journal_options.journal = true;
  ExecutionReport journaled =
      bench::RunOnCloneBest(pristine, plan, 3, journal_options);
  const int64_t total_work = plain.total_linear_work;
  std::printf("  plan: %zu steps, linear work %lld\n", plan.size(),
              static_cast<long long>(total_work));
  std::printf("  %-26s %9.3fs\n", "baseline (no journal)",
              plain.total_seconds);
  std::printf("  %-26s %9.3fs  (+%.1f%%)\n\n", "baseline (journal on)",
              journaled.total_seconds,
              100.0 * (journaled.total_seconds / plain.total_seconds - 1.0));

  std::printf("  %6s | %8s | %10s | %10s | %9s | %8s\n", "k", "windows",
              "total", "vs plain", "carryover", "journal");
  for (int64_t k : {1, 2, 4, 8, 16}) {
    const int64_t budget_work = (total_work + k - 1) / k;
    double best_seconds = 1e30;
    int64_t windows = 0, carryover = 0, journal_bytes = 0;
    for (int rep = 0; rep < 3; ++rep) {
      Warehouse clone = pristine.Clone();
      double seconds = 0;
      int64_t run_windows = 1, run_carryover = 0;
      {
        WindowBudget budget(WindowBudgetOptions{budget_work});
        ExecutorOptions run_options;
        run_options.budget = &budget;
        ExecutionReport first = Executor(&clone, run_options).Execute(plan);
        seconds += first.total_seconds;
        if (first.window_result == WindowResult::kCompleted) {
          journal_bytes = static_cast<int64_t>(
              SerializeJournal(clone.journal()).size());
        }
        while (first.window_result == WindowResult::kPaused) {
          journal_bytes = std::max(
              journal_bytes, static_cast<int64_t>(
                                 SerializeJournal(clone.journal()).size()));
          WindowBudget next(WindowBudgetOptions{budget_work});
          ExecutorOptions resume_options;
          resume_options.budget = &next;
          ExecutionReport resumed =
              ResumeStrategy(clone.journal(), &clone, resume_options,
                             ResumeMode::kContinueInPlace);
          seconds += resumed.total_seconds;
          run_carryover += resumed.total_linear_work;
          ++run_windows;
          first.window_result = resumed.window_result;
        }
      }
      if (seconds < best_seconds) {
        best_seconds = seconds;
        windows = run_windows;
        carryover = run_carryover;
      }
    }
    std::printf("  %6lld | %8lld | %9.3fs | %+9.1f%% | %9lld | %6lldB\n",
                static_cast<long long>(k), static_cast<long long>(windows),
                best_seconds,
                100.0 * (best_seconds / plain.total_seconds - 1.0),
                static_cast<long long>(carryover),
                static_cast<long long>(journal_bytes));
  }
  std::printf(
      "\n  (k=1 vs \"journal on\" is the budget's bookkeeping overhead;\n"
      "   the growth with k is the pause/resume chain: one MinWork replan\n"
      "   is amortized away — resume replays the journal, it does not\n"
      "   replan — so the split cost is journal replay + per-window\n"
      "   executor setup.  Work budgets are analytic, so every row above\n"
      "   installs the bit-identical warehouse.)\n");
  return 0;
}
