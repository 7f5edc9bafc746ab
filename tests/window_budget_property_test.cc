// The window-budget invariant, exhaustively: pausing at ANY work budget
// and resuming across however many windows it takes must reach the same
// warehouse as the uninterrupted run — bit-identical (ContentsEqual
// against the recompute ground truth) — at every thread-pool size and
// every subplan-cache budget.  Three sweeps:
//
//   1. Sequential: for every step boundary k, a budget that pauses after
//      exactly k steps, then one unlimited resume window.
//   2. Sequential chained: a zero-work budget in every window, so the run
//      needs |strategy| + 1 windows (each resume completes >= 1 step).
//   3. Stage-parallel: for every stage boundary, a budget that pauses at
//      that barrier, then one unlimited resume.
//
// Honors WUW_SEED (failures print the repro line).  Labeled fault;property.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/min_work.h"
#include "exec/executor.h"
#include "exec/recovery.h"
#include "exec/window_budget.h"
#include "parallel/parallel_strategy.h"
#include "parallel/thread_pool.h"
#include "plan/subplan_cache.h"
#include "test_util.h"
#include "tpcd/tpcd_generator.h"

namespace wuw {
namespace {

enum class Budget { kNone, kZero, kDefault };
const Budget kBudgets[] = {Budget::kNone, Budget::kZero, Budget::kDefault};
const int kPoolSizes[] = {1, 2, 8};

std::string BudgetName(Budget b) {
  switch (b) {
    case Budget::kNone:
      return "none";
    case Budget::kZero:
      return "0";
    case Budget::kDefault:
      return "256MB";
  }
  return "?";
}

std::unique_ptr<SubplanCache> MakeCache(Budget b) {
  switch (b) {
    case Budget::kNone:
      return nullptr;
    case Budget::kZero:
      return std::make_unique<SubplanCache>(SubplanCacheOptions{0});
    case Budget::kDefault:
      return std::make_unique<SubplanCache>();
  }
  return nullptr;
}

struct Scenario {
  std::string name;
  Warehouse warehouse;
  Catalog truth;
  Strategy strategy;
};

Scenario MakeScenario(std::string name, Vdag vdag, int64_t base_rows,
                      double delete_fraction, int64_t insert_rows,
                      uint64_t seed) {
  Warehouse w = testutil::MakeLoadedWarehouse(std::move(vdag), base_rows,
                                              seed);
  testutil::ApplyTripleChanges(&w, delete_fraction, insert_rows, seed + 9);
  Catalog truth = testutil::GroundTruthAfterChanges(w);
  Strategy s = MinWork(w.vdag(), w.EstimatedSizes()).strategy;
  return Scenario{std::move(name), std::move(w), std::move(truth),
                  std::move(s)};
}

std::vector<Scenario> MakeScenarios(uint64_t seed) {
  std::vector<Scenario> out;
  out.push_back(MakeScenario("fig3", testutil::MakeFig3Vdag(), 50, 0.2, 8,
                             seed + 1));
  out.push_back(MakeScenario("fig10", testutil::MakeFig10Vdag(), 50, 0.25,
                             10, seed + 2));
  tpcd::Rng rng(seed + 3);
  out.push_back(MakeScenario("random", testutil::RandomVdag(&rng, 3, 2), 40,
                             0.25, 6, seed + 4));
  return out;
}

/// Cumulative per-step linear work of the uninterrupted run — `cum[k]` as
/// a work budget pauses after exactly k+1 steps (work is analytic, so the
/// values hold at every pool size and cache budget).
std::vector<int64_t> CumulativeWork(const Scenario& sc) {
  Warehouse clone = sc.warehouse.Clone();
  ExecutionReport report = Executor(&clone).Execute(sc.strategy);
  std::vector<int64_t> cum;
  int64_t total = 0;
  for (const ExpressionReport& er : report.per_expression) {
    total += er.linear_work;
    cum.push_back(total);
  }
  return cum;
}

TEST(WindowBudgetProperty, PauseAnywhereResumeEqualsUninterrupted) {
  const uint64_t seed = testutil::PropertySeed(211);
  SCOPED_TRACE(testutil::SeedTrace(seed));

  for (Scenario& sc : MakeScenarios(seed)) {
    SCOPED_TRACE("scenario " + sc.name);
    const std::vector<int64_t> cum = CumulativeWork(sc);
    const size_t n = cum.size();
    ASSERT_GE(n, 2u);

    for (int pool_size : kPoolSizes) {
      for (Budget cache_budget : kBudgets) {
        SCOPED_TRACE("pool=" + std::to_string(pool_size) +
                     " cache=" + BudgetName(cache_budget));
        // Pause after k = 0 .. n-1 steps (k = n never pauses).  A budget
        // of cum[k-1] pauses after exactly k steps only when the work
        // boundary is strictly increasing there — skip the (rare)
        // zero-work steps where the pause point is a step earlier.
        for (size_t k = 0; k < n; ++k) {
          const int64_t budget_work = k == 0 ? 0 : cum[k - 1];
          if (k >= 1 && budget_work <= (k >= 2 ? cum[k - 2] : 0)) continue;
          SCOPED_TRACE("pause after " + std::to_string(k) + " steps");
          Warehouse clone = sc.warehouse.Clone();
          ThreadPool pool(pool_size);
          std::unique_ptr<SubplanCache> cache = MakeCache(cache_budget);

          WindowBudget budget(WindowBudgetOptions{budget_work});
          ExecutorOptions options;
          options.pool = &pool;
          options.subplan_cache = cache.get();
          options.budget = &budget;
          ExecutionReport report =
              Executor(&clone, options).Execute(sc.strategy);
          ASSERT_EQ(report.window_result, WindowResult::kPaused);
          ASSERT_EQ(report.steps_completed, static_cast<int64_t>(k));
          ASSERT_TRUE(clone.journal().begun());
          ASSERT_FALSE(clone.journal().complete());

          ExecutorOptions resume_options;
          resume_options.pool = &pool;
          resume_options.subplan_cache = cache.get();
          ExecutionReport resumed =
              ResumeStrategy(clone.journal(), &clone, resume_options,
                             ResumeMode::kContinueInPlace);
          ASSERT_EQ(resumed.window_result, WindowResult::kCompleted);
          ASSERT_EQ(resumed.steps_replayed, static_cast<int64_t>(k));
          ASSERT_EQ(resumed.steps_completed, static_cast<int64_t>(n - k));
          ASSERT_TRUE(clone.catalog().ContentsEqual(sc.truth));
        }
      }
    }
  }
}

TEST(WindowBudgetProperty, ZeroWorkWindowChainsTerminateAndConverge) {
  const uint64_t seed = testutil::PropertySeed(223);
  SCOPED_TRACE(testutil::SeedTrace(seed));

  for (Scenario& sc : MakeScenarios(seed)) {
    SCOPED_TRACE("scenario " + sc.name);
    const size_t n = sc.strategy.size();
    for (int pool_size : kPoolSizes) {
      for (Budget cache_budget : kBudgets) {
        SCOPED_TRACE("pool=" + std::to_string(pool_size) +
                     " cache=" + BudgetName(cache_budget));
        Warehouse clone = sc.warehouse.Clone();
        ThreadPool pool(pool_size);
        std::unique_ptr<SubplanCache> cache = MakeCache(cache_budget);
        const WindowBudgetOptions tiny{/*work_units=*/0};

        {
          WindowBudget budget(tiny);
          ExecutorOptions options;
          options.pool = &pool;
          options.subplan_cache = cache.get();
          options.budget = &budget;
          ASSERT_EQ(Executor(&clone, options).Execute(sc.strategy)
                        .window_result,
                    WindowResult::kPaused);
        }
        int64_t windows = 1;
        while (true) {
          WindowBudget budget(tiny);
          ExecutorOptions options;
          options.pool = &pool;
          options.subplan_cache = cache.get();
          options.budget = &budget;
          ExecutionReport r = ResumeStrategy(clone.journal(), &clone, options,
                                             ResumeMode::kContinueInPlace);
          ++windows;
          ASSERT_LE(windows, static_cast<int64_t>(n) + 1)
              << "zero-work window chain failed to make progress";
          if (r.window_result == WindowResult::kCompleted) break;
          ASSERT_GE(r.steps_completed, 1);
        }
        ASSERT_TRUE(clone.catalog().ContentsEqual(sc.truth));
      }
    }
  }
}

TEST(WindowBudgetProperty, StageBarrierPauseResumeEqualsUninterrupted) {
  const uint64_t seed = testutil::PropertySeed(227);
  SCOPED_TRACE(testutil::SeedTrace(seed));

  for (Scenario& sc : MakeScenarios(seed)) {
    SCOPED_TRACE("scenario " + sc.name);
    ParallelStrategy staged = ParallelizeStrategy(sc.warehouse.vdag(),
                                                  sc.strategy);
    // Cumulative work per stage prefix, from one unbudgeted staged run.
    std::vector<int64_t> stage_cum;
    {
      Warehouse clone = sc.warehouse.Clone();
      ExecutorOptions options;
      options.workers = 2;
      ExecutionReport r = Executor(&clone, options).Execute(staged);
      size_t i = 0;
      int64_t total = 0;
      for (const std::vector<Expression>& stage : staged.stages) {
        for (size_t j = 0; j < stage.size(); ++j) {
          total += r.per_expression[i++].linear_work;
        }
        stage_cum.push_back(total);
      }
    }
    ASSERT_GE(stage_cum.size(), 1u);

    for (int pool_size : kPoolSizes) {
      SCOPED_TRACE("workers=" + std::to_string(pool_size));
      // Pause at every stage barrier (after stages 0 .. last-1).
      size_t completed_steps = 0;
      for (size_t s = 0; s + 1 < staged.stages.size(); ++s) {
        completed_steps += staged.stages[s].size();
        // Exact stage boundary needs strictly increasing cumulative work.
        if (stage_cum[s] <= (s >= 1 ? stage_cum[s - 1] : 0)) continue;
        SCOPED_TRACE("pause after stage " + std::to_string(s));
        Warehouse clone = sc.warehouse.Clone();
        ThreadPool pool(pool_size);

        WindowBudget budget(WindowBudgetOptions{stage_cum[s]});
        ExecutorOptions options;
        options.workers = pool_size;
        options.pool = &pool;
        options.budget = &budget;
        ExecutionReport report = Executor(&clone, options).Execute(staged);
        ASSERT_EQ(report.window_result, WindowResult::kPaused);
        ASSERT_EQ(report.steps_completed,
                  static_cast<int64_t>(completed_steps));

        ExecutorOptions resume_options;
        resume_options.pool = &pool;
        ExecutionReport resumed =
            ResumeStrategy(clone.journal(), &clone, resume_options,
                           ResumeMode::kContinueInPlace);
        ASSERT_EQ(resumed.window_result, WindowResult::kCompleted);
        ASSERT_TRUE(clone.catalog().ContentsEqual(sc.truth));
      }
    }
  }
}

}  // namespace
}  // namespace wuw
