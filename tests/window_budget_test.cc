// Window-budget units and directed integration: CancelToken semantics and
// its disarmed zero-cost contract, budget-spec parsing, exact step-boundary
// pausing in sequential runs, stage-barrier pausing and torn-stage
// accounting in staged runs, continue-in-place resume, the
// paused-visibility guarantee (a paused warehouse equals a prefix-executed
// clone — never a half-installed view), the unlimited-budget zero-cost
// guard, and the policy scheduler's cross-window carryover with deferred
// batches.  The exhaustive pause-at-every-budget sweeps live in
// window_budget_property_test.cc.
#include "exec/window_budget.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "core/min_work.h"
#include "core/strategy_space.h"
#include "exec/executor.h"
#include "exec/recovery.h"
#include "obs/metrics.h"
#include "obs/plan_observation.h"
#include "parallel/parallel_strategy.h"
#include "policy/maintenance_policy.h"
#include "test_util.h"
#include "tpcd/change_generator.h"
#include "tpcd/tpcd_generator.h"
#include "view/comp_term.h"

namespace wuw {
namespace {

TEST(CancelTokenTest, DisarmedNeverFires) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.Poll());
  EXPECT_NO_THROW(token.Check());
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelTokenTest, RequestCancelFiresAndResetDisarms) {
  CancelToken token;
  token.RequestCancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.Poll());
  EXPECT_THROW(token.Check(), WindowCancelledError);
  token.Reset();
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.Check());
}

TEST(CancelTokenTest, CountdownFiresOnExactCheck) {
  CancelToken token;
  token.CancelAfterChecks(2);
  EXPECT_FALSE(token.Poll());  // 2 remaining
  EXPECT_FALSE(token.Poll());  // 1 remaining
  EXPECT_TRUE(token.Poll());   // fires
  EXPECT_TRUE(token.cancelled());
  EXPECT_THROW(token.Check(), WindowCancelledError);
}

TEST(CancelTokenTest, ExpiredDeadlineFires) {
  CancelToken token;
  token.ArmDeadline(0.0);  // already past
  EXPECT_TRUE(token.Poll());
  EXPECT_TRUE(token.cancelled());
}

TEST(WindowBudgetSpecTest, ParsesShorthandAndClauses) {
  WindowBudgetOptions o;
  EXPECT_EQ(ParseWindowBudgetSpec("2000", &o), "");
  EXPECT_EQ(o.work_units, 2000);
  EXPECT_EQ(o.deadline_seconds, 0);

  EXPECT_EQ(ParseWindowBudgetSpec("work=5;deadline_ms=50", &o), "");
  EXPECT_EQ(o.work_units, 5);
  EXPECT_DOUBLE_EQ(o.deadline_seconds, 0.05);

  EXPECT_EQ(ParseWindowBudgetSpec("deadline_s=1.5", &o), "");
  EXPECT_EQ(o.work_units, -1);
  EXPECT_DOUBLE_EQ(o.deadline_seconds, 1.5);

  EXPECT_EQ(ParseWindowBudgetSpec("work=0", &o), "");
  EXPECT_TRUE(o.limited());
}

TEST(WindowBudgetSpecTest, RejectsMalformedSpecs) {
  WindowBudgetOptions o;
  EXPECT_NE(ParseWindowBudgetSpec("", &o), "");            // no limit
  EXPECT_NE(ParseWindowBudgetSpec("work=-3", &o), "");     // negative
  EXPECT_NE(ParseWindowBudgetSpec("work=abc", &o), "");    // not a number
  EXPECT_NE(ParseWindowBudgetSpec("deadline_ms=0", &o), "");
  EXPECT_NE(ParseWindowBudgetSpec("frobnicate=1", &o), "");
  EXPECT_NE(ParseWindowBudgetSpec("2000;bogus", &o), "");
}

TEST(WindowBudgetTest, WorkAccountingAndWindowReopen) {
  WindowBudget budget(WindowBudgetOptions{/*work_units=*/10});
  EXPECT_TRUE(budget.limited());
  budget.OpenWindow();
  EXPECT_FALSE(budget.ShouldPause());
  budget.ChargeWork(6);
  EXPECT_FALSE(budget.work_exhausted());
  budget.ChargeWork(4);
  EXPECT_TRUE(budget.work_exhausted());
  EXPECT_TRUE(budget.ShouldPause());
  budget.OpenWindow();  // fresh window, fresh allowance
  EXPECT_EQ(budget.work_spent(), 0);
  EXPECT_FALSE(budget.ShouldPause());

  WindowBudget unlimited;
  EXPECT_FALSE(unlimited.limited());
  unlimited.OpenWindow();
  unlimited.ChargeWork(1 << 30);
  EXPECT_FALSE(unlimited.ShouldPause());
}

struct Bench {
  Warehouse warehouse;
  Catalog truth;
  Strategy strategy;
};

Bench MakeBench(uint64_t seed) {
  Warehouse w = testutil::MakeLoadedWarehouse(testutil::MakeFig10Vdag(), 50,
                                              seed);
  testutil::ApplyTripleChanges(&w, 0.25, 10, seed + 4);
  Catalog truth = testutil::GroundTruthAfterChanges(w);
  Strategy s = MinWork(w.vdag(), w.EstimatedSizes()).strategy;
  return Bench{std::move(w), std::move(truth), std::move(s)};
}

/// Per-step cumulative linear work of an uninterrupted run — the exact
/// values ChargeWork accumulates, so `cum[k]` as a budget pauses after
/// step k+1.
std::vector<int64_t> CumulativeWork(const Bench& b) {
  Warehouse clone = b.warehouse.Clone();
  ExecutionReport report = Executor(&clone).Execute(b.strategy);
  std::vector<int64_t> cum;
  int64_t total = 0;
  for (const ExpressionReport& er : report.per_expression) {
    total += er.linear_work;
    cum.push_back(total);
  }
  return cum;
}

TEST(WindowBudgetExecutorTest, PausesAtExactStepBoundary) {
  Bench b = MakeBench(61);
  std::vector<int64_t> cum = CumulativeWork(b);
  ASSERT_GE(cum.size(), 3u);
  ASSERT_GT(cum[0], 0);

  Warehouse w = b.warehouse.Clone();
  WindowBudget budget(WindowBudgetOptions{/*work_units=*/cum[0]});
  ExecutorOptions options;
  options.budget = &budget;
  ExecutionReport report = Executor(&w, options).Execute(b.strategy);

  EXPECT_EQ(report.window_result, WindowResult::kPaused);
  EXPECT_EQ(report.steps_completed, 1);
  EXPECT_EQ(report.per_expression.size(), 1u);
  // The limiting budget forced journaling: the journal is the handle.
  EXPECT_TRUE(w.journal().begun());
  EXPECT_FALSE(w.journal().complete());
  EXPECT_EQ(w.journal().size(), 1);
  // The batch was not consumed.
  bool pending = false;
  for (const std::string& base : w.vdag().BaseViews()) {
    if (!w.base_delta(base).empty()) pending = true;
  }
  EXPECT_TRUE(pending);
}

TEST(WindowBudgetExecutorTest, ZeroWorkBudgetPausesBeforeFirstStep) {
  Bench b = MakeBench(67);
  Warehouse w = b.warehouse.Clone();
  WindowBudget budget(WindowBudgetOptions{/*work_units=*/0});
  ExecutorOptions options;
  options.budget = &budget;
  ExecutionReport report = Executor(&w, options).Execute(b.strategy);
  EXPECT_EQ(report.window_result, WindowResult::kPaused);
  EXPECT_EQ(report.steps_completed, 0);
  EXPECT_EQ(w.journal().size(), 0);
  EXPECT_TRUE(w.journal().begun());
}

TEST(WindowBudgetExecutorTest, ContinueInPlaceResumeConverges) {
  Bench b = MakeBench(71);
  std::vector<int64_t> cum = CumulativeWork(b);
  ASSERT_GE(cum.size(), 2u);

  Warehouse w = b.warehouse.Clone();
  WindowBudget budget(WindowBudgetOptions{cum[cum.size() / 2]});
  ExecutorOptions options;
  options.budget = &budget;
  ExecutionReport report = Executor(&w, options).Execute(b.strategy);
  ASSERT_EQ(report.window_result, WindowResult::kPaused);

  // Next window: unlimited, finishes in place.
  ExecutionReport resumed = ResumeStrategy(w.journal(), &w, ExecutorOptions{},
                                           ResumeMode::kContinueInPlace);
  EXPECT_EQ(resumed.window_result, WindowResult::kCompleted);
  EXPECT_EQ(resumed.steps_replayed, report.steps_completed);
  EXPECT_EQ(resumed.steps_replayed + resumed.steps_completed,
            static_cast<int64_t>(b.strategy.size()));
  ASSERT_TRUE(w.catalog().ContentsEqual(b.truth));
}

TEST(WindowBudgetExecutorTest, ChainedTinyWindowsAlwaysTerminate) {
  Bench b = MakeBench(73);
  Warehouse w = b.warehouse.Clone();
  // Zero-work windows: the opening window completes nothing, but every
  // resumed window is guaranteed >= 1 step, so the chain terminates in at
  // most |strategy| + 1 windows.
  WindowBudgetOptions tiny{/*work_units=*/0};
  {
    WindowBudget budget(tiny);
    ExecutorOptions options;
    options.budget = &budget;
    ASSERT_EQ(Executor(&w, options).Execute(b.strategy).window_result,
              WindowResult::kPaused);
  }
  int64_t windows = 1;
  while (true) {
    WindowBudget budget(tiny);
    ExecutorOptions options;
    options.budget = &budget;
    ExecutionReport r = ResumeStrategy(w.journal(), &w, options,
                                       ResumeMode::kContinueInPlace);
    ++windows;
    ASSERT_LE(windows, static_cast<int64_t>(b.strategy.size()) + 1);
    if (r.window_result == WindowResult::kCompleted) break;
    EXPECT_GE(r.steps_completed, 1);
  }
  ASSERT_TRUE(w.catalog().ContentsEqual(b.truth));
}

TEST(WindowBudgetExecutorTest, PausedStateEqualsPrefixExecutedClone) {
  Bench b = MakeBench(79);
  std::vector<int64_t> cum = CumulativeWork(b);
  for (size_t k = 0; k + 1 < cum.size(); ++k) {
    // Budget cum[k] pauses after exactly k+1 steps only across a strictly
    // increasing work boundary (zero-work steps move the pause earlier).
    if (cum[k] <= (k >= 1 ? cum[k - 1] : 0)) continue;
    SCOPED_TRACE("pause after step " + std::to_string(k + 1));
    Warehouse paused = b.warehouse.Clone();
    WindowBudget budget(WindowBudgetOptions{cum[k]});
    ExecutorOptions options;
    options.budget = &budget;
    ExecutionReport report = Executor(&paused, options).Execute(b.strategy);
    ASSERT_EQ(report.window_result, WindowResult::kPaused);
    ASSERT_EQ(report.steps_completed, static_cast<int64_t>(k) + 1);

    // The paused warehouse must look exactly like a run of the first k+1
    // expressions and nothing else: no half-installed extent anywhere.
    Warehouse prefix = b.warehouse.Clone();
    std::vector<Expression> head(b.strategy.expressions().begin(),
                                 b.strategy.expressions().begin() + k + 1);
    ExecutorOptions prefix_options;
    prefix_options.validate = false;  // a prefix is not a complete strategy
    Executor(&prefix, prefix_options).Execute(Strategy(head));
    ASSERT_TRUE(paused.catalog().ContentsEqual(prefix.catalog()));
  }
}

TEST(WindowBudgetExecutorTest, ExpiredDeadlineAbandonsStepCleanly) {
  Bench b = MakeBench(83);
  Warehouse w = b.warehouse.Clone();
  // A deadline that is already past when the window opens: the first check
  // site inside step 0 throws, the step abandons before any mutation, and
  // the executor pauses with nothing journaled.
  WindowBudget budget(WindowBudgetOptions{-1, /*deadline_seconds=*/1e-9});
  ExecutorOptions options;
  options.budget = &budget;
  ExecutionReport report = Executor(&w, options).Execute(b.strategy);
  EXPECT_EQ(report.window_result, WindowResult::kPaused);
  EXPECT_EQ(report.steps_completed, 0);
  EXPECT_EQ(w.journal().size(), 0);
  ASSERT_TRUE(w.catalog().ContentsEqual(b.warehouse.catalog()));

  // The abandoned run resumes like any paused one.
  ExecutionReport resumed = ResumeStrategy(w.journal(), &w, ExecutorOptions{},
                                           ResumeMode::kContinueInPlace);
  EXPECT_EQ(resumed.window_result, WindowResult::kCompleted);
  ASSERT_TRUE(w.catalog().ContentsEqual(b.truth));
}

TEST(WindowBudgetExecutorTest, AbandonedStepLeavesNoPartialAccumulation) {
  Bench b = MakeBench(89);
  Warehouse w = b.warehouse.Clone();
  const Expression& first = b.strategy.expressions()[0];
  ASSERT_TRUE(first.is_comp());
  CancelToken token;
  token.CancelAfterChecks(0);  // fire on the very first check site
  CompEvalOptions comp_options = MakeCompEvalOptions(
      &w, nullptr, false, 1, nullptr, nullptr, &token);
  EXPECT_THROW(
      ExecuteExpression(&w, first, comp_options, nullptr, nullptr, 0),
      WindowCancelledError);
  // Every check site precedes the step's first mutation: the warehouse is
  // untouched, so re-executing the step later is coherent.
  ASSERT_TRUE(w.catalog().ContentsEqual(b.warehouse.catalog()));
  ExpressionReport er =
      ExecuteExpression(&w, first, MakeCompEvalOptions(&w, nullptr, false),
                        nullptr, nullptr, 0);
  EXPECT_GT(er.linear_work, 0);
}

TEST(ParallelExecutorBudgetTest, PausesAtStageBarrierAndResumes) {
  Bench b = MakeBench(97);
  ParallelStrategy staged = ParallelizeStrategy(b.warehouse.vdag(),
                                                b.strategy);
  ASSERT_GE(staged.stages.size(), 2u);

  // First stage's linear work, from an unbudgeted staged run.
  int64_t stage0_work = 0;
  {
    Warehouse clone = b.warehouse.Clone();
    ExecutorOptions options;
    options.workers = 3;
    ExecutionReport r = Executor(&clone, options).Execute(staged);
    for (size_t i = 0; i < staged.stages[0].size(); ++i) {
      stage0_work += r.per_expression[i].linear_work;
    }
  }
  ASSERT_GT(stage0_work, 0);

  Warehouse w = b.warehouse.Clone();
  WindowBudget budget(WindowBudgetOptions{stage0_work});
  ExecutorOptions options;
  options.workers = 3;
  options.budget = &budget;
  ExecutionReport report = Executor(&w, options).Execute(staged);
  EXPECT_EQ(report.window_result, WindowResult::kPaused);
  EXPECT_EQ(report.steps_completed,
            static_cast<int64_t>(staged.stages[0].size()));
  EXPECT_TRUE(w.journal().begun());
  EXPECT_FALSE(w.journal().complete());

  ExecutionReport resumed = ResumeStrategy(w.journal(), &w, ExecutorOptions{},
                                           ResumeMode::kContinueInPlace);
  EXPECT_EQ(resumed.window_result, WindowResult::kCompleted);
  ASSERT_TRUE(w.catalog().ContentsEqual(b.truth));
}

// A deadline that tears a stage: the steps that finished before it fired
// are journaled AND reported, so the report, the budget charge and the
// journal agree.
TEST(ParallelExecutorBudgetTest, TornStageReportsEveryJournaledStep) {
  // Two derived views over overlapping bases: their dual-stage Comps do
  // not conflict, so they share a stage.
  Vdag vdag;
  for (const char* base : {"A", "B", "C"}) {
    vdag.AddBaseView(base, testutil::TripleSchema(base));
  }
  vdag.AddDerivedView(testutil::SpjTripleView("V4", {"A", "B"}));
  vdag.AddDerivedView(testutil::SpjTripleView("V5", {"B", "C"}));
  Warehouse w = testutil::MakeLoadedWarehouse(std::move(vdag), 50, 101);
  testutil::ApplyTripleChanges(&w, 0.25, 10, 105);
  Catalog truth = testutil::GroundTruthAfterChanges(w);
  ParallelStrategy staged =
      ParallelizeStrategy(w.vdag(), MakeDualStageVdagStrategy(w.vdag()));
  // The first stage with two Comps: cancelling once its first Comp
  // finishes tears it before the second.
  int64_t stage_begin = 0;
  int64_t stage_end = 0;
  int64_t tear_step = 0;  // 1-based, as plan observations number steps
  for (const std::vector<Expression>& stage : staged.stages) {
    stage_begin = stage_end;
    stage_end += static_cast<int64_t>(stage.size());
    std::vector<int64_t> comps;
    for (int64_t i = stage_begin; i < stage_end; ++i) {
      if (stage[i - stage_begin].is_comp()) comps.push_back(i);
    }
    if (comps.size() >= 2) {
      tear_step = comps[0] + 1;
      break;
    }
  }
  ASSERT_GT(tear_step, 0);

  // Limiting (so the run journals and pauses) but never exhausted.
  WindowBudget budget(WindowBudgetOptions{int64_t{1} << 40});
  obs::PlanObserver observer;
  observer.on_comp = [&](obs::CompPlanObservation o) {
    if (o.step == tear_step) budget.token()->RequestCancel();
  };
  ExecutorOptions options;
  options.budget = &budget;
  options.plan_observer = &observer;  // one expression at a time per stage
  ExecutionReport report = Executor(&w, options).Execute(staged);

  EXPECT_EQ(report.window_result, WindowResult::kPaused);
  EXPECT_GT(report.steps_completed, stage_begin);
  EXPECT_LT(report.steps_completed, stage_end);
  EXPECT_EQ(report.steps_completed, w.journal().size());
  EXPECT_EQ(static_cast<int64_t>(report.per_expression.size()),
            report.steps_completed);
  int64_t work = 0;
  for (const ExpressionReport& er : report.per_expression) {
    work += er.linear_work;
  }
  EXPECT_EQ(report.total_linear_work, work);
  EXPECT_EQ(budget.work_spent(), work);

  ExecutionReport resumed = ResumeStrategy(w.journal(), &w, ExecutorOptions{},
                                           ResumeMode::kContinueInPlace);
  EXPECT_EQ(resumed.window_result, WindowResult::kCompleted);
  EXPECT_EQ(resumed.steps_replayed, report.steps_completed);
  ASSERT_TRUE(w.catalog().ContentsEqual(truth));
}

class ZeroCostGuardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics_were_armed_ = obs::MetricsArmed();
    obs::ArmMetrics();
  }
  void TearDown() override {
    obs::ResetMetrics();
    if (!metrics_were_armed_) obs::DisarmMetrics();
  }
  bool metrics_were_armed_ = false;
};

// The zero-cost guard: an UNLIMITED budget is pure accounting.  Rows,
// OperatorStats, and the kWork counter snapshot must be byte-identical to
// a run with no budget at all (in particular, an unlimited budget must not
// force journaling on — "journal.entries" is a kWork counter).
TEST_F(ZeroCostGuardTest, UnlimitedBudgetChangesNothing) {
  if (EnvWindowBudget() != nullptr) {
    GTEST_SKIP() << "WUW_WINDOW_BUDGET armed: the no-budget baseline would "
                    "auto-split, which is exactly the difference this test "
                    "asserts away";
  }
  Bench b = MakeBench(103);

  obs::ResetMetrics();
  Warehouse baseline = b.warehouse.Clone();
  ExecutionReport baseline_report = Executor(&baseline).Execute(b.strategy);
  obs::MetricsSnapshot baseline_work =
      obs::SnapshotMetrics(obs::Mask(obs::MetricClass::kWork));

  obs::ResetMetrics();
  Warehouse budgeted = b.warehouse.Clone();
  WindowBudget unlimited;  // default options: no limit
  ExecutorOptions options;
  options.budget = &unlimited;
  ExecutionReport budgeted_report = Executor(&budgeted, options)
                                        .Execute(b.strategy);
  obs::MetricsSnapshot budgeted_work =
      obs::SnapshotMetrics(obs::Mask(obs::MetricClass::kWork));

  EXPECT_EQ(budgeted_report.window_result, WindowResult::kCompleted);
  EXPECT_EQ(budgeted_report.windows, 1);
  EXPECT_FALSE(budgeted.journal().begun());
  EXPECT_EQ(baseline_report.total_linear_work,
            budgeted_report.total_linear_work);
  EXPECT_TRUE(baseline_report.totals == budgeted_report.totals);
  EXPECT_EQ(baseline_work, budgeted_work)
      << "baseline:\n" << baseline_work.ToString()
      << "budgeted:\n" << budgeted_work.ToString();
  ASSERT_TRUE(budgeted.catalog().ContentsEqual(b.truth));
  ASSERT_TRUE(baseline.catalog().ContentsEqual(b.truth));
}

TEST(PolicySchedulerBudgetTest, CarryoverAcrossWindowsWithDeferredBatches) {
  Warehouse w = testutil::MakeLoadedWarehouse(testutil::MakeFig10Vdag(), 50,
                                              /*seed=*/107);
  // Mirror for the ground truth: both batches merged, then recomputed.
  Warehouse mirror = w.Clone();

  // Batch 1: deletions + inserts drawn from the current state.
  std::unordered_map<std::string, DeltaRelation> batch1;
  {
    uint64_t s = 113;
    for (const std::string& base : w.vdag().BaseViews()) {
      const Table& table = *w.catalog().MustGetTable(base);
      DeltaRelation delta = tpcd::MakeDeletionDelta(table, 0.2, ++s);
      tpcd::Rng rng(s ^ 0x5EED);
      for (int64_t i = 0; i < 6; ++i) {
        int64_t k = 2000000 + rng.Range(1, 10000);
        delta.Add(Tuple({Value::Int64(k), Value::Int64(rng.Range(0, 99)),
                         Value::Int64(k % 5)}),
                  1);
      }
      batch1.emplace(base, std::move(delta));
    }
  }
  // Batch 2: insert-only, coherent regardless of what batch 1 installed.
  std::unordered_map<std::string, DeltaRelation> batch2;
  {
    tpcd::Rng rng(131);
    for (const std::string& base : w.vdag().BaseViews()) {
      DeltaRelation delta(w.vdag().OutputSchema(base));
      for (int64_t i = 0; i < 5; ++i) {
        int64_t k = 3000000 + rng.Range(1, 10000);
        delta.Add(Tuple({Value::Int64(k), Value::Int64(rng.Range(0, 99)),
                         Value::Int64(k % 5)}),
                  1);
      }
      batch2.emplace(base, std::move(delta));
    }
  }
  for (const auto& [view, delta] : batch1) mirror.MergeBaseDelta(view, delta);
  for (const auto& [view, delta] : batch2) mirror.MergeBaseDelta(view, delta);
  Catalog truth = testutil::GroundTruthAfterChanges(mirror);

  PolicyOptions policy = PolicyOptions::Immediate();
  policy.window_budget.work_units = 1;  // every window pauses almost at once
  MaintenanceScheduler scheduler(&w, policy);

  scheduler.OnBatch(batch1);
  EXPECT_TRUE(scheduler.window_paused());
  EXPECT_GE(scheduler.report().windows_paused, 1);

  // Arrives mid-run: deferred, and this period's window continues the
  // paused strategy instead.
  scheduler.OnBatch(batch2);
  scheduler.Flush();

  EXPECT_FALSE(scheduler.window_paused());
  EXPECT_GT(scheduler.report().carryover_work, 0);
  EXPECT_GT(scheduler.report().windows_run, 2);
  EXPECT_EQ(scheduler.report().batches_received, 2);
  ASSERT_TRUE(w.catalog().ContentsEqual(truth));
}

// An unbudgeted scheduler must behave exactly as before the budget knob
// existed.
TEST(PolicySchedulerBudgetTest, UnlimitedBudgetNeverPauses) {
  Warehouse w = testutil::MakeLoadedWarehouse(testutil::MakeFig3Vdag(), 40,
                                              /*seed=*/137);
  Warehouse mirror = w.Clone();
  std::unordered_map<std::string, DeltaRelation> batch;
  tpcd::Rng rng(139);
  for (const std::string& base : w.vdag().BaseViews()) {
    DeltaRelation delta(w.vdag().OutputSchema(base));
    for (int64_t i = 0; i < 4; ++i) {
      int64_t k = 4000000 + rng.Range(1, 1000);
      delta.Add(Tuple({Value::Int64(k), Value::Int64(rng.Range(0, 99)),
                       Value::Int64(k % 5)}),
                1);
    }
    batch.emplace(base, std::move(delta));
  }
  for (const auto& [view, delta] : batch) mirror.MergeBaseDelta(view, delta);
  Catalog truth = testutil::GroundTruthAfterChanges(mirror);

  MaintenanceScheduler scheduler(&w, PolicyOptions::Immediate());
  EXPECT_TRUE(scheduler.OnBatch(batch));
  EXPECT_FALSE(scheduler.window_paused());
  EXPECT_EQ(scheduler.report().windows_paused, 0);
  EXPECT_EQ(scheduler.report().carryover_work, 0);
  ASSERT_TRUE(w.catalog().ContentsEqual(truth));
}

}  // namespace
}  // namespace wuw
