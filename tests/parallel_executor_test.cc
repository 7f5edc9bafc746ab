#include <gtest/gtest.h>

#include "core/min_work.h"
#include "core/strategy_space.h"
#include "exec/executor.h"
#include "obs/plan_observation.h"
#include "parallel/flatten.h"
#include "parallel/parallel_strategy.h"
#include "plan/subplan_cache.h"
#include "test_util.h"
#include "tpcd/change_generator.h"
#include "tpcd/tpcd_views.h"

namespace wuw {
namespace {

using testutil::ApplyTripleChanges;
using testutil::GroundTruthAfterChanges;
using testutil::MakeLoadedWarehouse;

class ParallelExecutorTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelExecutorTest, DualStageStagesReachGroundTruth) {
  Warehouse w = MakeLoadedWarehouse(testutil::MakeFig3Vdag(), 80, 7);
  ApplyTripleChanges(&w, 0.2, 10, 11);
  Catalog truth = GroundTruthAfterChanges(w);

  ParallelStrategy stages =
      ParallelizeStrategy(w.vdag(), MakeDualStageVdagStrategy(w.vdag()));
  ExecutorOptions options;
  options.workers = GetParam();
  Executor executor(&w, options);
  ExecutionReport report = executor.Execute(stages);

  EXPECT_TRUE(w.catalog().ContentsEqual(truth));
  EXPECT_EQ(report.per_expression.size(), stages.num_expressions());
  EXPECT_EQ(report.stage_seconds.size(), stages.stages.size());
}

TEST_P(ParallelExecutorTest, MinWorkStagesReachGroundTruth) {
  Warehouse w = MakeLoadedWarehouse(testutil::MakeFig10Vdag(), 80, 13);
  ApplyTripleChanges(&w, 0.15, 8, 17);
  Catalog truth = GroundTruthAfterChanges(w);

  Strategy sequential = MinWork(w.vdag(), w.EstimatedSizes()).strategy;
  ParallelStrategy stages = ParallelizeStrategy(w.vdag(), sequential);
  ExecutorOptions options;
  options.workers = GetParam();
  Executor executor(&w, options);
  executor.Execute(stages);
  EXPECT_TRUE(w.catalog().ContentsEqual(truth));
}

TEST_P(ParallelExecutorTest, FlattenedDualStageReachesGroundTruth) {
  Vdag flat = FlattenVdag(testutil::MakeFig3Vdag());
  Warehouse w = MakeLoadedWarehouse(flat, 60, 19);
  ApplyTripleChanges(&w, 0.2, 6, 23);
  Catalog truth = GroundTruthAfterChanges(w);

  ParallelStrategy stages =
      ParallelizeStrategy(flat, MakeDualStageVdagStrategy(flat));
  ExecutorOptions options;
  options.workers = GetParam();
  Executor executor(&w, options);
  executor.Execute(stages);
  EXPECT_TRUE(w.catalog().ContentsEqual(truth));
}

INSTANTIATE_TEST_SUITE_P(Workers, ParallelExecutorTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(ParallelExecutorTest, MatchesSequentialExecutorWorkExactly) {
  Warehouse seq_w = MakeLoadedWarehouse(testutil::MakeFig3Vdag(), 60, 29);
  ApplyTripleChanges(&seq_w, 0.15, 5, 31);
  Warehouse par_w = seq_w.Clone();

  Strategy strategy = MakeDualStageVdagStrategy(seq_w.vdag());
  Executor sequential(&seq_w);
  ExecutionReport seq_report = sequential.Execute(strategy);

  ParallelStrategy stages = ParallelizeStrategy(par_w.vdag(), strategy);
  ExecutorOptions options;
  options.workers = 4;
  Executor parallel(&par_w, options);
  ExecutionReport par_report = parallel.Execute(stages);

  EXPECT_TRUE(seq_w.catalog().ContentsEqual(par_w.catalog()));
  EXPECT_EQ(seq_report.total_linear_work, par_report.total_linear_work);
  // Per-expression counters merge at the stage barrier, so the parallel
  // totals match the sequential run increment for increment.
  EXPECT_EQ(seq_report.totals, par_report.totals);
}

// A stage's workers share one SubplanCache (it locks internally); the
// result must still be the ground truth, and work accounting must not
// depend on which worker won a cache race.
TEST(ParallelExecutorTest, SharedSubplanCacheStaysCorrectUnderThreads) {
  for (int round = 0; round < 10; ++round) {
    Warehouse w = MakeLoadedWarehouse(testutil::MakeFig10Vdag(), 50,
                                      300 + round);
    ApplyTripleChanges(&w, 0.2, 6, 400 + round);
    Catalog truth = GroundTruthAfterChanges(w);

    Warehouse plain_w = w.Clone();
    ParallelStrategy stages = ParallelizeStrategy(
        w.vdag(), MakeDualStageVdagStrategy(w.vdag()));

    SubplanCache cache;
    ExecutorOptions options;
    options.workers = 8;
    options.term_workers = 2;
    options.subplan_cache = &cache;
    Executor executor(&w, options);
    ExecutionReport report = executor.Execute(stages);

    ExecutorOptions plain_options;
    plain_options.workers = 8;
    plain_options.term_workers = 2;
    Executor plain(&plain_w, plain_options);
    ExecutionReport plain_report = plain.Execute(stages);

    ASSERT_TRUE(w.catalog().ContentsEqual(truth)) << "round " << round;
    ASSERT_EQ(report.total_linear_work, plain_report.total_linear_work)
        << "round " << round;
  }
}

// Concurrency soak: many repetitions catch races in accumulator
// finalization (two parents racing for one child's delta).
TEST(ParallelExecutorTest, RepeatedRunsStayDeterministic) {
  for (int round = 0; round < 15; ++round) {
    Warehouse w = MakeLoadedWarehouse(testutil::MakeFig10Vdag(), 50,
                                      100 + round);
    ApplyTripleChanges(&w, 0.2, 6, 200 + round);
    Catalog truth = GroundTruthAfterChanges(w);
    ParallelStrategy stages = ParallelizeStrategy(
        w.vdag(), MakeDualStageVdagStrategy(w.vdag()));
    ExecutorOptions options;
    options.workers = 8;
    Executor executor(&w, options);
    executor.Execute(stages);
    ASSERT_TRUE(w.catalog().ContentsEqual(truth)) << "round " << round;
  }
}

// Staged runs honour the same options as sequential ones: empty-delta
// simplification, delta-stat capture, and plan observation.
TEST(ParallelExecutorTest, StagedRunMatchesSequentialOptionForOption) {
  Warehouse w = MakeLoadedWarehouse(testutil::MakeFig10Vdag(), 60, 37);
  ApplyTripleChanges(&w, 0.2, 6, 41);
  // Quiet one base view, so simplification has expressions to drop.
  const std::string quiet = w.vdag().BaseViews().front();
  w.SetBaseDelta(quiet, DeltaRelation(w.vdag().OutputSchema(quiet)));
  Catalog truth = GroundTruthAfterChanges(w);
  Strategy strategy = MakeDualStageVdagStrategy(w.vdag());

  struct Outcome {
    ExecutionReport report;
    int64_t observations = 0;
    Catalog state;
  };
  auto run = [&](bool staged) {
    Warehouse clone = w.Clone();
    Outcome out;
    obs::PlanObserver observer;
    observer.on_comp = [&](obs::CompPlanObservation) { ++out.observations; };
    ExecutorOptions options;
    options.workers = 4;
    options.simplify_empty_deltas = true;
    options.capture_delta_stats = true;
    options.plan_observer = &observer;
    Executor executor(&clone, options);
    out.report =
        staged ? executor.Execute(ParallelizeStrategy(clone.vdag(), strategy))
               : executor.Execute(strategy);
    out.state = std::move(clone.catalog());
    return out;
  };
  Outcome sequential = run(false);
  Outcome staged = run(true);

  EXPECT_LT(sequential.report.per_expression.size(), strategy.size());
  EXPECT_EQ(staged.report.per_expression.size(),
            sequential.report.per_expression.size());
  EXPECT_FALSE(sequential.report.delta_stats.empty());
  EXPECT_EQ(staged.report.delta_stats, sequential.report.delta_stats);
  EXPECT_GT(sequential.observations, 0);
  EXPECT_EQ(staged.observations, sequential.observations);
  EXPECT_TRUE(sequential.state.ContentsEqual(truth));
  EXPECT_TRUE(staged.state.ContentsEqual(truth));
}

TEST(ParallelExecutorTest, TpcdStagedUpdateConverges) {
  tpcd::GeneratorOptions options;
  options.scale_factor = 0.002;
  options.seed = 5;
  Warehouse w = tpcd::MakeTpcdWarehouse(options, {"Q3", "Q5", "Q10"});
  tpcd::ApplyPaperChangeWorkload(&w, 0.1, 0.05, 7);

  Warehouse seq_w = w.Clone();
  Executor sequential(&seq_w);
  sequential.Execute(MakeDualStageVdagStrategy(w.vdag()));

  ParallelStrategy stages = ParallelizeStrategy(
      w.vdag(), MakeDualStageVdagStrategy(w.vdag()));
  ExecutorOptions exec_options;
  exec_options.workers = 4;
  Executor parallel(&w, exec_options);
  parallel.Execute(stages);
  EXPECT_TRUE(w.catalog().ContentsEqual(seq_w.catalog()));
}

}  // namespace
}  // namespace wuw
