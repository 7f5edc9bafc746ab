// The WUW_WINDOW_BUDGET env knob, in its own binary: EnvWindowBudget()
// parses the spec once into a static, so the knob must be set before the
// first Executor::Execute anywhere in the process — a static initializer
// here does that.  (window_budget_test.cc covers explicit budgets; this
// binary covers the auto-split path, where the executor chains windows
// itself and always completes — for sequential and staged runs alike.)
#include <cstdlib>

#include <gtest/gtest.h>

#include "core/min_work.h"
#include "exec/executor.h"
#include "exec/window_budget.h"
#include "parallel/parallel_strategy.h"
#include "test_util.h"

namespace wuw {
namespace {

// Before main(), and therefore before any EnvWindowBudget() call.
const bool kEnvArmed = [] {
  setenv("WUW_WINDOW_BUDGET", "1", /*overwrite=*/1);
  return true;
}();

TEST(WindowEnvTest, EnvKnobIsParsedOnce) {
  ASSERT_TRUE(kEnvArmed);
  const WindowBudgetOptions* env = EnvWindowBudget();
  ASSERT_NE(env, nullptr);
  EXPECT_EQ(env->work_units, 1);
  EXPECT_EQ(env->deadline_seconds, 0);

  // Later setenv must not change the cached spec (parse-once contract).
  setenv("WUW_WINDOW_BUDGET", "999999", 1);
  EXPECT_EQ(EnvWindowBudget()->work_units, 1);
}

// Sequential and staged runs split alike: the budget is charged at stage
// barriers, and a sequential strategy runs one expression per stage.
class WindowEnvSplitTest : public ::testing::TestWithParam<bool> {};

TEST_P(WindowEnvSplitTest, AutoSplitCompletesInManyWindowsAndConverges) {
  const bool staged = GetParam();
  Warehouse w = testutil::MakeLoadedWarehouse(testutil::MakeFig10Vdag(), 50,
                                              /*seed=*/41);
  testutil::ApplyTripleChanges(&w, 0.25, 10, 45);
  Catalog truth = testutil::GroundTruthAfterChanges(w);
  Strategy s = MinWork(w.vdag(), w.EstimatedSizes()).strategy;
  ParallelStrategy stages = ParallelizeStrategy(w.vdag(), s);

  ExecutionReport report =
      staged ? Executor(&w).Execute(stages) : Executor(&w).Execute(s);

  // A 1-unit budget pauses after every stage, so the run spans one window
  // per stage — but env mode always runs to completion.
  EXPECT_EQ(report.window_result, WindowResult::kCompleted);
  EXPECT_EQ(report.steps_completed, static_cast<int64_t>(s.size()));
  EXPECT_GE(report.windows, static_cast<int64_t>(
                                staged ? stages.stages.size() : s.size()));
  // The limiting budget forced journaling; the run finished, so the
  // journal is complete.
  EXPECT_TRUE(w.journal().complete());
  ASSERT_TRUE(w.catalog().ContentsEqual(truth));
}

INSTANTIATE_TEST_SUITE_P(Entry, WindowEnvSplitTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Staged" : "Sequential";
                         });

TEST(WindowEnvTest, ExplicitBudgetOverridesEnv) {
  Warehouse w = testutil::MakeLoadedWarehouse(testutil::MakeFig3Vdag(), 40,
                                              /*seed=*/53);
  testutil::ApplyTripleChanges(&w, 0.2, 8, 57);
  Catalog truth = testutil::GroundTruthAfterChanges(w);
  Strategy s = MinWork(w.vdag(), w.EstimatedSizes()).strategy;

  // An explicit unlimited budget disables the env knob entirely: one
  // window, no auto-split.
  WindowBudget unlimited;
  ExecutorOptions options;
  options.budget = &unlimited;
  ExecutionReport report = Executor(&w, options).Execute(s);
  EXPECT_EQ(report.window_result, WindowResult::kCompleted);
  EXPECT_EQ(report.windows, 1);
  ASSERT_TRUE(w.catalog().ContentsEqual(truth));
}

}  // namespace
}  // namespace wuw
