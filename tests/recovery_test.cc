// Journal unit tests plus directed interrupted-window recovery scenarios:
// kill a journaled run at a chosen step, restore the pre-window state (an
// in-memory clone or an io/snapshot directory), ResumeStrategy, and land
// bit-identically on the recompute ground truth.  The exhaustive
// kill-at-every-step sweeps live in fault_recovery_property_test.cc; this
// file covers the journal API and the snapshot round trip directly.
#include "exec/recovery.h"

#include <gtest/gtest.h>

#include <string>

#include "core/min_work.h"
#include "core/strategy_space.h"
#include "exec/executor.h"
#include "fault/fault_injection.h"
#include "io/snapshot.h"
#include "test_util.h"

namespace wuw {
namespace {

using fault::FaultInjectedError;
using fault::FaultPlan;
using fault::ScopedFaultPlan;
using fault::Trigger;

TEST(StrategyJournalTest, LifecycleAndStepOrdering) {
  StrategyJournal journal;
  EXPECT_FALSE(journal.begun());
  EXPECT_FALSE(journal.complete());

  Strategy s({Expression::Comp("V", {"A"}), Expression::Inst("V"),
              Expression::Inst("A")});
  journal.Begin(s, /*batch_epoch=*/7);
  EXPECT_TRUE(journal.begun());
  EXPECT_FALSE(journal.complete());
  EXPECT_EQ(journal.batch_epoch(), 7);
  EXPECT_EQ(journal.size(), 0);
  EXPECT_FALSE(journal.IsStepComplete(0));

  // Record out of order (a parallel stage may complete steps around the
  // torn one); EntriesInStepOrder must sort.
  JournalEntry e2;
  e2.step = 2;
  e2.expression = Expression::Inst("A");
  journal.Record(std::move(e2));
  JournalEntry e0;
  e0.step = 0;
  e0.expression = Expression::Comp("V", {"A"});
  journal.Record(std::move(e0));

  EXPECT_EQ(journal.size(), 2);
  EXPECT_TRUE(journal.IsStepComplete(0));
  EXPECT_FALSE(journal.IsStepComplete(1));
  EXPECT_TRUE(journal.IsStepComplete(2));
  auto entries = journal.EntriesInStepOrder();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].step, 0);
  EXPECT_EQ(entries[1].step, 2);

  journal.MarkComplete();
  EXPECT_TRUE(journal.complete());

  // A new Begin clears the previous run.
  journal.Begin(s, 8);
  EXPECT_EQ(journal.size(), 0);
  EXPECT_FALSE(journal.complete());

  journal.Clear();
  EXPECT_FALSE(journal.begun());
}

TEST(StrategyJournalTest, ExecutorJournalsEveryStepAndMarksComplete) {
  Warehouse w = testutil::MakeLoadedWarehouse(testutil::MakeFig3Vdag(), 40,
                                              /*seed=*/5);
  testutil::ApplyTripleChanges(&w, 0.2, 8, 11);
  Strategy s = MinWork(w.vdag(), w.EstimatedSizes()).strategy;

  ExecutorOptions options;
  options.journal = true;
  Executor executor(&w, options);
  executor.Execute(s);

  const StrategyJournal& journal = w.journal();
  EXPECT_TRUE(journal.begun());
  EXPECT_TRUE(journal.complete());
  EXPECT_EQ(journal.size(), static_cast<int64_t>(s.size()));
  auto entries = journal.EntriesInStepOrder();
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].step, static_cast<int64_t>(i));
    EXPECT_EQ(entries[i].expression.ToString(),
              s.expressions()[i].ToString());
  }
}

// Kills a journaled run at 0-based step `kill_step` via a fault trigger.
// Returns the dead warehouse (torn state + journal) by value.
Warehouse RunAndKillAt(const Warehouse& pre, const Strategy& s,
                       int64_t kill_step) {
  Warehouse victim = pre.Clone();
  ExecutorOptions options;
  options.journal = true;
  Executor executor(&victim, options);
  FaultPlan plan;
  plan.triggers.push_back(
      Trigger{"executor.step.begin", /*hit=*/kill_step + 1, 1.0});
  bool died = false;
  {
    ScopedFaultPlan scoped(plan);
    try {
      executor.Execute(s);
    } catch (const FaultInjectedError&) {
      died = true;
    }
  }
  EXPECT_TRUE(died) << "kill step " << kill_step << " out of range?";
  return victim;
}

TEST(RecoveryTest, CloneRestoreResumeConvergesFromEveryKillStep) {
  Warehouse w = testutil::MakeLoadedWarehouse(testutil::MakeFig10Vdag(), 50,
                                              /*seed=*/13);
  testutil::ApplyTripleChanges(&w, 0.25, 10, 19);
  Catalog truth = testutil::GroundTruthAfterChanges(w);
  Strategy s = MinWork(w.vdag(), w.EstimatedSizes()).strategy;

  for (int64_t k = 0; k < static_cast<int64_t>(s.size()); ++k) {
    Warehouse victim = RunAndKillAt(w, s, k);
    EXPECT_EQ(victim.journal().size(), k);
    EXPECT_FALSE(victim.journal().complete());

    Warehouse restored = w.Clone();  // pre-window state
    ExecutionReport report = ResumeStrategy(victim.journal(), &restored);
    EXPECT_EQ(report.steps_replayed, k);
    EXPECT_EQ(report.steps_replayed + report.steps_completed,
              static_cast<int64_t>(s.size()));
    ASSERT_TRUE(restored.catalog().ContentsEqual(truth))
        << "diverged after kill at step " << k;
  }
}

TEST(RecoveryTest, DiskSnapshotRestoreResumeConverges) {
  Warehouse w = testutil::MakeLoadedWarehouse(testutil::MakeFig3Vdag(), 45,
                                              /*seed=*/29);
  testutil::ApplyTripleChanges(&w, 0.3, 12, 31);
  Catalog truth = testutil::GroundTruthAfterChanges(w);
  Strategy s = MinWork(w.vdag(), w.EstimatedSizes()).strategy;

  // Durable pre-window state: extents + pending batch on disk, written
  // before the window opens (the paper's load-then-update discipline).
  std::string dir = ::testing::TempDir() + "/wuw_recovery_snapshot";
  std::string error;
  ASSERT_TRUE(SaveWarehouse(w, dir, &error)) << error;

  const int64_t kill_step = static_cast<int64_t>(s.size()) / 2;
  Warehouse victim = RunAndKillAt(w, s, kill_step);

  // "Reboot": the in-memory state is gone; only the snapshot and the
  // journal survive.
  Warehouse restored = testutil::MakeLoadedWarehouse(
      testutil::MakeStarVdag("X", 2), 1, 1);  // throwaway shell
  ASSERT_TRUE(LoadWarehouse(dir, &restored, &error)) << error;
  ExecutionReport report = ResumeStrategy(victim.journal(), &restored);
  EXPECT_EQ(report.steps_replayed, kill_step);
  ASSERT_TRUE(restored.catalog().ContentsEqual(truth));
}

TEST(RecoveryTest, ResumedRunIsItselfResumable) {
  Warehouse w = testutil::MakeLoadedWarehouse(testutil::MakeFig10Vdag(), 50,
                                              /*seed=*/37);
  testutil::ApplyTripleChanges(&w, 0.2, 10, 41);
  Catalog truth = testutil::GroundTruthAfterChanges(w);
  Strategy s = MinWork(w.vdag(), w.EstimatedSizes()).strategy;
  ASSERT_GE(s.size(), 3u);

  // First death near the start.
  Warehouse victim = RunAndKillAt(w, s, 1);

  // Resume with re-journaling on, and kill the resumed run too: only
  // live-executed steps reach executor.step.begin, so hit=2 dies two live
  // steps into the resume (after the replayed step 0 and live step 1).
  Warehouse second = w.Clone();
  ExecutorOptions rejournal;
  rejournal.journal = true;
  {
    FaultPlan plan;
    plan.triggers.push_back(Trigger{"executor.step.begin", /*hit=*/2, 1.0});
    ScopedFaultPlan scoped(plan);
    bool died = false;
    try {
      ResumeStrategy(victim.journal(), &second, rejournal);
    } catch (const FaultInjectedError&) {
      died = true;
    }
    ASSERT_TRUE(died);
  }
  // The second journal holds the replayed prefix plus one more live step.
  EXPECT_EQ(second.journal().size(), 2);
  EXPECT_FALSE(second.journal().complete());

  // Final recovery from the second journal completes the window.
  Warehouse third = w.Clone();
  ExecutionReport report = ResumeStrategy(second.journal(), &third);
  EXPECT_EQ(report.steps_replayed, 2);
  ASSERT_TRUE(third.catalog().ContentsEqual(truth));
}

TEST(RecoveryTest, ResumingACompleteJournalJustReplays) {
  Warehouse w = testutil::MakeLoadedWarehouse(testutil::MakeFig3Vdag(), 40,
                                              /*seed=*/43);
  testutil::ApplyTripleChanges(&w, 0.15, 6, 47);
  Catalog truth = testutil::GroundTruthAfterChanges(w);
  Strategy s = MinWork(w.vdag(), w.EstimatedSizes()).strategy;

  Warehouse victim = w.Clone();
  ExecutorOptions options;
  options.journal = true;
  Executor executor(&victim, options);
  executor.Execute(s);
  ASSERT_TRUE(victim.journal().complete());

  Warehouse restored = w.Clone();
  ExecutionReport report = ResumeStrategy(victim.journal(), &restored);
  EXPECT_EQ(report.steps_replayed, static_cast<int64_t>(s.size()));
  EXPECT_EQ(report.steps_completed, 0);
  ASSERT_TRUE(restored.catalog().ContentsEqual(truth));
}

}  // namespace
}  // namespace wuw
