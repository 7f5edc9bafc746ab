// Unit coverage for epoch-versioned snapshot reads (storage/read_snapshot
// + the Warehouse publish/pin/COW seam):
//
//   * disarmed = zero behavior change (live fallback, nothing published);
//   * armed handles pin exactly one committed state, frozen across any
//     live mutation (copy-on-write detach);
//   * commits happen ONLY at strategy completion (ResetBatch) and
//     RecomputeDerived — a budget-paused window stays invisible;
//   * the publish-time audit catches extent mutations that skipped
//     NoteExtentChanged (the snapshot-path extension of the stale-scan
//     oracle in subplan_cache_property_test);
//   * snapshot queries and RunReadSessions serve consistent results.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/min_work.h"
#include "exec/executor.h"
#include "exec/recovery.h"
#include "exec/window_budget.h"
#include "parallel/read_driver.h"
#include "query/ad_hoc.h"
#include "storage/read_snapshot.h"
#include "test_util.h"

namespace wuw {
namespace {

/// Fig3 warehouse with a pending mixed batch — the standard update-window
/// fixture.
Warehouse MakePendingWarehouse(uint64_t seed) {
  Warehouse w = testutil::MakeLoadedWarehouse(testutil::MakeFig3Vdag(), 50,
                                              seed);
  testutil::ApplyTripleChanges(&w, 0.2, 8, seed + 9);
  return w;
}

Tuple TripleRow(int64_t k, int64_t v) {
  return Tuple({Value::Int64(k), Value::Int64(v), Value::Int64(k % 5)});
}

TEST(SnapshotReadTest, DisarmedIsLiveFallbackWithZeroBehaviorChange) {
  if (EnvReaders() > 0) {
    GTEST_SKIP() << "WUW_READERS arms every warehouse at construction";
  }
  Warehouse w = MakePendingWarehouse(1);
  ASSERT_FALSE(w.snapshot_reads_armed());
  ReadSnapshot snap = w.OpenSnapshot();
  EXPECT_FALSE(snap.pinned());
  EXPECT_EQ(snap.commit_seq(), 0);
  EXPECT_EQ(snap.batch_epoch(), w.batch_epoch());
  EXPECT_TRUE(snap.ContentsEqual(w.catalog()));
  // Live mode serves the catalog's own table objects — no copies exist.
  EXPECT_EQ(snap.table("A"), w.catalog().MustGetTable("A"));
  // A live-mode handle tracks mutations (it is NOT isolated — exactly the
  // pre-snapshot, quiesced-reads regime).
  const int64_t before = snap.table("A")->cardinality();
  w.base_table("A")->Add(TripleRow(777001, 1), 1);
  EXPECT_EQ(snap.table("A")->cardinality(), before + 1);
}

TEST(SnapshotReadTest, ArmedHandlePinsOneCommittedState) {
  Warehouse w = MakePendingWarehouse(2);
  w.EnableSnapshotReads();
  ASSERT_TRUE(w.snapshot_reads_armed());

  ReadSnapshot a = w.OpenSnapshot();
  EXPECT_TRUE(a.pinned());
  EXPECT_GE(a.commit_seq(), 1);
  EXPECT_TRUE(a.ContentsEqual(w.catalog()));
  EXPECT_EQ(a.batch_epoch(), w.batch_epoch());
  EXPECT_EQ(a.table_names(), w.catalog().table_names());

  // No commit between two opens: identical pin.
  ReadSnapshot b = w.OpenSnapshot();
  EXPECT_EQ(b.commit_seq(), a.commit_seq());
  EXPECT_EQ(SnapshotFingerprint(b, 1 << 20), SnapshotFingerprint(a, 1 << 20));
}

TEST(SnapshotReadTest, CowDetachKeepsPinnedSnapshotFrozen) {
  Warehouse w = MakePendingWarehouse(3);
  w.EnableSnapshotReads();
  ReadSnapshot snap = w.OpenSnapshot();
  const Table* pinned = snap.table("A");
  const int64_t pinned_card = pinned->cardinality();
  const uint64_t pinned_fp = SnapshotFingerprint(snap, 1 << 20);

  // First post-publish mutation detaches a private copy for the live side.
  Table* live = w.base_table("A");
  EXPECT_NE(live, pinned) << "mutation did not copy-on-write-detach";
  live->Add(TripleRow(777002, 5), 1);
  live->Add(TripleRow(777003, 6), 1);

  EXPECT_EQ(pinned->cardinality(), pinned_card);
  EXPECT_EQ(snap.table("A"), pinned);
  EXPECT_EQ(SnapshotFingerprint(snap, 1 << 20), pinned_fp);
  EXPECT_EQ(w.catalog().MustGetTable("A")->cardinality(), pinned_card + 2);
  // The detach is per-publish, not per-mutation: the second access reuses
  // the already-detached extent.
  EXPECT_EQ(w.base_table("A"), live);
}

TEST(SnapshotReadTest, WindowCommitIsAtomicAtStrategyCompletion) {
  Warehouse w = MakePendingWarehouse(4);
  w.EnableSnapshotReads();
  const Catalog pre = w.catalog().Clone();
  const Catalog truth = testutil::GroundTruthAfterChanges(w);
  const Strategy s = MinWork(w.vdag(), w.EstimatedSizes()).strategy;

  // Work budget that pauses after the first half of the steps.
  int64_t pause_work = 0;
  size_t n = 0;
  {
    Warehouse clone = w.Clone();
    ExecutionReport full = Executor(&clone).Execute(s);
    n = full.per_expression.size();
    ASSERT_GE(n, 2u);
    for (size_t i = 0; i < n / 2; ++i) {
      pause_work += full.per_expression[i].linear_work;
    }
  }

  ReadSnapshot before = w.OpenSnapshot();
  WindowBudget budget(WindowBudgetOptions{pause_work});
  ExecutorOptions options;
  options.budget = &budget;
  ExecutionReport r = Executor(&w, options).Execute(s);
  ASSERT_EQ(r.window_result, WindowResult::kPaused);

  // Mid-window: the live catalog holds installed prefixes, but readers
  // still get the pre-window commit — same seq, same contents.
  ReadSnapshot paused = w.OpenSnapshot();
  EXPECT_EQ(paused.commit_seq(), before.commit_seq());
  EXPECT_TRUE(paused.ContentsEqual(pre));
  // If the completed prefix installed anything, the live catalog diverged
  // from what readers see — the exact half-installed state being hidden.
  bool installed = false;
  for (int64_t i = 0; i < r.steps_completed; ++i) {
    installed = installed ||
                s.expressions()[static_cast<size_t>(i)].is_inst();
  }
  if (installed) {
    EXPECT_FALSE(paused.ContentsEqual(w.catalog()));
  }

  ExecutorOptions resume_options;
  ExecutionReport resumed = ResumeStrategy(w.journal(), &w, resume_options,
                                           ResumeMode::kContinueInPlace);
  ASSERT_EQ(resumed.window_result, WindowResult::kCompleted);

  // Completion commits: one new snapshot with the full window applied.
  ReadSnapshot after = w.OpenSnapshot();
  EXPECT_GT(after.commit_seq(), before.commit_seq());
  EXPECT_TRUE(after.ContentsEqual(truth));
  // The handle opened before the window still serves the old state.
  EXPECT_TRUE(before.ContentsEqual(pre));
}

TEST(SnapshotReadTest, RecomputeDerivedPublishes) {
  Warehouse w = testutil::MakeLoadedWarehouse(testutil::MakeFig3Vdag(), 40,
                                              5);
  w.EnableSnapshotReads();
  ReadSnapshot before = w.OpenSnapshot();
  w.base_table("A")->Add(TripleRow(777004, 9), 1);
  w.RecomputeDerived();
  ReadSnapshot after = w.OpenSnapshot();
  EXPECT_GT(after.commit_seq(), before.commit_seq());
  EXPECT_TRUE(after.ContentsEqual(w.catalog()));
}

TEST(SnapshotReadTest, AuditFlagsUnbumpedMutationOnSnapshotPath) {
  Warehouse w = testutil::MakeLoadedWarehouse(testutil::MakeFig3Vdag(), 40,
                                              6);
  w.EnableSnapshotReads();
  ASSERT_TRUE(w.SnapshotAuditViolations().empty());

  // TestOnlyExtentNoVersionBump skips BOTH the version bump and the COW
  // detach: the smuggled row lands in the published table, visible to a
  // pinned handle — exactly the torn state the audit exists to catch.
  ReadSnapshot pinned = w.OpenSnapshot();
  const int64_t before = pinned.table("A")->cardinality();
  w.TestOnlyExtentNoVersionBump("A")->Add(TripleRow(777005, 3), 1);
  EXPECT_EQ(pinned.table("A")->cardinality(), before + 1)
      << "unbumped mutation should tear the published extent (that is the "
         "hazard)";

  std::vector<std::string> violations = w.SnapshotAuditViolations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0], "A");

  // Bumping the version is the fix: the mutation is now accounted for.
  w.NoteExtentChanged("A");
  EXPECT_TRUE(w.SnapshotAuditViolations().empty());
  w.PublishSnapshot();  // must not abort
  EXPECT_TRUE(w.OpenSnapshot().ContentsEqual(w.catalog()));
}

#if !defined(NDEBUG) && GTEST_HAS_DEATH_TEST
TEST(SnapshotReadDeathTest, PublishAbortsOnUnbumpedMutationInDebug) {
  Warehouse w = testutil::MakeLoadedWarehouse(testutil::MakeFig3Vdag(), 40,
                                              7);
  w.EnableSnapshotReads();
  w.TestOnlyExtentNoVersionBump("A")->Add(TripleRow(777006, 3), 1);
  EXPECT_DEATH(w.PublishSnapshot(), "NoteExtentChanged");
}
#endif

TEST(SnapshotReadTest, CloneRepublishesItsOwnState) {
  Warehouse w = MakePendingWarehouse(8);
  w.EnableSnapshotReads();
  Warehouse clone = w.Clone();
  ASSERT_TRUE(clone.snapshot_reads_armed());
  ReadSnapshot snap = clone.OpenSnapshot();
  EXPECT_TRUE(snap.pinned());
  EXPECT_TRUE(snap.ContentsEqual(clone.catalog()));
  EXPECT_TRUE(snap.ContentsEqual(w.catalog()));

  // Independent publish timelines: mutating the clone leaves the
  // original's snapshot untouched, and vice versa.
  clone.base_table("A")->Add(TripleRow(777007, 2), 1);
  clone.RecomputeDerived();
  EXPECT_TRUE(w.OpenSnapshot().ContentsEqual(w.catalog()));
  EXPECT_FALSE(clone.OpenSnapshot().ContentsEqual(w.catalog()));
}

TEST(SnapshotReadTest, SnapshotQueriesAreStableAcrossMaintenance) {
  Warehouse w = MakePendingWarehouse(9);
  w.EnableSnapshotReads();
  const std::string sql = "SELECT V5_k, V5_v FROM V5";

  ReadSnapshot snap = w.OpenSnapshot();
  QueryResult before = ExecuteQuery(snap, sql);
  ASSERT_TRUE(before.ok()) << before.error;

  // Run the whole update window; the pinned handle must answer the same.
  Executor(&w).Execute(MinWork(w.vdag(), w.EstimatedSizes()).strategy);
  QueryResult after = ExecuteQuery(snap, sql);
  ASSERT_TRUE(after.ok()) << after.error;
  ASSERT_EQ(after.rows.rows.size(), before.rows.rows.size());
  for (size_t i = 0; i < after.rows.rows.size(); ++i) {
    EXPECT_EQ(after.rows.rows[i].first, before.rows.rows[i].first);
    EXPECT_EQ(after.rows.rows[i].second, before.rows.rows[i].second);
  }
  // A fresh handle sees the committed window.
  QueryResult fresh = ExecuteQuery(w.OpenSnapshot(), sql);
  ASSERT_TRUE(fresh.ok()) << fresh.error;
  // Errors surface as strings, never aborts — same contract as the
  // warehouse overload.
  EXPECT_FALSE(ExecuteQuery(snap, "SELECT x FROM NO_SUCH").ok());
  EXPECT_FALSE(ExecuteQuery(snap, "SELECT nope FROM V5").ok());
}

TEST(SnapshotReadTest, ReadSessionsServeConsistentSnapshots) {
  Warehouse w = MakePendingWarehouse(10);
  w.EnableSnapshotReads();
  ReadSessionOptions options;
  options.sessions = 32;
  options.scans_per_session = 3;
  options.queries = {"SELECT A_k, A_v FROM A",
                     "SELECT V4_k, V4_v FROM V4",
                     "SELECT V5_k, V5_v FROM V5"};
  ReadSessionReport report = RunReadSessions(w, options);
  EXPECT_TRUE(report.ok()) << report.torn_reads << " torn, "
                           << report.epoch_regressions << " regressions, "
                           << report.query_errors << " errors";
  EXPECT_EQ(report.sessions, 32);
  EXPECT_EQ(report.queries, 32);
  EXPECT_GT(report.rows_read, 0);
  // Quiesced warehouse: every session pinned the same commit.
  EXPECT_EQ(report.min_commit_seq, report.max_commit_seq);
}

TEST(SnapshotReadTest, FingerprintDetectsCommittedChange) {
  Warehouse w = MakePendingWarehouse(11);
  w.EnableSnapshotReads();
  const uint64_t before = SnapshotFingerprint(w.OpenSnapshot(), 1 << 20);
  EXPECT_EQ(SnapshotFingerprint(w.OpenSnapshot(), 1 << 20), before);
  Executor(&w).Execute(MinWork(w.vdag(), w.EstimatedSizes()).strategy);
  EXPECT_NE(SnapshotFingerprint(w.OpenSnapshot(), 1 << 20), before)
      << "the window changed every base view; the fingerprint must move";
}

}  // namespace
}  // namespace wuw
