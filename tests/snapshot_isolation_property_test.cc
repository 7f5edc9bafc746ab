// The zero-downtime-read invariant, exhaustively: on an ARMED warehouse,
// a reader opening a snapshot at ANY point of an update window — before
// it, at every budget-pause boundary, after any injected kill, after
// resume — sees exactly one committed state: the pre-window snapshot until
// the strategy completes, the fully-updated state after.  Never a blend.
//
// Three sweeps, mirroring the window-budget and fault-recovery property
// suites:
//
//   1. Pause sweep: for every step boundary k of the sequential executor
//      (every pool size x cache budget), a budget pausing after exactly k
//      steps; the mid-window snapshot must equal the pre-window catalog
//      bit-for-bit and carry the pre-window commit_seq; after resume the
//      snapshot equals the recompute ground truth.  {MinWork, Prune,
//      dual-stage} all sweep their boundaries.
//   2. Kill sweep: every fault point x (sampled) hit index under the
//      sequential executor; the torn warehouse's published snapshot must
//      still serve the pre-window state, and a handle pinned BEFORE the
//      kill must fingerprint identically across it; restore + resume
//      converges and commits.
//   3. Stage-parallel kill sweep: same property under worker scheduling.
//
// Honors WUW_SEED (failures print the repro line).  Labeled fault;property.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/min_work.h"
#include "core/prune.h"
#include "core/strategy_space.h"
#include "exec/executor.h"
#include "exec/recovery.h"
#include "exec/window_budget.h"
#include "fault/fault_injection.h"
#include "parallel/parallel_strategy.h"
#include "parallel/read_driver.h"
#include "parallel/thread_pool.h"
#include "plan/subplan_cache.h"
#include "test_util.h"

namespace wuw {
namespace {

using fault::FaultInjectedError;
using fault::FaultPlan;
using fault::HitCounts;
using fault::ScopedFaultPlan;
using fault::Trigger;

constexpr int64_t kNoCache = -2;
constexpr int64_t kTightCache = 16 << 10;
const int kPoolSizes[] = {1, 2, 8};

/// Caps the per-point kill sweep (the fault-recovery suite uses 5; the
/// snapshot sweep adds a full-catalog comparison per kill, so 3 keeps the
/// suite inside its timeout on small hosts).
constexpr int64_t kMaxKillsPerPoint = 3;

std::vector<int64_t> SampleHits(int64_t total) {
  std::vector<int64_t> hits;
  if (total <= 0) return hits;
  int64_t stride = std::max<int64_t>(1, total / kMaxKillsPerPoint);
  for (int64_t k = 1; k <= total; k += stride) hits.push_back(k);
  if (hits.back() != total) hits.push_back(total);
  return hits;
}

std::unique_ptr<SubplanCache> MakeCache(int64_t budget) {
  if (budget == kNoCache) return nullptr;
  return std::make_unique<SubplanCache>(SubplanCacheOptions{budget});
}

/// An ARMED warehouse with pending changes, plus the two catalogs every
/// snapshot assertion compares against: the pre-window state (what every
/// reader must see until the window commits) and the recompute ground
/// truth (what every reader must see after).
struct Workbench {
  Vdag vdag;
  Warehouse warehouse;
  Catalog pre;
  Catalog truth;
};

Workbench MakeWorkbench(Vdag vdag, int64_t base_rows, uint64_t seed) {
  Warehouse w = testutil::MakeLoadedWarehouse(vdag, base_rows, seed);
  testutil::ApplyTripleChanges(&w, 0.2, 8, seed + 9);
  w.EnableSnapshotReads();
  Catalog pre = w.catalog().Clone();
  Catalog truth = testutil::GroundTruthAfterChanges(w);
  return Workbench{w.vdag(), std::move(w), std::move(pre),
                   std::move(truth)};
}

/// Asserts `snapshot` is exactly one committed state: the pre-window
/// catalog (commit_seq == pre_seq) or the ground truth — never a blend.
void AssertCommittedState(const ReadSnapshot& snapshot, const Workbench& wb,
                          int64_t pre_seq) {
  if (snapshot.commit_seq() == pre_seq) {
    ASSERT_TRUE(snapshot.ContentsEqual(wb.pre))
        << "snapshot at the pre-window commit is not the pre-window state";
  } else {
    ASSERT_GT(snapshot.commit_seq(), pre_seq);
    ASSERT_TRUE(snapshot.ContentsEqual(wb.truth))
        << "post-window snapshot is not the ground truth";
  }
}

/// Sweep 1: pause at every sequential step boundary; the reader must hold
/// the pre-window state across the pause and pick up the ground truth
/// only after the resume completes.
void SweepPauseBoundaries(const Workbench& wb, const Strategy& s,
                          int pool_size, int64_t cache_budget) {
  // Cumulative per-step work from one unbudgeted run (analytic, so the
  // boundaries hold at every pool size and cache budget).
  std::vector<int64_t> cum;
  {
    Warehouse clone = wb.warehouse.Clone();
    ExecutionReport report = Executor(&clone).Execute(s);
    int64_t total = 0;
    for (const ExpressionReport& er : report.per_expression) {
      total += er.linear_work;
      cum.push_back(total);
    }
  }
  const size_t n = cum.size();
  ASSERT_GE(n, 2u);

  for (size_t k = 0; k < n; ++k) {
    const int64_t budget_work = k == 0 ? 0 : cum[k - 1];
    // A budget of cum[k-1] pauses after exactly k steps only when the
    // work boundary is strictly increasing there.
    if (k >= 1 && budget_work <= (k >= 2 ? cum[k - 2] : 0)) continue;
    SCOPED_TRACE("pause after " + std::to_string(k) + " steps");
    Warehouse clone = wb.warehouse.Clone();
    ThreadPool pool(pool_size);
    std::unique_ptr<SubplanCache> cache = MakeCache(cache_budget);

    // Pin a handle across the whole window: it must never move.
    ReadSnapshot held = clone.OpenSnapshot();
    const int64_t pre_seq = held.commit_seq();
    const uint64_t held_fp = SnapshotFingerprint(held, 1 << 20);

    WindowBudget budget(WindowBudgetOptions{budget_work});
    ExecutorOptions options;
    options.pool = &pool;
    options.subplan_cache = cache.get();
    options.budget = &budget;
    ExecutionReport report = Executor(&clone, options).Execute(s);
    ASSERT_EQ(report.window_result, WindowResult::kPaused);
    ASSERT_EQ(report.steps_completed, static_cast<int64_t>(k));

    // Mid-window probe: fresh handles still serve the pre-window commit.
    ReadSnapshot paused = clone.OpenSnapshot();
    ASSERT_EQ(paused.commit_seq(), pre_seq)
        << "a paused window must not publish";
    ASSERT_TRUE(paused.ContentsEqual(wb.pre));
    ASSERT_EQ(SnapshotFingerprint(held, 1 << 20), held_fp);

    ExecutorOptions resume_options;
    resume_options.pool = &pool;
    resume_options.subplan_cache = cache.get();
    ExecutionReport resumed = ResumeStrategy(clone.journal(), &clone,
                                             resume_options,
                                             ResumeMode::kContinueInPlace);
    ASSERT_EQ(resumed.window_result, WindowResult::kCompleted);

    ReadSnapshot after = clone.OpenSnapshot();
    ASSERT_GT(after.commit_seq(), pre_seq);
    ASSERT_TRUE(after.ContentsEqual(wb.truth));
    // The held handle STILL serves the pre-window state (epoch-based
    // reclamation keeps its version alive until release).
    ASSERT_EQ(SnapshotFingerprint(held, 1 << 20), held_fp);
    ASSERT_TRUE(held.ContentsEqual(wb.pre));
  }
}

/// Sweep 2: kill the sequential window at every reached fault point; the
/// torn warehouse must still serve the pre-window commit, and recovery
/// must converge and commit.
void SweepKillSites(const Workbench& wb, const Strategy& s,
                    int64_t cache_budget) {
  auto run = [&](Warehouse* target, SubplanCache* cache) {
    ExecutorOptions options;
    options.journal = true;
    options.subplan_cache = cache;
    Executor(target, options).Execute(s);
  };

  std::vector<std::pair<std::string, int64_t>> counts;
  {
    FaultPlan count;
    count.count_only = true;
    ScopedFaultPlan scoped(count);
    Warehouse clone = wb.warehouse.Clone();
    auto cache = MakeCache(cache_budget);
    run(&clone, cache.get());
    ASSERT_TRUE(clone.OpenSnapshot().ContentsEqual(wb.truth))
        << "count pass did not commit the ground truth";
    counts = HitCounts();
  }
  ASSERT_FALSE(counts.empty()) << "no fault points reached?";

  for (const auto& [point, total] : counts) {
    for (int64_t k : SampleHits(total)) {
      SCOPED_TRACE(point + " hit " + std::to_string(k));
      Warehouse victim = wb.warehouse.Clone();
      auto cache = MakeCache(cache_budget);
      ReadSnapshot held = victim.OpenSnapshot();
      const int64_t pre_seq = held.commit_seq();
      const uint64_t held_fp = SnapshotFingerprint(held, 1 << 20);
      bool died = false;
      {
        FaultPlan plan;
        plan.triggers.push_back(Trigger{point, k, 1.0});
        ScopedFaultPlan scoped(plan);
        try {
          run(&victim, cache.get());
        } catch (const FaultInjectedError&) {
          died = true;
        }
      }
      ASSERT_TRUE(died);  // sequential execution is deterministic

      // The torn warehouse never published: readers keep the pre-window
      // state, bit-identical, and the held handle never moved.
      ReadSnapshot post = victim.OpenSnapshot();
      ASSERT_EQ(post.commit_seq(), pre_seq);
      ASSERT_TRUE(post.ContentsEqual(wb.pre));
      ASSERT_EQ(SnapshotFingerprint(held, 1 << 20), held_fp);

      Warehouse restored = wb.warehouse.Clone();
      ExecutorOptions resume_options;
      resume_options.subplan_cache = cache.get();
      ResumeStrategy(victim.journal(), &restored, resume_options);
      ReadSnapshot recovered = restored.OpenSnapshot();
      ASSERT_TRUE(recovered.ContentsEqual(wb.truth));
      ASSERT_GT(recovered.commit_seq(), pre_seq);
    }
  }
}

/// Sweep 3: same kill property under the stage-parallel executor.  Worker
/// scheduling can shift per-point hit totals, so a non-firing trigger just
/// asserts the completed run committed; at EVERY outcome the snapshot is
/// one committed state.
void SweepParallelKills(const Workbench& wb, const Strategy& s,
                        int64_t cache_budget) {
  ParallelStrategy staged = ParallelizeStrategy(wb.vdag, s);
  auto run = [&](Warehouse* target, SubplanCache* cache) {
    ExecutorOptions options;
    options.workers = 3;
    options.term_workers = 2;
    options.journal = true;
    options.subplan_cache = cache;
    Executor(target, options).Execute(staged);
  };

  std::vector<std::pair<std::string, int64_t>> counts;
  {
    FaultPlan count;
    count.count_only = true;
    ScopedFaultPlan scoped(count);
    Warehouse clone = wb.warehouse.Clone();
    auto cache = MakeCache(cache_budget);
    run(&clone, cache.get());
    ASSERT_TRUE(clone.OpenSnapshot().ContentsEqual(wb.truth));
    counts = HitCounts();
  }

  for (const auto& [point, total] : counts) {
    for (int64_t k : SampleHits(total)) {
      SCOPED_TRACE(point + " hit " + std::to_string(k));
      Warehouse victim = wb.warehouse.Clone();
      auto cache = MakeCache(cache_budget);
      ReadSnapshot held = victim.OpenSnapshot();
      const int64_t pre_seq = held.commit_seq();
      bool died = false;
      {
        FaultPlan plan;
        plan.triggers.push_back(Trigger{point, k, 1.0});
        ScopedFaultPlan scoped(plan);
        try {
          run(&victim, cache.get());
        } catch (const FaultInjectedError&) {
          died = true;
        }
      }
      ReadSnapshot post = victim.OpenSnapshot();
      AssertCommittedState(post, wb, pre_seq);
      if (!died) continue;
      ASSERT_EQ(post.commit_seq(), pre_seq)
          << "a torn window must not have published";

      Warehouse restored = wb.warehouse.Clone();
      ExecutorOptions resume_options;
      resume_options.subplan_cache = cache.get();
      ResumeStrategy(victim.journal(), &restored, resume_options);
      ASSERT_TRUE(restored.OpenSnapshot().ContentsEqual(wb.truth));
    }
  }
}

TEST(SnapshotIsolationProperty, PauseAtEveryBoundaryReaderSeesOneCommit) {
  const uint64_t seed = testutil::PropertySeed(311);
  SCOPED_TRACE(testutil::SeedTrace(seed));

  struct Shape {
    std::string name;
    Vdag vdag;
  };
  tpcd::Rng rng(seed + 3);
  std::vector<Shape> shapes;
  shapes.push_back({"fig3", testutil::MakeFig3Vdag()});
  shapes.push_back({"fig10", testutil::MakeFig10Vdag()});
  shapes.push_back({"random", testutil::RandomVdag(&rng, 3, 2)});

  for (Shape& shape : shapes) {
    SCOPED_TRACE("scenario " + shape.name);
    Workbench wb = MakeWorkbench(std::move(shape.vdag), 40, seed + 11);
    SizeMap sizes = wb.warehouse.EstimatedSizes();

    // MinWork sweeps the full pool x cache grid; the other strategies
    // sweep their boundaries at one fixed configuration.
    const Strategy min_work = MinWork(wb.vdag, sizes).strategy;
    for (int pool_size : kPoolSizes) {
      for (int64_t cache : {kNoCache, kTightCache}) {
        SCOPED_TRACE("pool=" + std::to_string(pool_size) +
                     " cache=" + std::to_string(cache));
        SweepPauseBoundaries(wb, min_work, pool_size, cache);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    const Strategy others[] = {Prune(wb.vdag, sizes).strategy,
                               MakeDualStageVdagStrategy(wb.vdag)};
    for (const Strategy& s : others) {
      SCOPED_TRACE("strategy " + s.ToString());
      SweepPauseBoundaries(wb, s, /*pool_size=*/2, kNoCache);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(SnapshotIsolationProperty, KillAtEverySiteReaderKeepsPreWindowState) {
  const uint64_t seed = testutil::PropertySeed(313);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed + 5);
  Workbench benches[] = {
      MakeWorkbench(testutil::MakeFig3Vdag(), 40, seed + 21),
      MakeWorkbench(testutil::RandomVdag(&rng, 3, 2), 40, seed + 22),
  };

  for (Workbench& wb : benches) {
    SizeMap sizes = wb.warehouse.EstimatedSizes();
    const Strategy strategies[] = {MinWork(wb.vdag, sizes).strategy,
                                   Prune(wb.vdag, sizes).strategy,
                                   MakeDualStageVdagStrategy(wb.vdag)};
    for (const Strategy& s : strategies) {
      for (int64_t cache : {kNoCache, kTightCache}) {
        SCOPED_TRACE("cache " + std::to_string(cache) + " strategy " +
                     s.ToString());
        SweepKillSites(wb, s, cache);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(SnapshotIsolationProperty, ParallelKillsNeverExposeABlend) {
  const uint64_t seed = testutil::PropertySeed(317);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed + 7);
  Workbench wb = MakeWorkbench(testutil::RandomVdag(&rng, 3, 2), 40,
                               seed + 31);
  SizeMap sizes = wb.warehouse.EstimatedSizes();
  for (int64_t cache : {kNoCache, kTightCache}) {
    SCOPED_TRACE("cache " + std::to_string(cache));
    SweepParallelKills(wb, MinWork(wb.vdag, sizes).strategy, cache);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace wuw
