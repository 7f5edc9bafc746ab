// Property tests for shared-subplan memoization (satellite of the plan
// layer): executing any correct strategy with a SubplanCache attached — at
// any byte budget, including the degenerate zero budget — must reach the
// recompute ground truth bit-identically and report the same linear work
// as the cache-off run (the metric is analytic, computed at plan-build
// time, so sharing bytes never changes the accounting).
#include <gtest/gtest.h>

#include <set>

#include "core/min_work.h"
#include "core/strategy_space.h"
#include "exec/executor.h"
#include "obs/plan_observation.h"
#include "parallel/thread_pool.h"
#include "plan/subplan_cache.h"
#include "test_util.h"
#include "tpcd/tpcd_views.h"

namespace wuw {
namespace {

using testutil::RandomVdag;

struct Scenario {
  uint64_t seed;
  size_t bases;
  size_t derived;
  double delete_fraction;
  int64_t insert_rows;
};

ExecutionReport RunOnClone(const Warehouse& w, const Strategy& s,
                           SubplanCache* cache, Catalog* final_state) {
  Warehouse clone = w.Clone();
  ExecutorOptions options;
  options.subplan_cache = cache;
  Executor executor(&clone, options);
  ExecutionReport report = executor.Execute(s);
  *final_state = std::move(clone.catalog());
  return report;
}

class SubplanCachePropertyTest : public ::testing::TestWithParam<Scenario> {};

// The core invariant sweep: cache off / budget 0 / tight budget (eviction
// churn) / unbounded all land on the ground truth with identical linear
// work.
TEST_P(SubplanCachePropertyTest, EveryBudgetConvergesWithIdenticalWork) {
  const Scenario& sc = GetParam();
  const uint64_t seed = sc.seed + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
  Vdag vdag = RandomVdag(&rng, sc.bases, sc.derived);

  Warehouse w = testutil::MakeLoadedWarehouse(vdag, 40, seed * 31 + 1);
  testutil::ApplyTripleChanges(&w, sc.delete_fraction, sc.insert_rows,
                               seed * 17 + 3);
  Catalog truth = testutil::GroundTruthAfterChanges(w);

  for (const Strategy& s : {MinWork(vdag, w.EstimatedSizes()).strategy,
                            MakeDualStageVdagStrategy(vdag)}) {
    Catalog baseline_state;
    ExecutionReport baseline = RunOnClone(w, s, nullptr, &baseline_state);
    ASSERT_TRUE(baseline_state.ContentsEqual(truth)) << s.ToString();

    const int64_t budgets[] = {0, 16 << 10, -1};
    for (int64_t budget : budgets) {
      SubplanCache cache(SubplanCacheOptions{budget});
      Catalog state;
      ExecutionReport report = RunOnClone(w, s, &cache, &state);
      ASSERT_TRUE(state.ContentsEqual(truth))
          << "budget " << budget << ": " << s.ToString();
      EXPECT_EQ(report.total_linear_work, baseline.total_linear_work)
          << "budget " << budget << ": " << s.ToString();
      if (budget == 0) {
        // Zero budget admits nothing, so every lookup misses.
        EXPECT_EQ(report.subplan_cache.hits, 0);
        EXPECT_EQ(report.subplan_cache.bytes_in_use, 0);
      }
    }
  }
}

// One cache shared across two clones executing the same strategy from the
// same state: the second run replays the first's intermediate states
// exactly, so its subplans are all servable from cache — fewer rows
// scanned, same final bytes.
TEST_P(SubplanCachePropertyTest, CrossCloneSharingCutsScansNotResults) {
  const Scenario& sc = GetParam();
  const uint64_t seed = sc.seed + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
  Vdag vdag = RandomVdag(&rng, sc.bases, sc.derived);

  Warehouse w = testutil::MakeLoadedWarehouse(vdag, 40, seed * 31 + 1);
  testutil::ApplyTripleChanges(&w, sc.delete_fraction, sc.insert_rows,
                               seed * 17 + 3);
  Catalog truth = testutil::GroundTruthAfterChanges(w);
  Strategy s = MinWork(vdag, w.EstimatedSizes()).strategy;

  SubplanCache cache;  // default 256MB budget, shared by both runs
  Catalog first_state, second_state;
  ExecutionReport first = RunOnClone(w, s, &cache, &first_state);
  ExecutionReport second = RunOnClone(w, s, &cache, &second_state);

  ASSERT_TRUE(first_state.ContentsEqual(truth));
  ASSERT_TRUE(second_state.ContentsEqual(truth));
  EXPECT_EQ(first.total_linear_work, second.total_linear_work);
  if (first.totals.subplan_cache_misses > 0) {
    EXPECT_GT(second.totals.subplan_cache_hits, 0);
    EXPECT_LT(second.totals.rows_scanned, first.totals.rows_scanned);
  }
}

std::string ScenarioName(const ::testing::TestParamInfo<Scenario>& info) {
  const Scenario& s = info.param;
  return "seed" + std::to_string(s.seed) + "_b" + std::to_string(s.bases) +
         "d" + std::to_string(s.derived) + "_del" +
         std::to_string(static_cast<int>(s.delete_fraction * 100)) + "_ins" +
         std::to_string(s.insert_rows);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SubplanCachePropertyTest,
    ::testing::Values(Scenario{21, 2, 1, 0.2, 5}, Scenario{22, 3, 2, 0.1, 10},
                      Scenario{23, 3, 3, 0.3, 0}, Scenario{24, 4, 2, 0.0, 20},
                      Scenario{25, 2, 3, 0.5, 8}, Scenario{26, 4, 4, 0.15, 15},
                      Scenario{27, 5, 3, 0.1, 12}, Scenario{28, 3, 4, 0.25, 6}),
    ScenarioName);

// Multi-batch coherence: a persistent cache across a coherent
// SourceChangeStream (every batch drawn from the true source state) must
// never leak a stale subplan into a later batch — the batch epoch is part
// of every scan fingerprint.
TEST(SubplanCacheStreamTest, PersistentCacheAcrossCoherentBatches) {
  const uint64_t seed = testutil::PropertySeed(55);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::GeneratorOptions gen_options;
  gen_options.scale_factor = 0.002;
  gen_options.seed = seed;
  Warehouse cached = tpcd::MakeTpcdWarehouse(gen_options, {"Q3", "Q10"});
  const Vdag& vdag = cached.vdag();
  Warehouse plain = cached.Clone();

  tpcd::SourceChangeStream stream(cached, gen_options);
  SubplanCache cache;  // lives across all batches

  for (int batch = 0; batch < 6; ++batch) {
    auto deltas = stream.NextBatch(/*delete_fraction=*/0.1,
                                   /*insert_fraction=*/0.05);
    for (auto& [name, delta] : deltas) {
      cached.SetBaseDelta(name, delta);
      plain.SetBaseDelta(name, std::move(delta));
    }
    Catalog truth = testutil::GroundTruthAfterChanges(plain);

    Strategy s = (batch % 2 == 0) ? MakeDualStageVdagStrategy(vdag)
                                  : MinWork(vdag, plain.EstimatedSizes())
                                        .strategy;
    ExecutorOptions cached_options;
    cached_options.subplan_cache = &cache;
    Executor cached_exec(&cached, cached_options);
    ExecutionReport cached_report = cached_exec.Execute(s);
    Executor plain_exec(&plain);
    ExecutionReport plain_report = plain_exec.Execute(s);

    ASSERT_TRUE(cached.catalog().ContentsEqual(plain.catalog()))
        << "batch " << batch;
    ASSERT_TRUE(cached.catalog().ContentsEqual(truth)) << "batch " << batch;
    EXPECT_EQ(cached_report.total_linear_work, plain_report.total_linear_work)
        << "batch " << batch;
    // The maintained base tables must also track the stream's source
    // mirror (coherence of the stream itself).
    for (const std::string& base : vdag.BaseViews()) {
      ASSERT_TRUE(cached.catalog().MustGetTable(base)->ContentsEqual(
          *stream.source().MustGetTable(base)))
          << "batch " << batch << " base " << base;
    }
  }
}

// Every batch epoch the cache's keys name: scan leaves embed "#e<epoch>".
std::set<int64_t> HeldEpochs(const SubplanCache& cache) {
  std::set<int64_t> epochs;
  for (const std::string& key : cache.Fingerprints()) {
    for (size_t at = key.find("#e"); at != std::string::npos;
         at = key.find("#e", at + 2)) {
      epochs.insert(std::stoll(key.substr(at + 2)));
    }
  }
  return epochs;
}

// Epoch release: one cache shared across a coherent multi-batch stream
// drops each batch's entries at the next batch's first Comp (their keys
// can never match again), so it never holds a key of an older epoch —
// at every budget, sequentially and with 8 term workers — while results
// and linear work stay those of the uncached run.
TEST(SubplanCacheStreamTest, NewerEpochReleasesOlderEntries) {
  const uint64_t seed = testutil::PropertySeed(57);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::GeneratorOptions gen_options;
  gen_options.scale_factor = 0.002;
  gen_options.seed = seed;
  const Warehouse initial = tpcd::MakeTpcdWarehouse(gen_options, {"Q3", "Q10"});

  // The uncached reference: each batch's deltas, strategy, ground truth
  // and linear work.
  struct Batch {
    std::unordered_map<std::string, DeltaRelation> deltas;
    Strategy strategy;
    Catalog truth;
    int64_t linear_work = 0;
  };
  std::vector<Batch> batches(4);
  {
    Warehouse plain = initial.Clone();
    tpcd::SourceChangeStream stream(plain, gen_options);
    for (size_t b = 0; b < batches.size(); ++b) {
      Batch& batch = batches[b];
      batch.deltas = stream.NextBatch(/*delete_fraction=*/0.1,
                                      /*insert_fraction=*/0.05);
      for (const auto& [name, delta] : batch.deltas) {
        plain.SetBaseDelta(name, delta);
      }
      batch.truth = testutil::GroundTruthAfterChanges(plain);
      batch.strategy = (b % 2 == 0)
                           ? MakeDualStageVdagStrategy(plain.vdag())
                           : MinWork(plain.vdag(), plain.EstimatedSizes())
                                 .strategy;
      batch.linear_work =
          Executor(&plain).Execute(batch.strategy).total_linear_work;
      ASSERT_TRUE(plain.catalog().ContentsEqual(batch.truth)) << b;
    }
  }

  for (int threads : {1, 8}) {
    for (int64_t budget : {int64_t{0}, int64_t{16} << 10, int64_t{64} << 20,
                           int64_t{-1}}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " budget " +
                   std::to_string(budget));
      ThreadPool pool(threads);
      SubplanCache cache(SubplanCacheOptions{budget});
      Warehouse w = initial.Clone();
      for (size_t b = 0; b < batches.size(); ++b) {
        for (const auto& [name, delta] : batches[b].deltas) {
          w.SetBaseDelta(name, delta);
        }
        const int64_t epoch = w.batch_epoch();
        const std::set<int64_t> current = {epoch};
        auto only_current = [&] {
          std::set<int64_t> held = HeldEpochs(cache);
          return held.empty() || held == current;
        };
        const int64_t held_before =
            static_cast<int64_t>(cache.Fingerprints().size());
        const int64_t released_before = cache.stats().released;

        ExecutorOptions options;
        options.subplan_cache = &cache;
        options.pool = &pool;
        options.term_workers = threads;
        // Sequentially, check after every Comp, the first one included
        // (an observer forces sequential evaluation, so only there).
        obs::PlanObserver observer;
        observer.on_comp = [&](obs::CompPlanObservation) {
          EXPECT_TRUE(only_current()) << "batch " << b;
        };
        if (threads == 1) options.plan_observer = &observer;
        ExecutionReport report =
            Executor(&w, options).Execute(batches[b].strategy);

        ASSERT_TRUE(w.catalog().ContentsEqual(batches[b].truth))
            << "batch " << b;
        EXPECT_EQ(report.total_linear_work, batches[b].linear_work)
            << "batch " << b;
        EXPECT_TRUE(only_current()) << "batch " << b;
        // The new epoch's first Comp released exactly what the previous
        // batch left behind.
        EXPECT_EQ(report.subplan_cache.released - released_before,
                  held_before)
            << "batch " << b;
        if (budget == 0) EXPECT_EQ(report.subplan_cache.hits, 0);
      }
    }
  }
}

// Regression guard for the version-bump invariant (CLAUDE.md: "bump them
// on any extent mutation or cached results go stale").  The oracle is
// eager execution on the identical state: with correct version keys a
// cache NEVER changes results (the sweep above proves it), so any
// cached-vs-eager divergence is stale serving.  Mutating an extent behind
// the warehouse's back — TestOnlyExtentNoVersionBump exists for exactly
// this test — leaves the old scan fingerprint valid, so the shared cache
// serves pre-mutation rows of A to the maintenance terms that scan A
// while the eager run re-reads the mutated extent, and the two runs
// disagree.  The same mutation followed by NoteExtentChanged re-keys the
// scan, misses, and matches eager again.  If this test starts failing on
// the "stale" half, some mutation path stopped going through
// NoteExtentChanged — that is the bug, not the test.
TEST(SubplanCacheStalenessTest, UnversionedMutationIsServedStale) {
  Warehouse w =
      testutil::MakeLoadedWarehouse(testutil::MakeFig3Vdag(), 40, 83);
  testutil::ApplyTripleChanges(&w, 0.3, 10, 89);
  Strategy s = MakeDualStageVdagStrategy(w.vdag());

  SubplanCache cache;  // shared across all cached runs below
  // Warm the cache from the unmutated state.
  {
    Warehouse warm = w.Clone();
    ExecutorOptions options;
    options.subplan_cache = &cache;
    Executor executor(&warm, options);
    executor.Execute(s);
  }

  // The out-of-band mutation: a fresh row in base A whose key joins into
  // the pending B/C deltas, so maintenance terms that scan A produce
  // visibly different contributions with and without it.
  Tuple smuggled({Value::Int64(1), Value::Int64(777), Value::Int64(1)});

  // What an honest (eager, uncached) run produces on the mutated state.
  Catalog eager_result = [&] {
    Warehouse eager = w.Clone();
    eager.TestOnlyExtentNoVersionBump("A")->Add(smuggled, 1);
    Executor executor(&eager);
    executor.Execute(s);
    return std::move(eager.catalog());
  }();

  // Stale half: same mutation WITHOUT the version bump, cache attached.
  // The cached scan of A still fingerprints as current, gets served, and
  // the run diverges from the eager oracle.
  {
    Warehouse stale = w.Clone();
    stale.TestOnlyExtentNoVersionBump("A")->Add(smuggled, 1);
    int64_t hits_before = cache.stats().hits;
    ExecutorOptions options;
    options.subplan_cache = &cache;
    Executor executor(&stale, options);
    executor.Execute(s);
    EXPECT_GT(cache.stats().hits, hits_before)
        << "stale entries were not even looked up — scan keys changed?";
    EXPECT_FALSE(stale.catalog().ContentsEqual(eager_result))
        << "unversioned mutation did NOT go stale — if a new mutation path "
           "bumps versions implicitly, update this test; otherwise the "
           "cache is re-reading extents it should not";
  }

  // Fixed half: same mutation, followed by NoteExtentChanged.  The scan
  // re-keys, misses, re-reads the mutated extent, and matches eager.
  {
    Warehouse fixed = w.Clone();
    fixed.TestOnlyExtentNoVersionBump("A")->Add(smuggled, 1);
    fixed.NoteExtentChanged("A");
    ExecutorOptions options;
    options.subplan_cache = &cache;
    Executor executor(&fixed, options);
    executor.Execute(s);
    EXPECT_TRUE(fixed.catalog().ContentsEqual(eager_result));
  }
}

}  // namespace
}  // namespace wuw
