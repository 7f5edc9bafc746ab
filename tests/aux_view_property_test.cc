// Property suite for persistent auxiliary views (plan/aux_view.h): hot
// shared join prefixes promoted to hidden "__aux_<n>" warehouse views must
// never change what the warehouse converges to.
//
//   * Multi-batch runs under MinWork / aux-costed Prune / dual-stage, pool
//     sizes {1,2,8}, cache budgets {none, tight}: the visible catalog lands
//     on the recompute ground truth every batch, and every bound aux extent
//     equals its recompute-from-scratch twin (the truth clone recomputes
//     promoted views like any other derived view).
//   * An armed warehouse and an unarmed twin stay visibly bit-identical
//     across the same batch sequence (off-vs-on differential).
//   * Kill-at-every-fault-site during a promoting window and a refreshing
//     window (the new sites aux.promote.install / aux.refresh.step
//     included), restore + ResumeStrategy -> bit-identical to the
//     uninterrupted run, promoted aux views included.
//   * Budget pause + continue-in-place resume across a window with live
//     substitutions converges identically.
//   * Tally-only arming (auto=0) is byte-identical to unarmed execution:
//     same rows, same OperatorStats, same kWork snapshot.
//   * The debug audit flags an aux extent mutated without a version bump.
//
// Honors WUW_SEED (testutil::PropertySeed); failures print the seed.
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
#include "obs/metrics.h"
#include "parallel/parallel_strategy.h"
#include "parallel/thread_pool.h"
#include "plan/aux_view.h"
#include "plan/subplan_cache.h"
#include "test_util.h"
#include "view/recompute.h"

namespace wuw {
namespace {

using fault::FaultInjectedError;
using fault::FaultPlan;
using fault::HitCounts;
using fault::ScopedFaultPlan;
using fault::Trigger;

constexpr int64_t kNoCache = -2;           // sentinel: run eager, no cache
constexpr int64_t kTightCache = 16 << 10;  // eviction churn

/// Promotion on the first hot window — multi-batch tests then see the full
/// promote -> substitute -> maintain/refresh lifecycle within 3 batches.
AuxViewOptions EagerAuxOptions() {
  AuxViewOptions o;
  o.min_windows = 1;
  o.min_uses = 1;
  o.min_rows = 0;
  o.max_views = 4;
  return o;
}

std::unique_ptr<SubplanCache> MakeCache(int64_t budget) {
  if (budget == kNoCache) return nullptr;
  return std::make_unique<SubplanCache>(SubplanCacheOptions{budget});
}

enum class Mode { kMinWork, kPruneAux, kDualStage };
const Mode kModes[] = {Mode::kMinWork, Mode::kPruneAux, Mode::kDualStage};

std::string ModeName(Mode m) {
  switch (m) {
    case Mode::kMinWork:
      return "MinWork";
    case Mode::kPruneAux:
      return "PruneAux";
    case Mode::kDualStage:
      return "DualStage";
  }
  return "?";
}

/// Strategy for the warehouse's CURRENT vdag (post-promotion it includes
/// the aux views, so the optimizers plan their incremental maintenance).
/// kPruneAux feeds the registry's cost info to Prune — the optimizer
/// integration under test.
Strategy PickStrategy(const Warehouse& w, Mode mode) {
  SizeMap sizes = w.EstimatedSizes();
  switch (mode) {
    case Mode::kMinWork:
      return MinWork(w.vdag(), sizes).strategy;
    case Mode::kPruneAux: {
      PruneOptions options;
      AuxCostInfo info;
      if (w.aux_views() != nullptr) {
        info = w.aux_views()->BuildCostInfo();
        options.aux = &info;
      }
      return Prune(w.vdag(), sizes, options).strategy;
    }
    case Mode::kDualStage:
      return MakeDualStageVdagStrategy(w.vdag());
  }
  return Strategy();
}

/// Every aux view bound in `w` that the ground-truth clone also holds must
/// match it exactly — maintained/refreshed materializations equal
/// recompute-from-scratch.  (An aux promoted at THIS batch's commit is not
/// in `truth` yet; the next batch's truth covers it.)
void ExpectAuxMatchesTruth(const Warehouse& w, const Catalog& truth) {
  if (w.aux_views() == nullptr) return;
  for (const std::string& aux : w.aux_views()->BoundAuxNames()) {
    const Table* mine = w.catalog().GetTable(aux);
    ASSERT_NE(mine, nullptr) << aux;
    const Table* gt = truth.GetTable(aux);
    if (gt == nullptr) continue;  // promoted at this commit
    EXPECT_TRUE(mine->ContentsEqual(*gt))
        << "aux extent diverged from recompute ground truth: " << aux;
  }
}

/// A VDAG where promotion pays: one wide SPJ view (k=2 prefix is shared by
/// 3 structural terms of a dual-stage Comp, 2 of MinWork's 1-way Comps).
Vdag MakeStar4Vdag() { return testutil::MakeStarVdag("V", 4); }

/// Classic MQO sharing: two parents whose definitions open with the same
/// 2-prefix [B0, B1] — one materialization, two bindings.
Vdag MakeMqoVdag() {
  Vdag vdag;
  for (int i = 0; i < 6; ++i) {
    std::string name = "B" + std::to_string(i);
    vdag.AddBaseView(name, testutil::TripleSchema(name));
  }
  vdag.AddDerivedView(
      testutil::SpjTripleView("D0", {"B0", "B1", "B2", "B3"}));
  vdag.AddDerivedView(
      testutil::SpjTripleView("D1", {"B0", "B1", "B4", "B5"}));
  return vdag;
}

struct VdagCase {
  std::string name;
  Vdag vdag;
};

std::vector<VdagCase> MakeVdagCases(uint64_t seed) {
  std::vector<VdagCase> out;
  out.push_back({"star4", MakeStar4Vdag()});
  out.push_back({"mqo", MakeMqoVdag()});
  tpcd::Rng rng(seed);
  out.push_back({"random", testutil::RandomVdag(&rng, 3, 3)});
  return out;
}

// ---------------------------------------------------------------------------
// Multi-batch convergence: promotion on, every mode x pool x cache budget,
// with an unarmed twin running the same batches for the off-vs-on diff.
// ---------------------------------------------------------------------------
TEST(AuxViewPropertyTest, MultiBatchConvergesAcrossModesPoolsAndCaches) {
  const uint64_t seed = testutil::PropertySeed(211);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  for (VdagCase& vc : MakeVdagCases(seed)) {
    for (Mode mode : kModes) {
      for (int pool_size : {1, 2, 8}) {
        for (int64_t budget : {kNoCache, kTightCache}) {
          SCOPED_TRACE(vc.name + " mode=" + ModeName(mode) + " pool=" +
                       std::to_string(pool_size) + " budget=" +
                       std::to_string(budget));
          Warehouse armed =
              testutil::MakeLoadedWarehouse(vc.vdag, 40, seed + 5);
          armed.EnableAuxViews(EagerAuxOptions());
          Warehouse unarmed = testutil::MakeLoadedWarehouse(
              vc.vdag, 40, seed + 5);

          ThreadPool pool(pool_size);
          auto armed_cache = MakeCache(budget);
          auto unarmed_cache = MakeCache(budget);
          for (int batch = 0; batch < 3; ++batch) {
            // Coherent batches: deletions sample the CURRENT extents, which
            // are identical in both warehouses as long as they agree.
            testutil::ApplyTripleChanges(&armed, 0.2, 10,
                                         seed + 31 * batch + 7);
            testutil::ApplyTripleChanges(&unarmed, 0.2, 10,
                                         seed + 31 * batch + 7);
            Catalog truth = testutil::GroundTruthAfterChanges(armed);

            ExecutorOptions options;
            options.pool = &pool;
            options.subplan_cache = armed_cache.get();
            Executor(&armed, options).Execute(PickStrategy(armed, mode));

            ExecutorOptions unarmed_options;
            unarmed_options.pool = &pool;
            unarmed_options.subplan_cache = unarmed_cache.get();
            Executor(&unarmed, unarmed_options)
                .Execute(PickStrategy(unarmed, mode));

            ASSERT_TRUE(armed.catalog().ContentsEqual(truth))
                << "armed batch " << batch << " diverged";
            ASSERT_TRUE(unarmed.catalog().ContentsEqual(truth))
                << "unarmed batch " << batch << " diverged";
            ASSERT_TRUE(armed.catalog().ContentsEqual(unarmed.catalog()))
                << "off-vs-on diverged at batch " << batch;
            ExpectAuxMatchesTruth(armed, truth);
            if (::testing::Test::HasFailure()) return;
          }
          // The engineered shapes must actually exercise promotion — a
          // sweep that never promotes proves nothing.
          if (vc.name != "random") {
            EXPECT_GT(armed.aux_views()->NumAuxViews(), 0u)
                << vc.name << " never promoted";
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// MQO sharing: D0 and D1 share the [B0, B1] prefix — one materialized aux
// view, bindings for both parents, and the optimizer cost info lists both.
// ---------------------------------------------------------------------------
TEST(AuxViewPropertyTest, SharedPrefixMaterializesOnceBindsTwice) {
  const uint64_t seed = testutil::PropertySeed(223);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  Warehouse w = testutil::MakeLoadedWarehouse(MakeMqoVdag(), 40, seed);
  w.EnableAuxViews(EagerAuxOptions());
  for (int batch = 0; batch < 2; ++batch) {
    testutil::ApplyTripleChanges(&w, 0.2, 10, seed + 31 * batch + 7);
    Catalog truth = testutil::GroundTruthAfterChanges(w);
    Executor(&w).Execute(MakeDualStageVdagStrategy(w.vdag()));
    ASSERT_TRUE(w.catalog().ContentsEqual(truth));
  }
  ASSERT_EQ(w.aux_views()->NumAuxViews(), 1u)
      << "shared recipe must materialize exactly once";
  AuxCostInfo info = w.aux_views()->BuildCostInfo();
  bool saw_d0 = false, saw_d1 = false;
  for (const AuxCostAlternative& alt : info.alternatives) {
    saw_d0 |= alt.view == "D0";
    saw_d1 |= alt.view == "D1";
    EXPECT_EQ(alt.prefix_len, 2u);
    EXPECT_EQ(alt.prefix_sources,
              (std::vector<std::string>{"B0", "B1"}));
  }
  EXPECT_TRUE(saw_d0 && saw_d1)
      << "both parents should hold a binding on the shared prefix";
}

// ---------------------------------------------------------------------------
// Optimizer integration: with a binding live, the aux-aware cost of a
// substitutable strategy is strictly below the plain linear metric, and
// aux-costed Prune never picks a worse strategy than plain Prune.
// ---------------------------------------------------------------------------
TEST(AuxViewPropertyTest, AuxAwareCostingSeesTheCheaperAlternative) {
  const uint64_t seed = testutil::PropertySeed(227);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  Warehouse w = testutil::MakeLoadedWarehouse(MakeStar4Vdag(), 40, seed);
  w.EnableAuxViews(EagerAuxOptions());
  testutil::ApplyTripleChanges(&w, 0.2, 10, seed + 7);
  Executor(&w).Execute(MakeDualStageVdagStrategy(w.vdag()));
  ASSERT_GT(w.aux_views()->NumAuxViews(), 0u);

  testutil::ApplyTripleChanges(&w, 0.2, 10, seed + 38);
  AuxCostInfo info = w.aux_views()->BuildCostInfo();
  ASSERT_FALSE(info.empty());
  SizeMap sizes = w.EstimatedSizes();
  Strategy dual = MakeDualStageVdagStrategy(w.vdag());
  WorkBreakdown plain = EstimateStrategyWork(w.vdag(), dual, sizes, {});
  WorkBreakdown aux_aware =
      EstimateStrategyWork(w.vdag(), dual, sizes, {}, &info);
  EXPECT_LT(aux_aware.total, plain.total)
      << "substitutable terms should cost the aux scan, not the prefix";

  PruneOptions aux_options;
  aux_options.aux = &info;
  PruneResult with_aux = Prune(w.vdag(), sizes, aux_options);
  PruneResult without = Prune(w.vdag(), sizes);
  EXPECT_LE(with_aux.work,
            EstimateStrategyWork(w.vdag(), without.strategy, sizes, {}, &info)
                .total)
      << "aux-costed Prune must win under its own metric";
}

// ---------------------------------------------------------------------------
// Stale-strategy path: a strategy minted before promotion never mentions
// the aux view (correctness waiver) — its installs drift the prefix
// sources, and the commit-time refresh must bring the aux extent back to
// recompute freshness.
// ---------------------------------------------------------------------------
TEST(AuxViewPropertyTest, PrePromotionStrategyTriggersRefreshAndConverges) {
  const uint64_t seed = testutil::PropertySeed(229);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  Warehouse w = testutil::MakeLoadedWarehouse(MakeStar4Vdag(), 40, seed);
  w.EnableAuxViews(EagerAuxOptions());
  // Minted pre-promotion: mentions only V and its bases, never "__aux_*".
  const Strategy stale_strategy = MakeDualStageVdagStrategy(w.vdag());

  for (int batch = 0; batch < 3; ++batch) {
    testutil::ApplyTripleChanges(&w, 0.2, 10, seed + 31 * batch + 7);
    Catalog truth = testutil::GroundTruthAfterChanges(w);
    Executor(&w).Execute(stale_strategy);
    ASSERT_TRUE(w.catalog().ContentsEqual(truth)) << "batch " << batch;
    // The refresh ran inside this commit, so even the batch that promoted
    // is fresh — compare EVERY bound aux against a from-scratch recompute.
    for (const std::string& aux : w.aux_views()->BoundAuxNames()) {
      Table fresh = RecomputeView(*w.vdag().definition(aux), w.catalog(),
                                  /*stats=*/nullptr);
      EXPECT_TRUE(w.catalog().MustGetTable(aux)->ContentsEqual(fresh))
          << "aux " << aux << " stale after batch " << batch;
    }
  }
  EXPECT_GT(w.aux_views()->NumAuxViews(), 0u);
}

// ---------------------------------------------------------------------------
// Kill sweep.  Batch 1+2 run a pre-promotion dual-stage strategy with
// min_windows=2, so batch 2's commit promotes (aux.promote.install) and
// batch 3's commit refreshes the then-stale aux (aux.refresh.step).  Both
// batches are swept: count-only enumeration, then kill at every (point,
// sampled hit), restore the pre-batch clone, ResumeStrategy — and the
// result must be bit-identical to the uninterrupted run: visible catalog,
// aux extents, and the set of bound aux views.
// ---------------------------------------------------------------------------
TEST(AuxViewPropertyTest, KillAtEveryFaultSiteConverges) {
  const uint64_t seed = testutil::PropertySeed(233);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  AuxViewOptions options = EagerAuxOptions();
  options.min_windows = 2;
  Warehouse w = testutil::MakeLoadedWarehouse(MakeStar4Vdag(), 40, seed);
  w.EnableAuxViews(options);
  const Strategy s = MakeDualStageVdagStrategy(w.vdag());

  // Batch 1: tallies the first hot window; no promotion yet.
  testutil::ApplyTripleChanges(&w, 0.2, 10, seed + 7);
  Executor(&w).Execute(s);
  ASSERT_EQ(w.aux_views()->NumAuxViews(), 0u);

  auto sweep_batch = [&](const char* label, const std::string& want_point) {
    Catalog truth = testutil::GroundTruthAfterChanges(w);
    auto run = [&](Warehouse* target) {
      ExecutorOptions run_options;
      run_options.journal = true;
      Executor(target, run_options).Execute(s);
    };

    // Uninterrupted reference + fault-point census.
    std::vector<std::pair<std::string, int64_t>> counts;
    Warehouse reference = w.Clone();
    {
      FaultPlan census;
      census.count_only = true;
      ScopedFaultPlan scoped(census);
      run(&reference);
      counts = HitCounts();
    }
    ASSERT_TRUE(reference.catalog().ContentsEqual(truth))
        << label << " reference run diverged";
    bool reached = false;
    for (const auto& [point, total] : counts) reached |= point == want_point;
    ASSERT_TRUE(reached) << label << " never reached " << want_point;

    for (const auto& [point, total] : counts) {
      // Stride-sample high-count points like fault_recovery_property_test.
      int64_t stride = std::max<int64_t>(1, total / 3);
      for (int64_t k = 1; k <= total; k += stride) {
        SCOPED_TRACE(std::string(label) + " " + point + " hit " +
                     std::to_string(k));
        Warehouse victim = w.Clone();
        bool died = false;
        {
          FaultPlan plan;
          plan.triggers.push_back(Trigger{point, k, 1.0});
          ScopedFaultPlan scoped(plan);
          try {
            run(&victim);
          } catch (const FaultInjectedError&) {
            died = true;
          }
        }
        ASSERT_TRUE(died) << "sequential run must hit the armed trigger";

        Warehouse restored = w.Clone();
        ExecutionReport report =
            ResumeStrategy(victim.journal(), &restored, ExecutorOptions{});
        EXPECT_EQ(report.steps_replayed + report.steps_completed,
                  static_cast<int64_t>(s.size()));
        ASSERT_TRUE(restored.catalog().ContentsEqual(truth));
        // Bit-identical recovery includes the aux layer: same bound views,
        // same extents as the uninterrupted reference.
        ASSERT_EQ(restored.aux_views()->BoundAuxNames(),
                  reference.aux_views()->BoundAuxNames());
        for (const std::string& aux :
             restored.aux_views()->BoundAuxNames()) {
          ASSERT_TRUE(restored.catalog().MustGetTable(aux)->ContentsEqual(
              *reference.catalog().MustGetTable(aux)))
              << "aux extent diverged after recovery: " << aux;
        }
        if (::testing::Test::HasFailure()) return;
      }
    }
    // Advance the real warehouse past this batch for the next sweep.
    run(&w);
    ASSERT_TRUE(w.catalog().ContentsEqual(truth));
  };

  // Batch 2: second hot window -> the commit promotes.
  testutil::ApplyTripleChanges(&w, 0.2, 10, seed + 38);
  sweep_batch("promote-batch", "aux.promote.install");
  if (::testing::Test::HasFailure()) return;
  ASSERT_GT(w.aux_views()->NumAuxViews(), 0u);

  // Batch 3: the pre-promotion strategy drifts the prefix sources -> the
  // commit refreshes.
  testutil::ApplyTripleChanges(&w, 0.2, 10, seed + 69);
  sweep_batch("refresh-batch", "aux.refresh.step");
}

// ---------------------------------------------------------------------------
// Pause / continue-in-place across a window with live substitutions.
// ---------------------------------------------------------------------------
TEST(AuxViewPropertyTest, PausedWindowResumesWithAuxBindings) {
  const uint64_t seed = testutil::PropertySeed(239);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  Warehouse w = testutil::MakeLoadedWarehouse(MakeStar4Vdag(), 40, seed);
  w.EnableAuxViews(EagerAuxOptions());
  testutil::ApplyTripleChanges(&w, 0.2, 10, seed + 7);
  Executor(&w).Execute(MakeDualStageVdagStrategy(w.vdag()));
  ASSERT_GT(w.aux_views()->NumAuxViews(), 0u);

  // Batch 2 maintains the aux view incrementally (strategy from the
  // extended vdag) and substitutes into the parent's terms.
  testutil::ApplyTripleChanges(&w, 0.2, 10, seed + 38);
  Catalog truth = testutil::GroundTruthAfterChanges(w);
  const Strategy s = MakeDualStageVdagStrategy(w.vdag());

  // Work budget sized to pause after half the steps (analytic charge).
  int64_t pause_work = 0;
  size_t steps = 0;
  {
    Warehouse probe = w.Clone();
    ExecutionReport full = Executor(&probe).Execute(s);
    steps = full.per_expression.size();
    ASSERT_GE(steps, 2u);
    for (size_t i = 0; i < steps / 2; ++i) {
      pause_work += full.per_expression[i].linear_work;
    }
  }

  Warehouse paused = w.Clone();
  WindowBudget budget(WindowBudgetOptions{pause_work});
  ExecutorOptions pause_options;
  pause_options.budget = &budget;
  ExecutionReport r = Executor(&paused, pause_options).Execute(s);
  ASSERT_EQ(r.window_result, WindowResult::kPaused);
  ASSERT_LT(r.steps_completed, static_cast<int64_t>(steps));

  ResumeStrategy(paused.journal(), &paused, ExecutorOptions{},
                 ResumeMode::kContinueInPlace);
  ASSERT_TRUE(paused.catalog().ContentsEqual(truth));
  ExpectAuxMatchesTruth(paused, truth);
}

// ---------------------------------------------------------------------------
// Tally-only arming (auto=0) must be byte-identical to unarmed execution:
// the advisor observes, nothing substitutes, nothing changes.
// ---------------------------------------------------------------------------
TEST(AuxViewPropertyTest, TallyOnlyArmingIsByteIdenticalToUnarmed) {
  if (EnvAuxViews() != nullptr) {
    GTEST_SKIP() << "WUW_AUX_VIEWS arms every warehouse; no unarmed baseline";
  }
  const uint64_t seed = testutil::PropertySeed(241);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  const bool was_armed = obs::MetricsArmed();
  obs::ArmMetrics();

  auto run = [&](bool arm_tally_only) {
    obs::ResetMetrics();
    Warehouse w = testutil::MakeLoadedWarehouse(MakeStar4Vdag(), 40, seed);
    if (arm_tally_only) {
      AuxViewOptions options = EagerAuxOptions();
      options.auto_promote = false;
      w.EnableAuxViews(options);
    }
    std::vector<OperatorStats> stats;
    for (int batch = 0; batch < 2; ++batch) {
      testutil::ApplyTripleChanges(&w, 0.2, 10, seed + 31 * batch + 7);
      ExecutionReport report =
          Executor(&w).Execute(MakeDualStageVdagStrategy(w.vdag()));
      for (const auto& er : report.per_expression) stats.push_back(er.stats);
    }
    return std::make_tuple(std::move(w), std::move(stats),
                           obs::SnapshotMetrics(obs::Mask(
                               obs::MetricClass::kWork)));
  };

  auto [unarmed_w, unarmed_stats, unarmed_work] = run(false);
  auto [tally_w, tally_stats, tally_work] = run(true);
  EXPECT_EQ(tally_w.aux_views()->NumAuxViews(), 0u);
  ASSERT_TRUE(tally_w.catalog().ContentsEqual(unarmed_w.catalog()));
  ASSERT_EQ(tally_stats.size(), unarmed_stats.size());
  for (size_t i = 0; i < tally_stats.size(); ++i) {
    EXPECT_EQ(tally_stats[i].rows_scanned, unarmed_stats[i].rows_scanned);
    EXPECT_EQ(tally_stats[i].rows_produced, unarmed_stats[i].rows_produced);
    EXPECT_EQ(tally_stats[i].hash_probes, unarmed_stats[i].hash_probes);
  }
  EXPECT_EQ(tally_work, unarmed_work)
      << "tally-only arming perturbed the kWork snapshot\nunarmed:\n"
      << unarmed_work.ToString() << "tally-only:\n" << tally_work.ToString();

  obs::ResetMetrics();
  if (!was_armed) obs::DisarmMetrics();
}

// ---------------------------------------------------------------------------
// kWork determinism with promotion on: the armed multi-batch counter
// stream (promotions, refreshes, substitutions included) is bit-identical
// across pool sizes and cache budgets.
// ---------------------------------------------------------------------------
TEST(AuxViewPropertyTest, ArmedWorkCountersInvariantAcrossPoolsAndCaches) {
  const uint64_t seed = testutil::PropertySeed(251);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  const bool was_armed = obs::MetricsArmed();
  obs::ArmMetrics();

  auto run = [&](int pool_size, int64_t budget) {
    obs::ResetMetrics();
    Warehouse w = testutil::MakeLoadedWarehouse(MakeStar4Vdag(), 40, seed);
    w.EnableAuxViews(EagerAuxOptions());
    ThreadPool pool(pool_size);
    auto cache = MakeCache(budget);
    for (int batch = 0; batch < 3; ++batch) {
      testutil::ApplyTripleChanges(&w, 0.2, 10, seed + 31 * batch + 7);
      ExecutorOptions options;
      options.pool = &pool;
      options.subplan_cache = cache.get();
      Executor(&w, options).Execute(MakeDualStageVdagStrategy(w.vdag()));
    }
    EXPECT_GT(w.aux_views()->NumAuxViews(), 0u);
    return obs::SnapshotMetrics(obs::Mask(obs::MetricClass::kWork));
  };

  obs::MetricsSnapshot baseline = run(1, kNoCache);
  bool saw_promotion = false, saw_substitution = false;
  for (const auto& [name, value] : baseline.counters) {
    saw_promotion |= name == "aux.promotions" && value > 0;
    saw_substitution |= name == "aux.term_substitutions" && value > 0;
  }
  EXPECT_TRUE(saw_promotion) << baseline.ToString();
  EXPECT_TRUE(saw_substitution) << baseline.ToString();
  for (int pool_size : {2, 8}) {
    for (int64_t budget : {kNoCache, kTightCache}) {
      EXPECT_EQ(run(pool_size, budget), baseline)
          << "armed kWork snapshot diverged at pool=" << pool_size
          << " budget=" << budget;
    }
  }

  obs::ResetMetrics();
  if (!was_armed) obs::DisarmMetrics();
}

// ---------------------------------------------------------------------------
// Stage-parallel executor over an armed warehouse: Conflicts() orders
// Inst(__aux_*) against every Comp, so promotion + substitution +
// incremental aux maintenance converge under worker scheduling too.
// ---------------------------------------------------------------------------
TEST(AuxViewPropertyTest, StageParallelExecutionConverges) {
  const uint64_t seed = testutil::PropertySeed(257);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  for (VdagCase& vc : MakeVdagCases(seed)) {
    SCOPED_TRACE(vc.name);
    Warehouse w = testutil::MakeLoadedWarehouse(vc.vdag, 40, seed + 5);
    w.EnableAuxViews(EagerAuxOptions());
    for (int batch = 0; batch < 3; ++batch) {
      testutil::ApplyTripleChanges(&w, 0.2, 10, seed + 31 * batch + 7);
      Catalog truth = testutil::GroundTruthAfterChanges(w);
      Strategy s = MakeDualStageVdagStrategy(w.vdag());
      ParallelStrategy staged = ParallelizeStrategy(w.vdag(), s);
      ExecutorOptions options;
      options.workers = 3;
      options.term_workers = 2;
      Executor(&w, options).Execute(staged);
      ASSERT_TRUE(w.catalog().ContentsEqual(truth))
          << vc.name << " batch " << batch;
      ExpectAuxMatchesTruth(w, truth);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// Satellite: the aux flavor of the version-bump audit.  A direct mutation
// of a bound aux extent that skips NoteExtentChanged must show up in
// AuxAuditViolations (and would abort the next commit in debug builds).
// ---------------------------------------------------------------------------
TEST(AuxViewPropertyTest, AuditFlagsUnbumpedAuxMutation) {
  const uint64_t seed = testutil::PropertySeed(263);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  Warehouse w = testutil::MakeLoadedWarehouse(MakeStar4Vdag(), 40, seed);
  w.EnableAuxViews(EagerAuxOptions());
  testutil::ApplyTripleChanges(&w, 0.2, 10, seed + 7);
  Executor(&w).Execute(MakeDualStageVdagStrategy(w.vdag()));
  std::vector<std::string> bound = w.aux_views()->BoundAuxNames();
  ASSERT_FALSE(bound.empty());
  ASSERT_TRUE(w.AuxAuditViolations().empty());

  // The test-only backdoor: mutate the aux extent without the version bump.
  w.TestOnlyExtentNoVersionBump(bound[0])->Add(
      Tuple({Value::Int64(424242), Value::Int64(1), Value::Int64(0)}),
      1);
  std::vector<std::string> violations = w.AuxAuditViolations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0], bound[0]);
}

// ---------------------------------------------------------------------------
// Spec-parsing error paths (user-facing input: error strings, no aborts).
// ---------------------------------------------------------------------------
TEST(AuxViewPropertyTest, SpecParsing) {
  AuxViewOptions o;
  EXPECT_EQ(ParseAuxViewSpec("1", &o), "");
  EXPECT_EQ(ParseAuxViewSpec("on", &o), "");
  EXPECT_EQ(
      ParseAuxViewSpec("max=2;min_windows=3;min_uses=4;min_rows=5;auto=0",
                       &o),
      "");
  EXPECT_EQ(o.max_views, 2);
  EXPECT_EQ(o.min_windows, 3);
  EXPECT_EQ(o.min_uses, 4);
  EXPECT_EQ(o.min_rows, 5);
  EXPECT_FALSE(o.auto_promote);
  EXPECT_NE(ParseAuxViewSpec("", &o), "");
  EXPECT_NE(ParseAuxViewSpec("max=", &o), "");
  EXPECT_NE(ParseAuxViewSpec("bogus=1", &o), "");
  EXPECT_NE(ParseAuxViewSpec("max=-1", &o), "");
}

}  // namespace
}  // namespace wuw
