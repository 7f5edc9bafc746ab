// The WUW_MEM_MB differential battery: a paged run — extents hibernating
// and faulting under a byte budget, join/aggregation builds taking their
// grace-partition spill paths — must be BIT-IDENTICAL to the resident
// engine.  Random and fixed VDAGs × {MinWork, Prune, dual-stage} ×
// thread pools {1, 2, 8} × budgets {tiny, medium, unset}:
//
//   * every run drives the warehouse to the recompute ground truth
//     (exact ContentsEqual — the C1-C8 invariant);
//   * OperatorStats equal the resident reference's, counter for counter
//     (rows scanned/produced, hash probes, ...: paging moves bytes, never
//     rows);
//   * the kWork metric snapshot equals the resident reference's
//     (`paged.*` and the kernels' `engine.vec.*` counters are kEngine —
//     the grace routes run the kernels once per spilled partition and
//     intern each read-back partition's strings, so they differ by
//     design);
//   * `paged.faults` / `paged.evictions` (extent paging only) at a fixed
//     budget are identical across every pool size and subplan-cache
//     setting (eviction happens only at coordinator touch points — the
//     threading-model discipline); the operator-spill counters
//     (`paged.spilled_partitions` / `paged.spill_faults` /
//     `paged.spill_writebacks`) are identical across pool sizes.
//
// The TPC-D case is the acceptance gate: at the tiny budget the exp4
// VDAG workload (Q3/Q5/Q10, paper delete fraction) must actually page
// (`paged.evictions > 0`) AND spill (`paged.spilled_partitions > 0`)
// while staying bit-identical, and no faulted-in extent may build dense
// rows or a tuple index on the way (installs edit the column image).
// Honors WUW_SEED (failures print the repro line).  Labeled property.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/min_work.h"
#include "core/prune.h"
#include "core/strategy_space.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "parallel/parallel_strategy.h"
#include "parallel/thread_pool.h"
#include "plan/subplan_cache.h"
#include "storage/page.h"
#include "storage/paged_store.h"
#include "test_util.h"
#include "tpcd/change_generator.h"
#include "tpcd/tpcd_generator.h"
#include "tpcd/tpcd_views.h"

namespace wuw {
namespace {

const int kPoolSizes[] = {1, 2, 8};

/// Budget sweep: unset (resident reference), a tiny budget that evicts
/// everything evictable at every touch and spills every real build side,
/// and a medium budget that pages part of the working set.
enum class Paged { kNone, kTiny, kMedium };
const Paged kPagedSettings[] = {Paged::kNone, Paged::kTiny, Paged::kMedium};

std::string PagedName(Paged p) {
  switch (p) {
    case Paged::kNone:
      return "resident";
    case Paged::kTiny:
      return "tiny";
    case Paged::kMedium:
      return "medium";
  }
  return "?";
}

paged::PagedOptions MakePagedOptions(Paged p) {
  paged::PagedOptions options;
  options.page_bytes = 512;  // small pages: images + spills span frames
  options.partitions = 4;
  switch (p) {
    case Paged::kNone:
      break;
    case Paged::kTiny:
      options.budget_bytes = 1;   // hibernate everything evictable
      options.spill_bytes = 64;   // every non-trivial build spills
      options.pool_bytes = 2 * 512;  // two-frame pools: churn hard
      break;
    case Paged::kMedium:
      options.budget_bytes = 4 << 10;  // partial working set resident
      options.spill_bytes = 1 << 10;
      break;
  }
  return options;
}

enum class Flavor { kMinWorkSeq, kPruneSeq, kDualStageStaged };
const Flavor kFlavors[] = {Flavor::kMinWorkSeq, Flavor::kPruneSeq,
                           Flavor::kDualStageStaged};

std::string FlavorName(Flavor f) {
  switch (f) {
    case Flavor::kMinWorkSeq:
      return "minwork-seq";
    case Flavor::kPruneSeq:
      return "prune-seq";
    case Flavor::kDualStageStaged:
      return "dualstage-staged";
  }
  return "?";
}

struct Scenario {
  std::string name;
  Warehouse warehouse;
  Catalog truth;
};

Scenario MakeScenario(std::string name, Vdag vdag, int64_t base_rows,
                      double delete_fraction, int64_t insert_rows,
                      uint64_t seed) {
  Warehouse w =
      testutil::MakeLoadedWarehouse(std::move(vdag), base_rows, seed);
  testutil::ApplyTripleChanges(&w, delete_fraction, insert_rows, seed + 9);
  Catalog truth = testutil::GroundTruthAfterChanges(w);
  return Scenario{std::move(name), std::move(w), std::move(truth)};
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

Strategy MakeStrategy(const Scenario& sc, Flavor f) {
  switch (f) {
    case Flavor::kMinWorkSeq:
      return MinWork(sc.warehouse.vdag(), sc.warehouse.EstimatedSizes())
          .strategy;
    case Flavor::kPruneSeq:
      return Prune(sc.warehouse.vdag(), sc.warehouse.EstimatedSizes())
          .strategy;
    case Flavor::kDualStageStaged:
      return MakeDualStageVdagStrategy(sc.warehouse.vdag());
  }
  return Strategy();
}

/// Everything one run yields that the differential compares.
struct RunResult {
  OperatorStats totals;
  obs::MetricsSnapshot work;  // kWork snapshot — the cross-engine class
  paged::PagedStatsSnapshot paged;  // global paged-counter deltas
  bool converged = false;
};

RunResult RunOne(const Scenario& sc, Flavor flavor, const Strategy& strategy,
                 int pool_size, Paged paged_setting,
                 SubplanCache* cache = nullptr) {
  Warehouse clone = sc.warehouse.Clone();
  paged::PagedOptions options = MakePagedOptions(paged_setting);
  std::unique_ptr<paged::ScopedOperatorSpill> spill;
  if (paged_setting != Paged::kNone) {
    clone.EnablePaging(options);
    spill = std::make_unique<paged::ScopedOperatorSpill>(options);
  }
  ThreadPool pool(static_cast<size_t>(pool_size));
  obs::ArmMetrics();
  obs::ResetMetrics();
  const paged::PagedStatsSnapshot before = paged::GlobalPagedStats();

  RunResult out;
  if (flavor == Flavor::kDualStageStaged) {
    ParallelStrategy staged =
        ParallelizeStrategy(clone.vdag(), strategy);
    ExecutorOptions options2;
    options2.workers = pool_size;
    options2.pool = &pool;
    options2.subplan_cache = cache;
    out.totals = Executor(&clone, options2).Execute(staged).totals;
  } else {
    ExecutorOptions options2;
    options2.pool = &pool;
    options2.subplan_cache = cache;
    out.totals = Executor(&clone, options2).Execute(strategy).totals;
  }

  out.work = obs::SnapshotMetrics(obs::Mask(obs::MetricClass::kWork));
  const paged::PagedStatsSnapshot after = paged::GlobalPagedStats();
  out.paged.faults = after.faults - before.faults;
  out.paged.evictions = after.evictions - before.evictions;
  out.paged.spilled_partitions =
      after.spilled_partitions - before.spilled_partitions;
  out.paged.spill_faults = after.spill_faults - before.spill_faults;
  out.paged.spill_writebacks =
      after.spill_writebacks - before.spill_writebacks;
  out.converged = clone.catalog().ContentsEqual(sc.truth);
  return out;
}

std::string DiffWork(const obs::MetricsSnapshot& a,
                     const obs::MetricsSnapshot& b) {
  std::string diff;
  for (const auto& [name, value] : a.counters) {
    diff += name + "=" + std::to_string(value) + " ";
  }
  diff += "| ";
  for (const auto& [name, value] : b.counters) {
    diff += name + "=" + std::to_string(value) + " ";
  }
  return diff;
}

// The battery: for every scenario × strategy flavor, a resident pool=1
// reference, then every (budget, pool) combination must converge and
// reproduce the reference's OperatorStats and kWork snapshot exactly —
// and at each fixed budget the paged counters must agree across pools.
TEST(PagedDifferentialProperty, PagedRunsAreBitIdenticalToResident) {
  const uint64_t seed = testutil::PropertySeed(223);
  SCOPED_TRACE(testutil::SeedTrace(seed));

  for (Scenario& sc : MakeScenarios(seed)) {
    SCOPED_TRACE("scenario " + sc.name);
    for (Flavor flavor : kFlavors) {
      SCOPED_TRACE("flavor " + FlavorName(flavor));
      const Strategy strategy = MakeStrategy(sc, flavor);
      const RunResult reference =
          RunOne(sc, flavor, strategy, /*pool_size=*/1, Paged::kNone);
      ASSERT_TRUE(reference.converged);
      if (paged::EnvPaged() == nullptr) {
        // WUW_MEM_MB arms every warehouse in the process — this "resident"
        // reference included — so the zero-counter sanity check only holds
        // when the env knob is unset (the differential assertions below
        // hold either way: all runs are armed identically on top).
        EXPECT_EQ(reference.paged.faults, 0);
        EXPECT_EQ(reference.paged.evictions, 0);
        EXPECT_EQ(reference.paged.spilled_partitions, 0);
        EXPECT_EQ(reference.paged.spill_faults, 0);
        EXPECT_EQ(reference.paged.spill_writebacks, 0);
      }

      for (Paged paged_setting : kPagedSettings) {
        SCOPED_TRACE("budget " + PagedName(paged_setting));
        bool have_baseline = false;
        paged::PagedStatsSnapshot baseline;
        for (int pool_size : kPoolSizes) {
          SCOPED_TRACE("pool " + std::to_string(pool_size));
          RunResult r =
              RunOne(sc, flavor, strategy, pool_size, paged_setting);
          EXPECT_TRUE(r.converged) << "diverged from ground truth";
          EXPECT_EQ(r.totals, reference.totals)
              << "OperatorStats drifted from the resident run";
          EXPECT_TRUE(r.work == reference.work)
              << "kWork drifted: " << DiffWork(r.work, reference.work);
          if (!have_baseline) {
            baseline = r.paged;
            have_baseline = true;
          } else {
            // Fixed budget => fixed paging decisions, at every pool size.
            EXPECT_EQ(r.paged.faults, baseline.faults);
            EXPECT_EQ(r.paged.evictions, baseline.evictions);
            EXPECT_EQ(r.paged.spilled_partitions,
                      baseline.spilled_partitions);
            EXPECT_EQ(r.paged.spill_faults, baseline.spill_faults);
            EXPECT_EQ(r.paged.spill_writebacks, baseline.spill_writebacks);
          }
        }
      }
    }
  }
}

// Subplan-cache settings must not perturb extent paging: faults and
// evictions are executor-touch-point decisions, blind to whether a term's
// subplans hit a cache.  (The operator-spill counters ARE cache-dependent
// — a cache hit skips the join that would have spilled — and are kept out
// of `paged.faults` / `paged.evictions`, so they are exempt.)
TEST(PagedDifferentialProperty, PagingIsInvariantAcrossCacheSettings) {
  const uint64_t seed = testutil::PropertySeed(227);
  SCOPED_TRACE(testutil::SeedTrace(seed));

  for (Scenario& sc : MakeScenarios(seed)) {
    SCOPED_TRACE("scenario " + sc.name);
    const Strategy strategy = MakeStrategy(sc, Flavor::kMinWorkSeq);
    const RunResult no_cache = RunOne(sc, Flavor::kMinWorkSeq, strategy,
                                      /*pool_size=*/1, Paged::kTiny);
    ASSERT_TRUE(no_cache.converged);
    for (int64_t cache_budget : {int64_t{0}, int64_t{64} << 20}) {
      SCOPED_TRACE("cache budget " + std::to_string(cache_budget));
      SubplanCache cache(SubplanCacheOptions{cache_budget});
      RunResult r = RunOne(sc, Flavor::kMinWorkSeq, strategy,
                           /*pool_size=*/1, Paged::kTiny, &cache);
      EXPECT_TRUE(r.converged);
      EXPECT_EQ(r.paged.faults, no_cache.paged.faults);
      EXPECT_EQ(r.paged.evictions, no_cache.paged.evictions);
    }
  }
}

// Acceptance gate: the exp4 VDAG workload (TPC-D Q3/Q5/Q10, the paper's
// delete workload) at the tiny budget really exercises both mechanisms —
// extents hibernate AND at least one build side grace-spills — while the
// result stays bit-identical to the resident engine.
TEST(PagedDifferentialProperty, TpcdExp4WorkloadPagesAndSpills) {
  const uint64_t seed = testutil::PropertySeed(229);
  SCOPED_TRACE(testutil::SeedTrace(seed));

  tpcd::GeneratorOptions gen;
  gen.scale_factor = 0.01;
  gen.seed = seed;
  Warehouse w = tpcd::MakeTpcdWarehouse(gen, {"Q3", "Q5", "Q10"});
  tpcd::ApplyPaperChangeWorkload(&w, 0.10, 0.0, seed + 1);
  Catalog truth = testutil::GroundTruthAfterChanges(w);
  Scenario sc{"tpcd-exp4", std::move(w), std::move(truth)};
  const Strategy strategy = MakeStrategy(sc, Flavor::kMinWorkSeq);

  const RunResult reference = RunOne(sc, Flavor::kMinWorkSeq, strategy,
                                     /*pool_size=*/1, Paged::kNone);
  ASSERT_TRUE(reference.converged);

  for (int pool_size : kPoolSizes) {
    SCOPED_TRACE("pool " + std::to_string(pool_size));
    RunResult r = RunOne(sc, Flavor::kMinWorkSeq, strategy, pool_size,
                         Paged::kTiny);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.totals, reference.totals);
    EXPECT_TRUE(r.work == reference.work)
        << DiffWork(r.work, reference.work);
    EXPECT_GT(r.paged.evictions, 0) << "tiny budget never paged an extent";
    EXPECT_GT(r.paged.spilled_partitions, 0)
        << "tiny budget never grace-spilled a build side";
    EXPECT_GT(r.paged.spill_writebacks, 0)
        << "two-frame spill pools never wrote a frame back";
  }
}

}  // namespace
}  // namespace wuw
