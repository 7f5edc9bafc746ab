// Audit of merged OperatorStats under shared-subplan memoization: a
// SubplanCache hit replays a materialized intermediate instead of
// re-running its operators, so NONE of the per-operator counters may
// accrue for the skipped subtree — and a merge bug that double-counted
// rows on the hit path would break every "cheaper with cache" claim in
// EXPERIMENTS.md.  Same eager-vs-cached oracle shape as the staleness
// suite in subplan_cache_property_test.cc, aimed at the counters instead
// of the contents.
#include <gtest/gtest.h>

#include "core/min_work.h"
#include "core/strategy_space.h"
#include "exec/executor.h"
#include "parallel/parallel_strategy.h"
#include "parallel/thread_pool.h"
#include "plan/subplan_cache.h"
#include "test_util.h"
#include "view/comp_term.h"

namespace wuw {
namespace {

using testutil::ApplyTripleChanges;
using testutil::GroundTruthAfterChanges;
using testutil::MakeLoadedWarehouse;

/// Sums the per-expression stats of a report — the oracle the executor's
/// running `totals` must match exactly.
OperatorStats SumPerExpression(const std::vector<ExpressionReport>& per) {
  OperatorStats sum;
  for (const ExpressionReport& er : per) sum += er.stats;
  return sum;
}

ExecutionReport RunOnClone(const Warehouse& w, const Strategy& s,
                           SubplanCache* cache, Catalog* final_state) {
  Warehouse clone = w.Clone();
  ExecutorOptions options;
  options.subplan_cache = cache;
  ExecutionReport report = Executor(&clone, options).Execute(s);
  if (final_state != nullptr) *final_state = std::move(clone.catalog());
  return report;
}

// A fully warmed cache serves every cacheable subplan of a Comp, so a
// second EvalComp from the same state accrues zero operator work: no rows
// scanned or produced, no hash activity, no misses — only hits.  This is
// the sharpest form of the no-double-count invariant (no Inst noise).
TEST(OperatorStatsAuditTest, WarmCacheCompAccruesZeroOperatorWork) {
  Warehouse w = MakeLoadedWarehouse(testutil::MakeStarVdag("V", 3, false),
                                    60, /*seed=*/101);
  ApplyTripleChanges(&w, 0.2, 12, 103);

  SubplanCache cache(SubplanCacheOptions{/*byte_budget=*/-1});  // unbounded
  ThreadPool pool(1);
  CompEvalOptions options = MakeCompEvalOptions(
      &w, &cache, /*skip_empty_delta_terms=*/false, /*term_workers=*/1,
      &pool);
  const ViewDefinition& def = *w.vdag().definition("V");
  const std::vector<std::string>& over = w.vdag().sources("V");
  DeltaProvider deltas = [&w](const std::string& name) {
    return &w.base_delta(name);
  };

  // Cold pass: populates the cache; a dual-stage Comp over all three
  // sources has 2^3-1 terms with heavily shared join prefixes.
  OperatorStats cold;
  CompEvalResult cold_result =
      EvalComp(def, over, w.catalog(), deltas, options, &cold);
  ASSERT_EQ(cold_result.num_terms, 7);
  ASSERT_GT(cold.rows_scanned, 0);

  // Warm pass: identical state (EvalComp never mutates the warehouse), so
  // every cacheable subplan is served from the cache.
  OperatorStats warm;
  CompEvalResult warm_result =
      EvalComp(def, over, w.catalog(), deltas, options, &warm);

  EXPECT_GT(warm.subplan_cache_hits, 0);
  EXPECT_EQ(warm.subplan_cache_misses, 0);
  EXPECT_EQ(warm.rows_scanned, 0);
  EXPECT_EQ(warm.rows_produced, 0);
  EXPECT_EQ(warm.hash_probes, 0);
  EXPECT_EQ(warm.hash_build_rows, 0);

  // The replayed result is the real result, and the analytic work metric
  // never depends on where the rows came from.
  EXPECT_EQ(warm_result.num_terms, cold_result.num_terms);
  EXPECT_EQ(warm_result.linear_operand_work, cold_result.linear_operand_work);
  EXPECT_EQ(warm_result.raw_delta.rows().size(),
            cold_result.raw_delta.rows().size());
  EXPECT_EQ(warm_result.raw_delta.SignedCardinality(),
            cold_result.raw_delta.SignedCardinality());
  EXPECT_EQ(warm_result.raw_delta.AbsCardinality(),
            cold_result.raw_delta.AbsCardinality());
}

// Executor-level oracle: eager and cached runs converge identically, the
// cached run's scan volume goes down (never up), and in both runs the
// merged totals equal the sum of the per-expression reports.  Twin
// filtered views over the same two bases guarantee cross-expression
// sharing: under dual-stage, V2's Comp plan is node-for-node the same DAG
// V1's Comp already materialized, so cache hits on operator nodes (not
// just leaf scans) are structural, not incidental.
TEST(OperatorStatsAuditTest, CachedStrategyScansLessAndTotalsStayConsistent) {
  Vdag vdag;
  vdag.AddBaseView("A", testutil::TripleSchema("A"));
  vdag.AddBaseView("B", testutil::TripleSchema("B"));
  vdag.AddDerivedView(testutil::SpjTripleView("V1", {"A", "B"},
                                              /*with_filter=*/true));
  vdag.AddDerivedView(testutil::SpjTripleView("V2", {"A", "B"},
                                              /*with_filter=*/true));
  Warehouse w = MakeLoadedWarehouse(std::move(vdag), 80, /*seed=*/211);
  ApplyTripleChanges(&w, 0.15, 10, 223);
  Catalog truth = GroundTruthAfterChanges(w);

  struct Case {
    Strategy strategy;
    bool expect_hits;  // dual-stage: V2's Comp replays V1's whole plan
  };
  for (const Case& c :
       {Case{MakeDualStageVdagStrategy(w.vdag()), true},
        Case{MinWork(w.vdag(), w.EstimatedSizes()).strategy, false}}) {
    const Strategy& s = c.strategy;
    Catalog eager_state;
    ExecutionReport eager = RunOnClone(w, s, nullptr, &eager_state);
    ASSERT_TRUE(eager_state.ContentsEqual(truth)) << s.ToString();
    EXPECT_EQ(eager.totals, SumPerExpression(eager.per_expression))
        << "eager totals drifted from per-expression sum: " << s.ToString();
    EXPECT_EQ(eager.totals.subplan_cache_hits, 0);
    EXPECT_EQ(eager.totals.subplan_cache_misses, 0);

    SubplanCache cache(SubplanCacheOptions{/*byte_budget=*/-1});
    Catalog cached_state;
    ExecutionReport cached = RunOnClone(w, s, &cache, &cached_state);
    ASSERT_TRUE(cached_state.ContentsEqual(truth)) << s.ToString();
    EXPECT_EQ(cached.totals, SumPerExpression(cached.per_expression))
        << "cached totals drifted from per-expression sum: " << s.ToString();

    // A hit short-circuits the subtree it replays: scan volume must never
    // exceed the eager run's (the double-count regression this suite
    // exists for), and where sharing is guaranteed it is strictly lower.
    EXPECT_LE(cached.totals.rows_scanned, eager.totals.rows_scanned)
        << s.ToString();
    EXPECT_LE(cached.totals.rows_produced, eager.totals.rows_produced)
        << s.ToString();
    if (c.expect_hits) {
      EXPECT_GT(cached.totals.subplan_cache_hits, 0) << s.ToString();
      EXPECT_LT(cached.totals.rows_scanned, eager.totals.rows_scanned)
          << s.ToString();
    }
    EXPECT_EQ(cached.total_linear_work, eager.total_linear_work)
        << s.ToString();
  }
}

// Second run over a shared cache from the same state: every comp subplan
// is already materialized, so only Inst-side work (finalize + install)
// remains.  Misses stay at zero — a nonzero miss here means a fingerprint
// or version-key bug, the counter-side shadow of the staleness suite.
TEST(OperatorStatsAuditTest, SecondRunOverSharedCacheMissesNothing) {
  Warehouse w = MakeLoadedWarehouse(testutil::MakeStarVdag("V", 3, true), 70,
                                    /*seed=*/307);
  ApplyTripleChanges(&w, 0.25, 8, 311);
  Catalog truth = GroundTruthAfterChanges(w);
  Strategy s = MakeDualStageVdagStrategy(w.vdag());

  SubplanCache cache;  // default budget, shared by both runs
  Catalog first_state, second_state;
  ExecutionReport first = RunOnClone(w, s, &cache, &first_state);
  ExecutionReport second = RunOnClone(w, s, &cache, &second_state);

  ASSERT_TRUE(first_state.ContentsEqual(truth));
  ASSERT_TRUE(second_state.ContentsEqual(truth));
  ASSERT_GT(first.totals.subplan_cache_misses, 0);
  EXPECT_GT(second.totals.subplan_cache_hits, 0);
  EXPECT_EQ(second.totals.subplan_cache_misses, 0);
  EXPECT_LT(second.totals.rows_scanned, first.totals.rows_scanned);
  EXPECT_EQ(second.totals, SumPerExpression(second.per_expression));
}

// The stage-parallel executor merges each expression's counters from
// thread-local slots at the stage barrier; with a shared cache attached
// the same no-double-count discipline must hold for its totals.
TEST(OperatorStatsAuditTest, ParallelExecutorTotalsMatchPerExpressionSum) {
  Warehouse w = MakeLoadedWarehouse(testutil::MakeFig10Vdag(), 60,
                                    /*seed=*/401);
  ApplyTripleChanges(&w, 0.2, 10, 409);
  Catalog truth = GroundTruthAfterChanges(w);
  Strategy sequential = MinWork(w.vdag(), w.EstimatedSizes()).strategy;
  ParallelStrategy stages = ParallelizeStrategy(w.vdag(), sequential);

  SubplanCache cache(SubplanCacheOptions{/*byte_budget=*/-1});
  Warehouse clone = w.Clone();
  ExecutorOptions options;
  options.workers = 4;
  options.subplan_cache = &cache;
  ExecutionReport report = Executor(&clone, options).Execute(stages);

  ASSERT_TRUE(clone.catalog().ContentsEqual(truth));
  EXPECT_EQ(report.totals, SumPerExpression(report.per_expression));

  // And the merged totals still agree with the sequential executor's for
  // the strategy the stages were derived from, hit-for-hit not required —
  // but scan volume must never exceed the eager sequential baseline.
  Catalog eager_state;
  ExecutionReport eager = RunOnClone(w, sequential, nullptr, &eager_state);
  ASSERT_TRUE(eager_state.ContentsEqual(truth));
  EXPECT_LE(report.totals.rows_scanned, eager.totals.rows_scanned);
  EXPECT_EQ(report.total_linear_work, eager.total_linear_work);
}

}  // namespace
}  // namespace wuw
