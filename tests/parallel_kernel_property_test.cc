// Lockstep property tests for morsel-driven intra-operator parallelism.
//
// The contract under test (parallel/thread_pool.h): the pool schedules
// WHERE work runs, never WHAT it computes.  So every kernel and every
// executor must produce byte-identical output — rows, row ORDER, and
// merged OperatorStats — at every pool size, with and without a subplan
// cache attached.
//
//   * kernel lockstep: HashJoin / AggregateSigned / Filter / Project on
//     random signed multisets big enough to cross kMinParallelRows,
//     sequential vs pools {2, 8};
//   * strategy lockstep: random VDAGs executed at WUW_THREADS-equivalent
//     pool sizes {1, 2, 8} x cache budgets {none, 0, 256MB}, checked
//     against the recompute ground truth AND against each other
//     (identical merged totals and linear work across pool sizes);
//   * staged lockstep: the same invariant through staged Executor runs, where
//     stage workers, term workers, and morsel kernels share one pool.
//
// All suites honor WUW_SEED and print a one-command repro on failure.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algebra/aggregate.h"
#include "algebra/filter.h"
#include "algebra/hash_join.h"
#include "algebra/project.h"
#include "core/min_work.h"
#include "core/strategy_space.h"
#include "exec/executor.h"
#include "parallel/parallel_strategy.h"
#include "parallel/thread_pool.h"
#include "plan/subplan_cache.h"
#include "test_util.h"

namespace wuw {
namespace {

// Pools reused across tests (spawning threads per TEST_P row is pure
// overhead).  Sizes 2 and 8 both exceed the 1-core CI floor on purpose:
// determinism must hold when workers time-slice, not just when they map
// 1:1 onto cores.
ThreadPool& Pool2() {
  static ThreadPool* p = new ThreadPool(2);
  return *p;
}
ThreadPool& Pool8() {
  static ThreadPool* p = new ThreadPool(8);
  return *p;
}
ThreadPool& Pool1() {
  static ThreadPool* p = new ThreadPool(1);
  return *p;
}

/// Random signed multiset with schema (<p>_k INT, <p>_v INT, <p>_g INT,
/// <p>_d DOUBLE): join-friendly keys, small groups, a double column so the
/// bit-identical-SUM claim is exercised on floating point, multiplicities
/// in [-3, 3] \ {0} so signed-delta semantics are in play.
Rows RandomRows(const std::string& p, size_t n, int64_t key_range,
                tpcd::Rng* rng) {
  Rows out(Schema({{p + "_k", TypeId::kInt64},
                   {p + "_v", TypeId::kInt64},
                   {p + "_g", TypeId::kInt64},
                   {p + "_d", TypeId::kDouble}}));
  out.rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    int64_t k = rng->Range(1, key_range);
    int64_t mult = rng->Range(1, 3) * (rng->Below(4) == 0 ? -1 : 1);
    out.Add(Tuple({Value::Int64(k), Value::Int64(rng->Range(-50, 99)),
                   Value::Int64(k % 5),
                   Value::Double(static_cast<double>(rng->Range(-9999, 9999)) /
                                 7.0)}),
            mult);
  }
  return out;
}

/// Byte-identical comparison: same length, same tuples in the same ORDER
/// with the same multiplicities.  (Table::ContentsEqual is order-blind;
/// the morsel kernels promise more than that.)
void ExpectRowsIdentical(const Rows& expect, const Rows& got) {
  ASSERT_EQ(expect.rows.size(), got.rows.size());
  for (size_t i = 0; i < expect.rows.size(); ++i) {
    ASSERT_EQ(expect.rows[i].second, got.rows[i].second) << "row " << i;
    ASSERT_TRUE(expect.rows[i].first == got.rows[i].first) << "row " << i;
  }
}

class KernelLockstepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KernelLockstepTest, HashJoinMatchesSequentialAtEveryPoolSize) {
  const uint64_t seed = GetParam() + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
  Rows left = RandomRows("l", 20000, 4000, &rng);
  Rows right = RandomRows("r", 12000, 4000, &rng);
  JoinKeys keys{{"l_k"}, {"r_k"}};

  OperatorStats seq_stats;
  Rows seq = HashJoin(left, right, keys, &seq_stats, nullptr);
  for (ThreadPool* pool : {&Pool1(), &Pool2(), &Pool8()}) {
    SCOPED_TRACE("pool=" + std::to_string(pool->parallelism()));
    OperatorStats par_stats;
    Rows par = HashJoin(left, right, keys, &par_stats, pool);
    ExpectRowsIdentical(seq, par);
    EXPECT_EQ(seq_stats, par_stats);
  }
  // Below the threshold the gate must fall back to the sequential path.
  Rows small_l = RandomRows("l", 300, 80, &rng);
  Rows small_r = RandomRows("r", 200, 80, &rng);
  OperatorStats small_seq_stats, small_par_stats;
  Rows small_seq = HashJoin(small_l, small_r, keys, &small_seq_stats, nullptr);
  Rows small_par = HashJoin(small_l, small_r, keys, &small_par_stats, &Pool8());
  ExpectRowsIdentical(small_seq, small_par);
  EXPECT_EQ(small_seq_stats, small_par_stats);
}

TEST_P(KernelLockstepTest, AggregateMatchesSequentialAtEveryPoolSize) {
  const uint64_t seed = GetParam() + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
  Rows input = RandomRows("t", 24000, 6000, &rng);
  std::vector<AggSpec> aggs = {
      {AggFn::kSum, ScalarExpr::Column("t_v"), "sv"},
      {AggFn::kSum, ScalarExpr::Column("t_d"), "sd"},  // double SUM: bits
      {AggFn::kCount, nullptr, "n"}};
  // Few fat groups and many small groups stress opposite ends of the
  // partitioned merge.
  for (const char* group_col : {"t_g", "t_k"}) {
    SCOPED_TRACE(std::string("group_by=") + group_col);
    OperatorStats seq_stats;
    Rows seq = AggregateSigned(input, {group_col}, aggs, &seq_stats, nullptr);
    for (ThreadPool* pool : {&Pool1(), &Pool2(), &Pool8()}) {
      SCOPED_TRACE("pool=" + std::to_string(pool->parallelism()));
      OperatorStats par_stats;
      Rows par = AggregateSigned(input, {group_col}, aggs, &par_stats, pool);
      ExpectRowsIdentical(seq, par);
      EXPECT_EQ(seq_stats, par_stats);
    }
  }
}

TEST_P(KernelLockstepTest, FilterAndProjectMatchSequentialAtEveryPoolSize) {
  const uint64_t seed = GetParam() + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
  Rows input = RandomRows("t", 20000, 5000, &rng);
  ScalarExpr::Ptr pred =
      ScalarExpr::Compare(CompareOp::kLt, ScalarExpr::Column("t_v"),
                          ScalarExpr::Literal(Value::Int64(40)));
  std::vector<ProjectItem> items = {
      {ScalarExpr::Column("t_k"), "k"},
      {ScalarExpr::Arith(ArithOp::kAdd, ScalarExpr::Column("t_v"),
                         ScalarExpr::Column("t_g")),
       "vg"}};
  OperatorStats f_seq_stats, p_seq_stats;
  Rows f_seq = Filter(input, pred, &f_seq_stats, nullptr);
  Rows p_seq = Project(input, items, &p_seq_stats, nullptr);
  for (ThreadPool* pool : {&Pool1(), &Pool2(), &Pool8()}) {
    SCOPED_TRACE("pool=" + std::to_string(pool->parallelism()));
    OperatorStats f_stats, p_stats;
    Rows f = Filter(input, pred, &f_stats, pool);
    Rows p = Project(input, items, &p_stats, pool);
    ExpectRowsIdentical(f_seq, f);
    EXPECT_EQ(f_seq_stats, f_stats);
    ExpectRowsIdentical(p_seq, p);
    EXPECT_EQ(p_seq_stats, p_stats);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelLockstepTest,
                         ::testing::Values(101, 202, 303));

// End-to-end: random VDAG strategies executed at pool sizes {1, 2, 8} and
// cache budgets {none, 0, 256MB} all converge to the recompute ground
// truth with identical merged OperatorStats and linear work.  Base tables
// are sized past kMinParallelRows so the morsel paths genuinely engage.
struct StrategyScenario {
  uint64_t seed;
  size_t bases;
  size_t derived;
};

class StrategyLockstepTest
    : public ::testing::TestWithParam<StrategyScenario> {};

TEST_P(StrategyLockstepTest, PoolSizeAndCacheBudgetNeverChangeResults) {
  const StrategyScenario& sc = GetParam();
  const uint64_t seed = sc.seed + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
  Vdag vdag = testutil::RandomVdag(&rng, sc.bases, sc.derived);
  Warehouse w = testutil::MakeLoadedWarehouse(vdag, 12000, seed * 31 + 1);
  testutil::ApplyTripleChanges(&w, 0.08, 400, seed * 17 + 3);
  Catalog truth = testutil::GroundTruthAfterChanges(w);

  Strategy strategy = MinWork(vdag, w.EstimatedSizes()).strategy;
  for (int64_t budget : {int64_t{-1}, int64_t{0}, int64_t{256} << 20}) {
    SCOPED_TRACE("cache_budget=" + std::to_string(budget));
    bool have_baseline = false;
    OperatorStats baseline_totals;
    int64_t baseline_work = 0;
    for (ThreadPool* pool : {&Pool1(), &Pool2(), &Pool8()}) {
      SCOPED_TRACE("pool=" + std::to_string(pool->parallelism()));
      // Fresh cache per run: hit/miss sequences are deterministic, so
      // cache counters must also agree across pool sizes.
      SubplanCache cache(SubplanCacheOptions{budget});
      Warehouse clone = w.Clone();
      ExecutorOptions options;
      options.pool = pool;
      if (budget >= 0) options.subplan_cache = &cache;
      Executor executor(&clone, options);
      ExecutionReport report = executor.Execute(strategy);
      ASSERT_TRUE(clone.catalog().ContentsEqual(truth));
      if (!have_baseline) {
        have_baseline = true;
        baseline_totals = report.totals;
        baseline_work = report.total_linear_work;
      } else {
        EXPECT_EQ(baseline_totals, report.totals);
        EXPECT_EQ(baseline_work, report.total_linear_work);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StrategyLockstepTest,
    ::testing::Values(StrategyScenario{21, 2, 2}, StrategyScenario{22, 3, 2},
                      StrategyScenario{23, 2, 3}),
    [](const ::testing::TestParamInfo<StrategyScenario>& info) {
      return "seed" + std::to_string(info.param.seed) + "_b" +
             std::to_string(info.param.bases) + "d" +
             std::to_string(info.param.derived);
    });

// The staged executor layers stage workers + term workers + morsel kernels
// on ONE pool; the result and merged totals must still be pool-size
// independent and equal to the ground truth.
TEST(ParallelExecutorLockstepTest, StagedRunsArePoolSizeIndependent) {
  const uint64_t seed = testutil::PropertySeed(4242);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
  Vdag vdag = testutil::RandomVdag(&rng, 3, 2);
  Warehouse w = testutil::MakeLoadedWarehouse(vdag, 12000, seed + 5);
  testutil::ApplyTripleChanges(&w, 0.1, 300, seed + 9);
  Catalog truth = testutil::GroundTruthAfterChanges(w);

  Strategy dual = MakeDualStageVdagStrategy(vdag);
  ParallelStrategy staged = ParallelizeStrategy(vdag, dual);
  bool have_baseline = false;
  OperatorStats baseline_totals;
  for (ThreadPool* pool : {&Pool1(), &Pool8()}) {
    SCOPED_TRACE("pool=" + std::to_string(pool->parallelism()));
    Warehouse clone = w.Clone();
    ExecutorOptions options;
    options.workers = 4;
    options.term_workers = 2;
    options.pool = pool;
    Executor executor(&clone, options);
    ExecutionReport report = executor.Execute(staged);
    ASSERT_TRUE(clone.catalog().ContentsEqual(truth));
    if (!have_baseline) {
      have_baseline = true;
      baseline_totals = report.totals;
    } else {
      EXPECT_EQ(baseline_totals, report.totals);
    }
  }
}

}  // namespace
}  // namespace wuw
