// Kernel-level differential for the hash join's three WUW_MEM_MB routes
// (algebra/hash_join.cc): with operator spills armed at thresholds chosen
// per input pair, HashJoin takes
//   * the resident route (build side under the threshold),
//   * the probe-side route (build side over it, probe side under it:
//     the probe side is hashed and the build side streams past, no spill),
//   * the grace route (both sides over it: both partition through a spill),
// and each must reproduce the unarmed sequential row kernel exactly: rows,
// row order, OperatorStats and the `engine.row.*` counters.  The route is
// asserted through the spill counters (GlobalPagedStats).  Inputs mix
// duplicate and NULL keys, single- and multi-column keys, zero and
// negative multiplicities, and empty sides.  Honors WUW_SEED.
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/hash_join.h"
#include "algebra/operator_stats.h"
#include "algebra/rows.h"
#include "algebra/vectorized.h"
#include "obs/metrics.h"
#include "storage/page.h"
#include "storage/paged_store.h"
#include "test_util.h"

namespace wuw {
namespace {

/// Forces the row kernels for the whole test: the vectorized join charges
/// `engine.vec.*` instead of `engine.row.*`, and the spill routes preempt
/// it anyway.
class RowKernelsOnly : public ::testing::Test {
 protected:
  void SetUp() override { vec::TestOnlySetEnabled(0); }
  void TearDown() override { vec::TestOnlySetEnabled(-1); }
};

enum class Route { kUnarmed, kResident, kProbeSide, kGrace };

std::string RouteName(Route r) {
  switch (r) {
    case Route::kUnarmed:
      return "unarmed";
    case Route::kResident:
      return "resident";
    case Route::kProbeSide:
      return "probe-side";
    case Route::kGrace:
      return "grace";
  }
  return "?";
}

/// Analytic bytes the spill gate compares (storage/page.h size model).
int64_t AnalyticBytes(const Rows& rows) {
  int64_t bytes = 0;
  for (const auto& [tuple, count] : rows.rows()) {
    bytes += paged::ApproxTupleBytes(tuple) + 8;
  }
  return bytes;
}

/// A side of `n` rows over (<p>k INT64, <p>s STRING, <p>v INT64): keys
/// drawn from a small domain (so keys repeat) with ~1/6 NULLs, and
/// multiplicities in [-2, 3] — zero included, which Rows::Add would drop.
Rows MakeSide(const std::string& p, size_t n, std::mt19937_64* rng) {
  Rows out(Schema({{p + "k", TypeId::kInt64},
                   {p + "s", TypeId::kString},
                   {p + "v", TypeId::kInt64}}));
  auto pick = [&](int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(*rng);
  };
  for (size_t i = 0; i < n; ++i) {
    Value k = pick(0, 5) == 0 ? Value::Null() : Value::Int64(pick(0, 6));
    Value s = pick(0, 5) == 0 ? Value::Null()
                              : Value::String("s" + std::to_string(pick(0, 2)));
    Tuple t({k, s, Value::Int64(pick(0, 3))});
    out.mutable_rows().emplace_back(std::move(t), pick(-2, 3));
  }
  return out;
}

constexpr size_t kPageBytes = 256;

struct JoinRun {
  Rows out;
  OperatorStats stats;
  obs::MetricsSnapshot row_counters;
  paged::PagedStatsSnapshot paged;
};

JoinRun RunJoin(const Rows& left, const Rows& right, const JoinKeys& keys,
                Route route) {
  paged::PagedOptions options;
  options.budget_bytes = 1 << 20;
  options.page_bytes = kPageBytes;  // spills span many frames
  options.partitions = 4;
  options.pool_bytes = 2 * kPageBytes;  // two-frame pool: spills write back
  const int64_t lb = AnalyticBytes(left);
  const int64_t rb = AnalyticBytes(right);
  switch (route) {
    case Route::kUnarmed:
      break;
    case Route::kResident:
      options.spill_bytes = std::max<int64_t>(1, rb);
      break;
    case Route::kProbeSide:
      options.spill_bytes = std::max<int64_t>(1, lb);
      break;
    case Route::kGrace:
      options.spill_bytes = std::max<int64_t>(1, std::min(lb, rb) - 1);
      break;
  }
  std::unique_ptr<paged::ScopedOperatorSpill> spill;
  if (route != Route::kUnarmed) {
    spill = std::make_unique<paged::ScopedOperatorSpill>(options);
  }
  obs::ArmMetrics();
  obs::ResetMetrics();
  const paged::PagedStatsSnapshot before = paged::GlobalPagedStats();
  JoinRun run;
  run.out = HashJoin(left, right, keys, &run.stats);
  const paged::PagedStatsSnapshot after = paged::GlobalPagedStats();
  run.paged.spilled_partitions =
      after.spilled_partitions - before.spilled_partitions;
  run.paged.spill_faults = after.spill_faults - before.spill_faults;
  run.paged.spill_writebacks =
      after.spill_writebacks - before.spill_writebacks;
  for (const auto& [name, value] :
       obs::SnapshotMetrics(obs::Mask(obs::MetricClass::kEngine)).counters) {
    if (name.rfind("engine.row.", 0) == 0) {
      run.row_counters.counters.emplace_back(name, value);
    }
  }
  return run;
}

/// Runs every route applicable to (left, right) and compares it with the
/// unarmed kernel byte for byte.
void CheckAllRoutes(const Rows& left, const Rows& right, const JoinKeys& keys) {
  // Under an env-armed WUW_MEM_MB the "unarmed" reference itself may
  // spill; every route must still agree with it.
  const bool env_armed = paged::EnvPaged() != nullptr;
  const JoinRun reference = RunJoin(left, right, keys, Route::kUnarmed);
  if (!env_armed) {
    EXPECT_EQ(reference.paged.spilled_partitions, 0);
  }
  const int64_t lb = AnalyticBytes(left);
  const int64_t rb = AnalyticBytes(right);
  std::vector<Route> routes = {Route::kResident};
  if (rb > lb) routes.push_back(Route::kProbeSide);
  if (lb > 1 && rb > 1) routes.push_back(Route::kGrace);
  for (Route route : routes) {
    SCOPED_TRACE("route " + RouteName(route));
    const JoinRun run = RunJoin(left, right, keys, route);
    ASSERT_EQ(run.out.schema.ToString(), reference.out.schema.ToString());
    ASSERT_EQ(run.out.rows().size(), reference.out.rows().size());
    for (size_t i = 0; i < run.out.rows().size(); ++i) {
      ASSERT_EQ(run.out.rows()[i].first, reference.out.rows()[i].first)
          << "row " << i;
      ASSERT_EQ(run.out.rows()[i].second, reference.out.rows()[i].second)
          << "row " << i;
    }
    EXPECT_EQ(run.stats, reference.stats);
    EXPECT_TRUE(run.row_counters == reference.row_counters);
    switch (route) {
      case Route::kResident:
      case Route::kProbeSide:
        EXPECT_EQ(run.paged.spilled_partitions, 0);
        EXPECT_EQ(run.paged.spill_writebacks, 0);
        EXPECT_EQ(run.paged.spill_faults, 0);
        break;
      case Route::kGrace:
        EXPECT_GT(run.paged.spilled_partitions, 0);
        // Spill records are larger than their analytic bytes, so this much
        // input needs at least three pages — one more than the pool holds.
        if (lb + rb > 3 * static_cast<int64_t>(kPageBytes)) {
          EXPECT_GT(run.paged.spill_writebacks, 0);
        }
        break;
      case Route::kUnarmed:
        break;
    }
  }
}

const JoinKeys kOneKey{{"lk"}, {"rk"}};
const JoinKeys kTwoKeys{{"lk", "ls"}, {"rk", "rs"}};

TEST_F(RowKernelsOnly, EveryRouteMatchesTheUnarmedKernel) {
  const uint64_t seed = testutil::PropertySeed(331);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  std::mt19937_64 rng(seed);
  const std::pair<size_t, size_t> sizes[] = {
      {1, 40}, {7, 120}, {40, 300}, {120, 120}, {300, 60}, {0, 50}, {50, 0}};
  for (const JoinKeys* keys : {&kOneKey, &kTwoKeys}) {
    SCOPED_TRACE("key arity " + std::to_string(keys->left_columns.size()));
    for (const auto& [ln, rn] : sizes) {
      SCOPED_TRACE("sizes " + std::to_string(ln) + "x" + std::to_string(rn));
      const Rows left = MakeSide("l", ln, &rng);
      const Rows right = MakeSide("r", rn, &rng);
      CheckAllRoutes(left, right, *keys);
    }
  }
}

// A hand-checked case: the probe-side route hashes the probe side, yet it
// must emit in the sequential kernel's nesting — probe rows ascending, each
// probe row's build matches in descending build order — with
// zero-multiplicity pairs dropped.
TEST_F(RowKernelsOnly, ProbeSideRouteOrdersLikeTheSequentialNesting) {
  Schema ls({{"lk", TypeId::kInt64}, {"lv", TypeId::kInt64}});
  Schema rs({{"rk", TypeId::kInt64}, {"rv", TypeId::kInt64}});
  Rows left(ls);
  RowVec& lrows = left.mutable_rows();
  lrows.emplace_back(Tuple({Value::Int64(2), Value::Int64(0)}), 1);
  lrows.emplace_back(Tuple({Value::Int64(1), Value::Int64(1)}), -1);
  lrows.emplace_back(Tuple({Value::Int64(2), Value::Int64(2)}), 2);
  Rows right(rs);
  for (int64_t i = 0; i < 12; ++i) {
    right.mutable_rows().emplace_back(
        Tuple({Value::Int64(i % 3), Value::Int64(i)}),
        i % 4 == 3 ? 0 : (i % 2 == 0 ? 1 : -1));
  }
  const JoinKeys keys{{"lk"}, {"rk"}};
  const JoinRun reference = RunJoin(left, right, keys, Route::kUnarmed);
  const JoinRun probe_side = RunJoin(left, right, keys, Route::kProbeSide);
  ASSERT_FALSE(reference.out.rows().empty());
  // Probe row 0 (key 2) first; its newest build match (rv 11) has
  // multiplicity 0, so rv 8 leads.
  EXPECT_EQ(reference.out.rows()[0].first.value(3), Value::Int64(8))
      << "unexpected sequential nesting";
  ASSERT_EQ(probe_side.out.rows().size(), reference.out.rows().size());
  for (size_t i = 0; i < reference.out.rows().size(); ++i) {
    EXPECT_EQ(probe_side.out.rows()[i], reference.out.rows()[i]) << "row " << i;
  }
  EXPECT_EQ(probe_side.stats, reference.stats);
  EXPECT_EQ(probe_side.paged.spilled_partitions, 0);
}

}  // namespace
}  // namespace wuw
