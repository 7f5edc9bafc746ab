// Kernel-level differential for the hash join's three WUW_MEM_MB routes
// (algebra/hash_join.cc): with operator spills armed at thresholds chosen
// per input pair, HashJoin takes
//   * the resident route (build side under the threshold),
//   * the probe-side route (build side over it, probe side under it: the
//     vectorized kernel hashes the probe side and streams the build side
//     past it, no spill),
//   * the grace route (both sides over it: both partition through a spill),
// and each must reproduce the unarmed (vectorized) kernel and the naive
// reference join (tests/reference/) exactly: rows, row order and
// OperatorStats.  The resident and probe-side routes charge the
// vectorized kernel's `engine.vec.*` counters, predicted here from the
// inputs (rows, batches, one key mix per key column per row, one compare
// per key-equal pair, one dictionary lookup per distinct build-side key
// string) and no `engine.row.*`; the grace route charges `engine.row.*`
// (one KeyHash per key column per row, one compare per KeyHash-equal pair)
// and no `engine.vec.*`.  The route is asserted through
// `paged.probe_side_joins` and the spill counters (GlobalPagedStats).
// Inputs mix duplicate and NULL keys, single- and multi-column keys, zero
// and negative multiplicities, and empty sides.  Honors WUW_SEED.
#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/hash_join.h"
#include "algebra/key_util.h"
#include "algebra/operator_stats.h"
#include "algebra/row_batch.h"
#include "algebra/rows.h"
#include "obs/metrics.h"
#include "reference/reference_kernels.h"
#include "storage/page.h"
#include "storage/paged_store.h"
#include "test_util.h"

namespace wuw {
namespace {

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
    bytes += paged::ApproxRowBytes(tuple);
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
  obs::MetricsSnapshot vec_counters;
  int64_t probe_side_joins = 0;
  paged::PagedStatsSnapshot paged;
};

JoinRun RunJoin(const Rows& left, const Rows& right, const JoinKeys& keys,
                Route route, const std::vector<size_t>* columns = nullptr) {
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
  // Convert both inputs before metering, so every route's counters are
  // the join's own (the first run would otherwise pay the conversions).
  left.Columnar();
  right.Columnar();
  obs::ArmMetrics();
  obs::ResetMetrics();
  const paged::PagedStatsSnapshot before = paged::GlobalPagedStats();
  JoinRun run;
  run.out = HashJoin(left, right, keys, &run.stats, nullptr, nullptr, columns);
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
    } else if (name.rfind("engine.vec.", 0) == 0) {
      run.vec_counters.counters.emplace_back(name, value);
    } else if (name == "paged.probe_side_joins") {
      run.probe_side_joins = value;
    }
  }
  return run;
}

void KeyIndexes(const Rows& left, const Rows& right, const JoinKeys& keys,
                std::vector<size_t>* lidx, std::vector<size_t>* ridx) {
  for (const std::string& c : keys.left_columns) {
    lidx->push_back(left.schema.MustIndexOf(c));
  }
  for (const std::string& c : keys.right_columns) {
    ridx->push_back(right.schema.MustIndexOf(c));
  }
}

/// The `engine.vec.*` counters the vectorized kernel charges, in either
/// HashedSide mode: one row and one key mix per key column for every row
/// of both sides, one batch per kBatchRows rows of each side, one compare
/// per key-equal pair (NULL matches NULL; distinct keys never share the
/// kernel's 64-bit hash at these sizes), and one dictionary lookup per
/// distinct build-side string when a string key column is compared across
/// the two sides' dictionaries.  Zero counters are absent, as in a
/// snapshot; names are in snapshot (sorted) order.
obs::MetricsSnapshot VecKernelCounters(const Rows& left, const Rows& right,
                                       const JoinKeys& keys) {
  std::vector<size_t> lidx, ridx;
  KeyIndexes(left, right, keys, &lidx, &ridx);
  const int64_t ln = static_cast<int64_t>(left.size());
  const int64_t rn = static_cast<int64_t>(right.size());
  const int64_t per_batch = static_cast<int64_t>(kBatchRows);
  const int64_t arity = static_cast<int64_t>(lidx.size());
  int64_t cmps = 0, emitted = 0;
  for (const auto& [ltuple, lcount] : left.rows()) {
    for (const auto& [rtuple, rcount] : right.rows()) {
      if (!KeysEqual(ltuple, lidx, rtuple, ridx)) continue;
      ++cmps;
      if (lcount * rcount != 0) ++emitted;
    }
  }
  int64_t lookups = 0;
  for (size_t k = 0; k < ridx.size(); ++k) {
    if (right.schema.column(ridx[k]).type != TypeId::kString ||
        left.schema.column(lidx[k]).type != TypeId::kString) {
      continue;
    }
    std::set<std::string> distinct;
    for (const auto& [rtuple, rcount] : right.rows()) {
      const Value& v = rtuple.value(ridx[k]);
      if (!v.is_null()) distinct.insert(v.AsString());
    }
    lookups += static_cast<int64_t>(distinct.size());
  }
  obs::MetricsSnapshot expect;
  auto put = [&](const char* name, int64_t value) {
    if (value != 0) expect.counters.emplace_back(name, value);
  };
  put("engine.vec.batches",
      (ln + per_batch - 1) / per_batch + (rn + per_batch - 1) / per_batch);
  // Every emitted row gathers each column of left ++ right.
  put("engine.vec.cells_gathered",
      emitted * static_cast<int64_t>(left.schema.num_columns() +
                                     right.schema.num_columns()));
  put("engine.vec.key_cmps", cmps);
  put("engine.vec.key_mixes", (ln + rn) * arity);
  put("engine.vec.rows", ln + rn);
  put("engine.vec.value_hashes", lookups);
  return expect;
}

/// The `engine.row.*` counters the grace route charges: one KeyHash per
/// key column of every row, and one key compare per KeyHash-equal pair.
obs::MetricsSnapshot GraceRouteCounters(const Rows& left, const Rows& right,
                                        const JoinKeys& keys) {
  std::vector<size_t> lidx, ridx;
  KeyIndexes(left, right, keys, &lidx, &ridx);
  int64_t cmps = 0;
  for (const auto& [ltuple, lcount] : left.rows()) {
    for (const auto& [rtuple, rcount] : right.rows()) {
      if (KeyHash(ltuple, lidx) == KeyHash(rtuple, ridx)) ++cmps;
    }
  }
  obs::MetricsSnapshot expect;
  if (cmps > 0) expect.counters.emplace_back("engine.row.value_cmps", cmps);
  const int64_t hashes =
      static_cast<int64_t>((left.size() + right.size()) * lidx.size());
  if (hashes > 0) {
    expect.counters.emplace_back("engine.row.value_hashes", hashes);
  }
  return expect;
}

/// Runs every route applicable to (left, right) and compares it with the
/// unarmed kernel and the reference join byte for byte.
void CheckAllRoutes(const Rows& left, const Rows& right, const JoinKeys& keys) {
  // Under an env-armed WUW_MEM_MB the "unarmed" reference itself may
  // spill; every route must still agree with it.
  const bool env_armed = paged::EnvPaged() != nullptr;
  const JoinRun reference = RunJoin(left, right, keys, Route::kUnarmed);
  if (!env_armed) {
    EXPECT_EQ(reference.paged.spilled_partitions, 0);
  }
  OperatorStats oracle_stats;
  const Rows oracle = reference::Join(left, right, keys, &oracle_stats);
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
    ASSERT_EQ(run.out.rows().size(), oracle.rows().size());
    for (size_t i = 0; i < run.out.rows().size(); ++i) {
      ASSERT_EQ(run.out.rows()[i].first, reference.out.rows()[i].first)
          << "row " << i;
      ASSERT_EQ(run.out.rows()[i].second, reference.out.rows()[i].second)
          << "row " << i;
      ASSERT_EQ(run.out.rows()[i], oracle.rows()[i]) << "oracle row " << i;
    }
    EXPECT_EQ(run.stats, reference.stats);
    EXPECT_EQ(run.stats, oracle_stats);
    const bool grace = route == Route::kGrace;
    EXPECT_EQ(run.row_counters, grace ? GraceRouteCounters(left, right, keys)
                                      : obs::MetricsSnapshot{})
        << run.row_counters.ToString();
    EXPECT_EQ(run.vec_counters, grace ? obs::MetricsSnapshot{}
                                      : VecKernelCounters(left, right, keys))
        << run.vec_counters.ToString();
    EXPECT_EQ(run.probe_side_joins, route == Route::kProbeSide ? 1 : 0);
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

TEST(SpillJoinTest, EveryRouteMatchesTheUnarmedKernel) {
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

// A plan node that keeps a subset of left ++ right gets exactly those
// columns, in order, from every route, with the full join's rows, order
// and stats.
TEST(SpillJoinTest, EveryRouteEmitsOnlyTheKeptColumns) {
  const uint64_t seed = testutil::PropertySeed(337);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  std::mt19937_64 rng(seed);
  const Rows left = MakeSide("l", 40, &rng);
  const Rows right = MakeSide("r", 300, &rng);
  OperatorStats oracle_stats;
  const Rows full = reference::Join(left, right, kOneKey, &oracle_stats);
  const std::vector<std::vector<size_t>> subsets = {
      {}, {0}, {4}, {1, 3}, {0, 2, 5}, {0, 1, 2, 3, 4, 5}};
  for (const std::vector<size_t>& kept : subsets) {
    SCOPED_TRACE("kept " + std::to_string(kept.size()) + " columns");
    for (Route route : {Route::kUnarmed, Route::kResident, Route::kProbeSide,
                        Route::kGrace}) {
      SCOPED_TRACE("route " + RouteName(route));
      const JoinRun run = RunJoin(left, right, kOneKey, route, &kept);
      ASSERT_EQ(run.out.schema, full.schema.Project(kept));
      ASSERT_EQ(run.out.rows().size(), full.rows().size());
      for (size_t i = 0; i < full.rows().size(); ++i) {
        ASSERT_EQ(run.out.rows()[i].first, full.rows()[i].first.Project(kept))
            << "row " << i;
        ASSERT_EQ(run.out.rows()[i].second, full.rows()[i].second)
            << "row " << i;
      }
      EXPECT_EQ(run.stats, oracle_stats);
    }
  }
}

// A hand-checked case: the probe-side route hashes the probe side, yet it
// must emit in the vectorized kernel's nesting — probe rows ascending, each
// probe row's build matches in descending build order — with
// zero-multiplicity pairs dropped.  The build side streams past the probe
// side in batches, so it spans several to cross batch boundaries.
TEST(SpillJoinTest, ProbeSideRouteOrdersLikeTheKernelsNesting) {
  Schema ls({{"lk", TypeId::kInt64}, {"lv", TypeId::kInt64}});
  Schema rs({{"rk", TypeId::kInt64}, {"rv", TypeId::kInt64}});
  Rows left(ls);
  RowVec& lrows = left.mutable_rows();
  lrows.emplace_back(Tuple({Value::Int64(2), Value::Int64(0)}), 1);
  lrows.emplace_back(Tuple({Value::Int64(1), Value::Int64(1)}), -1);
  lrows.emplace_back(Tuple({Value::Int64(2), Value::Int64(2)}), 2);
  Rows right(rs);
  // A multiple of 12, so the last rows repeat the first twelve's keys and
  // multiplicities; over two batches long.
  const int64_t build_rows = 12 * 172;
  for (int64_t i = 0; i < build_rows; ++i) {
    right.mutable_rows().emplace_back(
        Tuple({Value::Int64(i % 3), Value::Int64(i)}),
        i % 4 == 3 ? 0 : (i % 2 == 0 ? 1 : -1));
  }
  const JoinKeys keys{{"lk"}, {"rk"}};
  const JoinRun reference = RunJoin(left, right, keys, Route::kUnarmed);
  const JoinRun probe_side = RunJoin(left, right, keys, Route::kProbeSide);
  ASSERT_FALSE(reference.out.rows().empty());
  // Probe row 0 (key 2) first; its newest build match (the last row, key
  // 2) has multiplicity 0, so the one before it with key 2 leads.
  EXPECT_EQ(reference.out.rows()[0].first.value(3),
            Value::Int64(build_rows - 4))
      << "unexpected kernel nesting";
  ASSERT_EQ(probe_side.out.rows().size(), reference.out.rows().size());
  for (size_t i = 0; i < reference.out.rows().size(); ++i) {
    EXPECT_EQ(probe_side.out.rows()[i], reference.out.rows()[i]) << "row " << i;
  }
  EXPECT_EQ(probe_side.stats, reference.stats);
  EXPECT_EQ(probe_side.probe_side_joins, 1);
  EXPECT_EQ(probe_side.paged.spilled_partitions, 0);
}

}  // namespace
}  // namespace wuw
