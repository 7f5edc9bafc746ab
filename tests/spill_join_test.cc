// Kernel-level differential for the WUW_MEM_MB routes of the hash join
// (algebra/hash_join.cc) and the aggregate (algebra/vectorized.cc).  With
// operator spills armed at thresholds chosen per input pair, HashJoin
// takes
//   * the resident route (build side under the threshold),
//   * the probe-side route (build side over it, probe side under it: the
//     vectorized kernel hashes the probe side and streams the build side
//     past it, no spill),
//   * the grace route (both sides over it: both partition by key hash,
//     spill as column images, and the kernel runs on each partition read
//     back),
// and each must reproduce the unarmed kernel and the naive reference join
// (tests/reference/) exactly: rows, row order and OperatorStats.  Every
// route charges the vectorized kernel's `engine.vec.*` counters, predicted
// here from the inputs (rows, batches, one key mix per key column per row,
// one compare per key-equal pair, one dictionary lookup per distinct
// build-side key string); the grace route charges them per partition, plus
// one interned string per distinct string of each column of each
// partition it reads back.  The route is asserted through
// `paged.probe_side_joins` and the spill counters (GlobalPagedStats).
// AggregateSigned's grace route must likewise match the unarmed kernel
// and the reference group-by, double SUMs bit for bit.  Inputs mix
// duplicate and NULL keys, string keys, zero and negative
// multiplicities, and empty sides.  Honors WUW_SEED.
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/aggregate.h"
#include "algebra/hash_join.h"
#include "algebra/operator_stats.h"
#include "algebra/row_batch.h"
#include "algebra/rows.h"
#include "algebra/spill_util.h"
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
  return paged::ApproxImageBytes(*rows.Columnar());
}

/// A side of `n` rows over (<p>k INT64, <p>s STRING, <p>v INT64): keys
/// drawn from a small domain (so keys repeat) with ~1/6 NULLs, and
/// multiplicities in [-2, 3] — zero included, which Rows::Add would drop.
Rows MakeSide(const std::string& p, size_t n, std::mt19937_64* rng) {
  RowVec rows;
  auto pick = [&](int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(*rng);
  };
  for (size_t i = 0; i < n; ++i) {
    Value k = pick(0, 5) == 0 ? Value::Null() : Value::Int64(pick(0, 6));
    Value s = pick(0, 5) == 0 ? Value::Null()
                              : Value::String("s" + std::to_string(pick(0, 2)));
    rows.emplace_back(Tuple({k, s, Value::Int64(pick(0, 3))}), pick(-2, 3));
  }
  return testutil::MakeRows(Schema({{p + "k", TypeId::kInt64},
                                    {p + "s", TypeId::kString},
                                    {p + "v", TypeId::kInt64}}),
                            rows);
}

constexpr size_t kPageBytes = 256;
constexpr size_t kPartitions = 4;

/// A run of one operator on one route.
struct OpRun {
  Rows out;
  OperatorStats stats;
  obs::MetricsSnapshot vec_counters;
  int64_t probe_side_joins = 0;
  paged::PagedStatsSnapshot paged;
};

paged::PagedOptions SpillOptions(int64_t spill_bytes) {
  paged::PagedOptions options;
  options.budget_bytes = 1 << 20;
  options.page_bytes = kPageBytes;  // spills span many frames
  options.partitions = kPartitions;
  options.pool_bytes = 2 * kPageBytes;  // two-frame pool: spills write back
  options.spill_bytes = std::max<int64_t>(1, spill_bytes);
  return options;
}

/// Runs `op` (which fills `run->out` and `run->stats`) with operator
/// spills armed by `options` (null: unarmed), metering its counters.
template <typename Op>
OpRun Metered(const paged::PagedOptions* options, Op op) {
  std::unique_ptr<paged::ScopedOperatorSpill> spill;
  if (options != nullptr) {
    spill = std::make_unique<paged::ScopedOperatorSpill>(*options);
  }
  obs::ArmMetrics();
  obs::ResetMetrics();
  const paged::PagedStatsSnapshot before = paged::GlobalPagedStats();
  OpRun run;
  op(&run);
  const paged::PagedStatsSnapshot after = paged::GlobalPagedStats();
  run.paged.spilled_partitions =
      after.spilled_partitions - before.spilled_partitions;
  run.paged.spill_faults = after.spill_faults - before.spill_faults;
  run.paged.spill_writebacks =
      after.spill_writebacks - before.spill_writebacks;
  for (const auto& [name, value] :
       obs::SnapshotMetrics(obs::Mask(obs::MetricClass::kEngine)).counters) {
    if (name.rfind("engine.vec.", 0) == 0) {
      run.vec_counters.counters.emplace_back(name, value);
    } else if (name == "paged.probe_side_joins") {
      run.probe_side_joins = value;
    }
  }
  return run;
}

OpRun RunJoin(const Rows& left, const Rows& right, const JoinKeys& keys,
            Route route, const std::vector<size_t>* columns = nullptr) {
  const int64_t lb = AnalyticBytes(left);
  const int64_t rb = AnalyticBytes(right);
  int64_t spill_bytes = 0;
  switch (route) {
    case Route::kUnarmed:
      break;
    case Route::kResident:
      spill_bytes = rb;
      break;
    case Route::kProbeSide:
      spill_bytes = lb;
      break;
    case Route::kGrace:
      spill_bytes = std::min(lb, rb) - 1;
      break;
  }
  const paged::PagedOptions options = SpillOptions(spill_bytes);
  return Metered(route == Route::kUnarmed ? nullptr : &options, [&](OpRun* run) {
    run->out =
        HashJoin(left, right, keys, &run->stats, nullptr, nullptr, columns);
  });
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

/// Distinct non-NULL strings in column `c` of `rows`.
int64_t DistinctStrings(const RowVec& rows, size_t c) {
  std::set<std::string> distinct;
  for (const auto& [tuple, count] : rows) {
    const Value& v = tuple.value(c);
    if (!v.is_null()) distinct.insert(v.AsString());
  }
  return static_cast<int64_t>(distinct.size());
}

/// Adds to `totals` the `engine.vec.*` counters one vectorized join kernel
/// call charges on (left, right), in either HashedSide mode: one row and
/// one key mix per key column for every row of both sides, one batch per
/// kBatchRows rows of each side, one compare per key-equal pair (NULL
/// matches NULL; distinct keys never share the kernel's 64-bit hash at
/// these sizes), every column of left ++ right gathered for each emitted
/// row, and one dictionary lookup per distinct build-side string when a
/// string key column is compared across the two sides' dictionaries.
void AddKernelCounters(const Schema& ls, const RowVec& left, const Schema& rs,
                       const RowVec& right, const std::vector<size_t>& lidx,
                       const std::vector<size_t>& ridx,
                       std::map<std::string, int64_t>* totals) {
  const int64_t ln = static_cast<int64_t>(left.size());
  const int64_t rn = static_cast<int64_t>(right.size());
  const int64_t per_batch = static_cast<int64_t>(kBatchRows);
  int64_t cmps = 0, emitted = 0;
  for (const auto& [ltuple, lcount] : left) {
    for (const auto& [rtuple, rcount] : right) {
      if (!(ltuple.Project(lidx) == rtuple.Project(ridx))) continue;
      ++cmps;
      if (lcount * rcount != 0) ++emitted;
    }
  }
  int64_t lookups = 0;
  for (size_t k = 0; k < ridx.size(); ++k) {
    if (rs.column(ridx[k]).type == TypeId::kString &&
        ls.column(lidx[k]).type == TypeId::kString) {
      lookups += DistinctStrings(right, ridx[k]);
    }
  }
  std::map<std::string, int64_t>& t = *totals;
  t["engine.vec.batches"] +=
      (ln + per_batch - 1) / per_batch + (rn + per_batch - 1) / per_batch;
  t["engine.vec.cells_gathered"] +=
      emitted * static_cast<int64_t>(ls.num_columns() + rs.num_columns());
  t["engine.vec.key_cmps"] += cmps;
  t["engine.vec.key_mixes"] += (ln + rn) * static_cast<int64_t>(lidx.size());
  t["engine.vec.rows"] += ln + rn;
  t["engine.vec.value_hashes"] += lookups;
}

/// `totals` as a snapshot: zero counters absent, names in sorted order.
obs::MetricsSnapshot Snapshot(const std::map<std::string, int64_t>& totals) {
  obs::MetricsSnapshot out;
  for (const auto& [name, value] : totals) {
    if (value != 0) out.counters.emplace_back(name, value);
  }
  return out;
}

/// The counters of the resident and probe-side routes: one kernel call.
obs::MetricsSnapshot VecKernelCounters(const Rows& left, const Rows& right,
                                       const JoinKeys& keys) {
  std::vector<size_t> lidx, ridx;
  KeyIndexes(left, right, keys, &lidx, &ridx);
  std::map<std::string, int64_t> totals;
  AddKernelCounters(left.schema, testutil::RowsOf(left), right.schema,
                    testutil::RowsOf(right), lidx, ridx, &totals);
  return Snapshot(totals);
}

/// The counters of the grace route: one kernel call per partition on its
/// two sides, each side read back with one fresh dictionary per string
/// column (one interned string per distinct string).
obs::MetricsSnapshot GraceRouteCounters(const Rows& left, const Rows& right,
                                        const JoinKeys& keys) {
  std::vector<size_t> lidx, ridx;
  KeyIndexes(left, right, keys, &lidx, &ridx);
  const RowVec lrows = testutil::RowsOf(left);
  const RowVec rrows = testutil::RowsOf(right);
  const auto lparts = spill::PartitionRows(*left.Columnar(), lidx, kPartitions);
  const auto rparts =
      spill::PartitionRows(*right.Columnar(), ridx, kPartitions);
  auto rows_of = [](const RowVec& rows, const std::vector<uint32_t>& ids) {
    RowVec out;
    for (uint32_t id : ids) out.push_back(rows[id]);
    return out;
  };
  auto interned = [](const Schema& schema, const RowVec& rows) {
    int64_t n = 0;
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      if (schema.column(c).type == TypeId::kString) {
        n += DistinctStrings(rows, c);
      }
    }
    return n;
  };
  std::map<std::string, int64_t> totals;
  for (size_t p = 0; p < kPartitions; ++p) {
    const RowVec lp = rows_of(lrows, lparts[p]);
    const RowVec rp = rows_of(rrows, rparts[p]);
    AddKernelCounters(left.schema, lp, right.schema, rp, lidx, ridx, &totals);
    totals["engine.vec.value_hashes"] +=
        interned(left.schema, lp) + interned(right.schema, rp);
  }
  return Snapshot(totals);
}

/// Byte-identical: same tuples, cell types (doubles bit for bit) and
/// multiplicities, in the same order.
void ExpectIdentical(const RowVec& expect, const RowVec& got,
                     const std::string& what) {
  ASSERT_EQ(expect.size(), got.size()) << what;
  for (size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(expect[i].second, got[i].second) << what << " row " << i;
    const Tuple& a = expect[i].first;
    const Tuple& b = got[i].first;
    ASSERT_EQ(a.size(), b.size()) << what << " row " << i;
    for (size_t c = 0; c < a.size(); ++c) {
      const Value& x = a.value(c);
      const Value& y = b.value(c);
      ASSERT_EQ(x.type(), y.type()) << what << " row " << i << " col " << c;
      if (x.type() == TypeId::kDouble) {
        const double dx = x.AsDouble(), dy = y.AsDouble();
        ASSERT_EQ(std::memcmp(&dx, &dy, sizeof(dx)), 0)
            << what << " row " << i << " col " << c;
      } else {
        ASSERT_TRUE(x == y) << what << " row " << i << " col " << c;
      }
    }
  }
}

/// Runs every route applicable to (left, right) and compares it with the
/// unarmed kernel and the reference join byte for byte.
void CheckAllRoutes(const Rows& left, const Rows& right, const JoinKeys& keys) {
  // Under an env-armed WUW_MEM_MB the "unarmed" reference itself may
  // spill; every route must still agree with it.
  const bool env_armed = paged::EnvPaged() != nullptr;
  const OpRun reference = RunJoin(left, right, keys, Route::kUnarmed);
  if (!env_armed) {
    EXPECT_EQ(reference.paged.spilled_partitions, 0);
  }
  OperatorStats oracle_stats;
  const Rows oracle = reference::Join(left, right, keys, &oracle_stats);
  const RowVec expect = testutil::RowsOf(reference.out);
  ExpectIdentical(testutil::RowsOf(oracle), expect, "oracle");
  const int64_t lb = AnalyticBytes(left);
  const int64_t rb = AnalyticBytes(right);
  std::vector<Route> routes = {Route::kResident};
  if (rb > lb) routes.push_back(Route::kProbeSide);
  if (lb > 1 && rb > 1) routes.push_back(Route::kGrace);
  for (Route route : routes) {
    SCOPED_TRACE("route " + RouteName(route));
    const OpRun run = RunJoin(left, right, keys, route);
    ASSERT_EQ(run.out.schema.ToString(), reference.out.schema.ToString());
    ExpectIdentical(expect, testutil::RowsOf(run.out), "kernel");
    EXPECT_EQ(run.stats, reference.stats);
    EXPECT_EQ(run.stats, oracle_stats);
    const bool grace = route == Route::kGrace;
    EXPECT_EQ(run.vec_counters, grace ? GraceRouteCounters(left, right, keys)
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
        // Every partition of both sides takes at least a page, more than
        // the two-frame pool holds.
        EXPECT_GT(run.paged.spill_writebacks, 0);
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
      const OpRun run = RunJoin(left, right, kOneKey, route, &kept);
      ASSERT_EQ(run.out.schema, full.schema.Project(kept));
      RowVec expect = testutil::RowsOf(full);
      for (auto& [tuple, count] : expect) tuple = tuple.Project(kept);
      ExpectIdentical(expect, testutil::RowsOf(run.out), "kept columns");
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
  RowVec lrows;
  lrows.emplace_back(Tuple({Value::Int64(2), Value::Int64(0)}), 1);
  lrows.emplace_back(Tuple({Value::Int64(1), Value::Int64(1)}), -1);
  lrows.emplace_back(Tuple({Value::Int64(2), Value::Int64(2)}), 2);
  const Rows left = testutil::MakeRows(ls, lrows);
  // A multiple of 12, so the last rows repeat the first twelve's keys and
  // multiplicities; over two batches long.
  const int64_t build_rows = 12 * 172;
  RowVec rrows;
  for (int64_t i = 0; i < build_rows; ++i) {
    rrows.emplace_back(Tuple({Value::Int64(i % 3), Value::Int64(i)}),
                       i % 4 == 3 ? 0 : (i % 2 == 0 ? 1 : -1));
  }
  const Rows right = testutil::MakeRows(rs, rrows);
  const JoinKeys keys{{"lk"}, {"rk"}};
  const OpRun reference = RunJoin(left, right, keys, Route::kUnarmed);
  const OpRun probe_side = RunJoin(left, right, keys, Route::kProbeSide);
  const RowVec expect = testutil::RowsOf(reference.out);
  ASSERT_FALSE(expect.empty());
  // Probe row 0 (key 2) first; its newest build match (the last row, key
  // 2) has multiplicity 0, so the one before it with key 2 leads.
  EXPECT_EQ(expect[0].first.value(3), Value::Int64(build_rows - 4))
      << "unexpected kernel nesting";
  ExpectIdentical(expect, testutil::RowsOf(probe_side.out), "probe side");
  EXPECT_EQ(probe_side.stats, reference.stats);
  EXPECT_EQ(probe_side.probe_side_joins, 1);
  EXPECT_EQ(probe_side.paged.spilled_partitions, 0);
}

// ---------------------------------------------------------------------------
// The aggregate's grace route.

/// `n` rows over (gk INT, gs STRING, v INT, d DOUBLE): keys from a small
/// domain (so groups repeat) with ~1/6 NULLs in every column, and
/// multiplicities in [-2, 3], zero included.
Rows MakeAggInput(size_t n, std::mt19937_64* rng) {
  RowVec rows;
  auto pick = [&](int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(*rng);
  };
  auto maybe = [&](Value v) { return pick(0, 5) == 0 ? Value::Null() : v; };
  for (size_t i = 0; i < n; ++i) {
    rows.emplace_back(
        Tuple({maybe(Value::Int64(pick(0, 40))),
               maybe(Value::String("g" + std::to_string(pick(0, 12)))),
               maybe(Value::Int64(pick(-1000, 1000))),
               maybe(Value::Double(static_cast<double>(pick(-99999, 99999)) /
                                   7.0))}),
        pick(-2, 3));
  }
  return testutil::MakeRows(Schema({{"gk", TypeId::kInt64},
                                    {"gs", TypeId::kString},
                                    {"v", TypeId::kInt64},
                                    {"d", TypeId::kDouble}}),
                            rows);
}

/// SUM(v) (int), SUM(d) and SUM(v * 0.1) (double) and COUNT.
std::vector<AggSpec> AggSpecs() {
  return {
      AggSpec{AggFn::kSum, ScalarExpr::Column("v"), "sv"},
      AggSpec{AggFn::kSum, ScalarExpr::Column("d"), "sd"},
      AggSpec{AggFn::kSum,
              ScalarExpr::Arith(ArithOp::kMul, ScalarExpr::Column("v"),
                                ScalarExpr::Literal(Value::Double(0.1))),
              "sx"},
      AggSpec{AggFn::kCount, nullptr, "n"},
  };
}

OpRun RunAggregate(const Rows& input, const std::vector<std::string>& group_by,
                 bool grace) {
  const paged::PagedOptions options = SpillOptions(AnalyticBytes(input) - 1);
  return Metered(grace ? &options : nullptr, [&](OpRun* run) {
    run->out = AggregateSigned(input, group_by, AggSpecs(), &run->stats);
  });
}

TEST(SpillAggregateTest, GraceRouteMatchesTheUnarmedKernel) {
  const uint64_t seed = testutil::PropertySeed(347);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  std::mt19937_64 rng(seed);
  const bool env_armed = paged::EnvPaged() != nullptr;
  const std::vector<std::vector<std::string>> groupings = {
      {"gk"}, {"gs"}, {"gk", "gs"}, {"gs", "gk"}};
  for (size_t n : {size_t{1}, size_t{37}, kBatchRows - 1, kBatchRows,
                   kBatchRows + 1, 2 * kBatchRows + 5}) {
    SCOPED_TRACE("rows " + std::to_string(n));
    const Rows input = MakeAggInput(n, &rng);
    for (const std::vector<std::string>& group_by : groupings) {
      SCOPED_TRACE("group by " + group_by[0] +
                   (group_by.size() > 1 ? ", " + group_by[1] : ""));
      const OpRun unarmed = RunAggregate(input, group_by, /*grace=*/false);
      if (!env_armed) {
        EXPECT_EQ(unarmed.paged.spilled_partitions, 0);
      }
      OperatorStats oracle_stats;
      const Rows oracle =
          reference::Aggregate(input, group_by, AggSpecs(), &oracle_stats);
      const RowVec expect = testutil::RowsOf(unarmed.out);
      ExpectIdentical(testutil::RowsOf(oracle), expect, "oracle");
      EXPECT_EQ(unarmed.stats, oracle_stats);

      const OpRun grace = RunAggregate(input, group_by, /*grace=*/true);
      ASSERT_EQ(grace.out.schema, unarmed.out.schema);
      ExpectIdentical(expect, testutil::RowsOf(grace.out), "grace");
      EXPECT_EQ(grace.stats, unarmed.stats);
      EXPECT_GT(grace.paged.spilled_partitions, 0);
    }
  }
}

}  // namespace
}  // namespace wuw
