// Property tests for the columnar core (storage/column_table.h,
// algebra/row_batch.h) and the vectorized kernels (algebra/vectorized.h).
//
// Two families of invariants:
//
//  * round-trip: Table / Rows <-> ColumnTable <-> RowBatch conversions are
//    EXACT — every cell rematerializes with its original TypeId, SortedRows
//    and ContentsEqual cannot tell the representations apart, per-column
//    min/max Stats match a row-order recompute, dictionary codes are dense
//    and consistent, negative multiplicities and clamped deletes survive,
//    and every batch's running signed/abs cardinality equals the O(n)
//    recompute at every WUW_BATCH_ROWS value (including the degenerate 1);
//
//  * differential: each vectorized kernel, at batch sizes {1, 3, default}
//    and pool sizes {sequential, 8}, produces byte-identical rows, row
//    ORDER, and OperatorStats to the row-at-a-time path it mirrors —
//    including null semantics, string dictionaries (same-dict and
//    cross-dict join keys), dates, and signed multiplicities.
//
// All suites honor WUW_SEED and print a one-command repro on failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "algebra/aggregate.h"
#include "algebra/filter.h"
#include "algebra/hash_join.h"
#include "algebra/project.h"
#include "algebra/row_batch.h"
#include "algebra/rows.h"
#include "algebra/vectorized.h"
#include "parallel/thread_pool.h"
#include "storage/column_table.h"
#include "storage/table.h"
#include "test_util.h"

namespace wuw {
namespace {

ThreadPool& Pool8() {
  static ThreadPool* p = new ThreadPool(8);
  return *p;
}

/// Scoped override of the columnar gate (restores the env-derived value).
struct VecGuard {
  explicit VecGuard(int mode) { vec::TestOnlySetEnabled(mode); }
  ~VecGuard() { vec::TestOnlySetEnabled(-1); }
};

/// Scoped override of the batch size (restores the env-derived value).
struct BatchGuard {
  explicit BatchGuard(size_t rows) { TestOnlySetBatchRows(rows); }
  ~BatchGuard() { TestOnlySetBatchRows(0); }
};

/// Random signed multiset over every cell type the engine stores:
/// (<p>_k INT, <p>_v INT nullable, <p>_d DOUBLE nullable, <p>_s STRING
/// nullable, <p>_t DATE).  Multiplicities in [-3, 3] \ {0} keep signed
/// semantics in play.  The default small string pool makes dictionaries
/// repeat and group-bys collide; join tests widen `str_domain` (and thin
/// the NULLs, which match each other as keys) to keep output sizes sane.
Rows RandomMixedRows(const std::string& p, size_t n, int64_t key_range,
                     tpcd::Rng* rng, int64_t str_domain = 23,
                     uint64_t null_every = 16) {
  Rows out(Schema({{p + "_k", TypeId::kInt64},
                   {p + "_v", TypeId::kInt64},
                   {p + "_d", TypeId::kDouble},
                   {p + "_s", TypeId::kString},
                   {p + "_t", TypeId::kDate}}));
  out.mutable_rows().reserve(n);
  for (size_t i = 0; i < n; ++i) {
    int64_t k = rng->Range(1, key_range);
    int64_t mult = rng->Range(1, 3) * (rng->Below(4) == 0 ? -1 : 1);
    Value v = rng->Below(null_every) == 0 ? Value::Null()
                                          : Value::Int64(rng->Range(-50, 99));
    Value d = rng->Below(null_every) == 0
                  ? Value::Null()
                  : Value::Double(
                        static_cast<double>(rng->Range(-9999, 9999)) / 7.0);
    Value s = rng->Below(null_every) == 0
                  ? Value::Null()
                  : Value::String("s" + std::to_string(rng->Range(0, str_domain)));
    Value t = Value::Date(1995, 1 + static_cast<int>(rng->Below(12)),
                          1 + static_cast<int>(rng->Below(28)));
    out.Add(Tuple({Value::Int64(k), std::move(v), std::move(d), std::move(s),
                   std::move(t)}),
            mult);
  }
  return out;
}

/// Byte-identical comparison: same tuples in the same ORDER with the same
/// multiplicities (ContentsEqual is order-blind; the kernels promise more).
void ExpectRowsIdentical(const Rows& expect, const Rows& got) {
  ASSERT_EQ(expect.rows().size(), got.rows().size());
  for (size_t i = 0; i < expect.rows().size(); ++i) {
    ASSERT_EQ(expect.rows()[i].second, got.rows()[i].second) << "row " << i;
    ASSERT_TRUE(expect.rows()[i].first == got.rows()[i].first) << "row " << i;
  }
}

class RoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RoundTripTest, FromRowsRoundTripsCellsCardsAndStats) {
  const uint64_t seed = GetParam() + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
  Rows rows = RandomMixedRows("t", 3000, 500, &rng);

  auto ct = ColumnTable::FromRows(rows.schema, rows.rows());
  ASSERT_NE(ct, nullptr);
  ASSERT_EQ(ct->num_rows(), rows.rows().size());
  int64_t signed_sum = 0, abs_sum = 0;
  for (size_t i = 0; i < rows.rows().size(); ++i) {
    // Exact cell round-trip: same value AND same TypeId (operator== treats
    // Int64(3) == Double(3.0); tuples compare cell-wise the same way, so
    // check types explicitly).
    Tuple back = ct->TupleAt(i);
    ASSERT_TRUE(back == rows.rows()[i].first) << "row " << i;
    for (size_t c = 0; c < rows.schema.num_columns(); ++c) {
      ASSERT_EQ(back.value(c).type(), rows.rows()[i].first.value(c).type())
          << "row " << i << " col " << c;
    }
    ASSERT_EQ(ct->mult()[i], rows.rows()[i].second) << "row " << i;
    signed_sum += rows.rows()[i].second;
    abs_sum += std::llabs(rows.rows()[i].second);
  }
  EXPECT_EQ(ct->SignedCardBetween(0, ct->num_rows()), signed_sum);
  EXPECT_EQ(ct->AbsCardBetween(0, ct->num_rows()), abs_sum);
  // O(1) prefix-sum ranges agree with the O(n) recompute on random slices.
  for (int trial = 0; trial < 32; ++trial) {
    size_t lo = rng.Below(ct->num_rows());
    size_t hi = lo + rng.Below(ct->num_rows() - lo + 1);
    int64_t s = 0, a = 0;
    for (size_t i = lo; i < hi; ++i) {
      s += ct->mult()[i];
      a += std::llabs(ct->mult()[i]);
    }
    ASSERT_EQ(ct->SignedCardBetween(lo, hi), s) << lo << ".." << hi;
    ASSERT_EQ(ct->AbsCardBetween(lo, hi), a) << lo << ".." << hi;
  }

  // Per-column min/max Stats match a row-order recompute over non-nulls.
  for (size_t c = 0; c < rows.schema.num_columns(); ++c) {
    bool has = false;
    Value lo, hi;
    for (const auto& [tuple, m] : rows.rows()) {
      const Value& v = tuple.value(c);
      if (v.is_null()) continue;
      if (!has || v < lo) lo = v;
      if (!has || hi < v) hi = v;
      has = true;
    }
    ColumnMinMax got = ct->Stats(c);
    ASSERT_EQ(got.has_values, has) << "col " << c;
    if (has) {
      EXPECT_TRUE(got.min == lo) << "col " << c;
      EXPECT_TRUE(got.max == hi) << "col " << c;
    }
  }

  // The Rows-level cache returns an equivalent table and memoizes it.
  auto cached = rows.Columnar();
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(cached.get(), rows.Columnar().get());
  EXPECT_EQ(cached->num_rows(), rows.rows().size());
  EXPECT_EQ(rows.SignedCardinality(), signed_sum);
  EXPECT_EQ(rows.AbsCardinality(), abs_sum);
}

TEST_P(RoundTripTest, DictionaryCodesAreDenseAndConsistent) {
  const uint64_t seed = GetParam() + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
  Rows rows = RandomMixedRows("t", 2000, 400, &rng);
  auto ct = ColumnTable::FromRows(rows.schema, rows.rows());
  ASSERT_NE(ct, nullptr);

  const size_t sc = rows.schema.num_columns() - 2;  // the _s column
  ASSERT_EQ(rows.schema.column(sc).type, TypeId::kString);
  const ColumnVec& col = ct->column(sc);
  ASSERT_NE(col.dict, nullptr);
  // Equal strings <-> equal codes; every code decodes to its source string;
  // Find inverts Intern; codes are dense in first-occurrence order.
  std::vector<std::string> first_seen;
  for (size_t i = 0; i < rows.rows().size(); ++i) {
    const Value& v = rows.rows()[i].first.value(sc);
    uint32_t code = col.codes[i];
    if (v.is_null()) {
      ASSERT_EQ(code, kNullStringCode) << "row " << i;
      continue;
    }
    ASSERT_LT(code, col.dict->size()) << "row " << i;
    ASSERT_EQ(col.dict->At(code), v.AsString()) << "row " << i;
    ASSERT_EQ(col.dict->Find(v.AsString()), code) << "row " << i;
    if (code == first_seen.size()) first_seen.push_back(v.AsString());
    ASSERT_LT(code, first_seen.size()) << "codes must be dense, row " << i;
    ASSERT_EQ(first_seen[code], v.AsString()) << "row " << i;
  }
  EXPECT_EQ(col.dict->size(), first_seen.size());
  EXPECT_EQ(col.dict->Find("never-interned"), kNullStringCode);
}

TEST_P(RoundTripTest, TableSnapshotSurvivesClampedDeletes) {
  const uint64_t seed = GetParam() + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
  Schema schema({{"k", TypeId::kInt64},
                 {"s", TypeId::kString},
                 {"v", TypeId::kInt64}});
  Table table(schema);
  // Random multiset churn, including deletes of absent tuples (Table clamps
  // the stored multiplicity at zero) and full deletes (swap-with-last).
  for (int i = 0; i < 4000; ++i) {
    Tuple t({Value::Int64(rng.Range(1, 120)),
             Value::String("g" + std::to_string(rng.Range(0, 7))),
             Value::Int64(rng.Range(1, 9))});
    int64_t count = rng.Below(5) == 0 ? -rng.Range(1, 6) : rng.Range(1, 3);
    int64_t result = table.Add(t, count);
    ASSERT_GE(result, 0) << "clamped multiplicity must stay non-negative";
  }

  auto snap = table.ColumnarSnapshot();
  ASSERT_NE(snap, nullptr);
  ASSERT_EQ(snap->num_rows(), table.distinct_size());
  // Rebuild a Table from the snapshot: multiset-equal, and the sorted
  // images match pair for pair (order-blind AND order-aware agreement).
  Table rebuilt(schema);
  for (size_t i = 0; i < snap->num_rows(); ++i) {
    ASSERT_GT(snap->mult()[i], 0) << "live table rows are positive";
    rebuilt.Add(snap->TupleAt(i), snap->mult()[i]);
  }
  EXPECT_TRUE(table.ContentsEqual(rebuilt));
  auto want = table.SortedRows();
  auto got = rebuilt.SortedRows();
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(want[i].first == got[i].first) << "row " << i;
    ASSERT_EQ(want[i].second, got[i].second) << "row " << i;
  }

  // A mutation invalidates the cache: the next snapshot sees the new row,
  // while the old shared_ptr stays alive and unchanged for prior holders.
  size_t before = snap->num_rows();
  table.Add(Tuple({Value::Int64(999999), Value::String("fresh"),
                   Value::Int64(1)}),
            2);
  auto snap2 = table.ColumnarSnapshot();
  ASSERT_NE(snap2, nullptr);
  EXPECT_EQ(snap->num_rows(), before);
  EXPECT_EQ(snap2->num_rows(), table.distinct_size());
  EXPECT_EQ(snap2.get(), table.ColumnarSnapshot().get());
}

TEST_P(RoundTripTest, BatchesCoverRowsAndCarryRunningCards) {
  const uint64_t seed = GetParam() + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
  Rows rows = RandomMixedRows("t", 2500, 300, &rng);
  auto ct = ColumnTable::FromRows(rows.schema, rows.rows());
  ASSERT_NE(ct, nullptr);

  for (size_t batch_rows : {size_t{1}, size_t{3}, kBatchRows}) {
    SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
    BatchGuard guard(batch_rows);
    ASSERT_EQ(BatchRows(), batch_rows);
    size_t next = 0;
    ForEachBatch(*ct, [&](const RowBatch& batch) {
      ASSERT_LE(batch.size(), batch_rows);
      int64_t s = 0, a = 0;
      for (size_t k = 0; k < batch.size(); ++k) {
        ASSERT_EQ(batch.row(k), next) << "batches must cover rows in order";
        s += ct->mult()[batch.row(k)];
        a += std::llabs(ct->mult()[batch.row(k)]);
        ++next;
      }
      ASSERT_EQ(batch.signed_card, s);
      ASSERT_EQ(batch.abs_card, a);
      batch.CheckCards();  // debug-build O(n) oracle

      // Narrowing keeps card bookkeeping exact for any subset.
      std::vector<uint32_t> keep;
      int64_t ks = 0, ka = 0;
      for (size_t k = 0; k < batch.size(); ++k) {
        if (rng.Below(2) == 0) continue;
        uint32_t id = static_cast<uint32_t>(batch.row(k));
        keep.push_back(id);
        ks += ct->mult()[id];
        ka += std::llabs(ct->mult()[id]);
      }
      size_t keep_n = keep.size();
      RowBatch narrowed = RowBatch::Select(batch, std::move(keep), ks, ka);
      ASSERT_EQ(narrowed.size(), keep_n);
      ASSERT_EQ(narrowed.signed_card, ks);
      ASSERT_EQ(narrowed.abs_card, ka);
      narrowed.CheckCards();
    });
    EXPECT_EQ(next, ct->num_rows());
  }
}

TEST_P(RoundTripTest, TypeViolatingRowsStayRowMajor) {
  const uint64_t seed = GetParam() + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
  // The row engine never checks declared types; a double smuggled into an
  // INT column is legal there but cannot round-trip through typed arrays.
  Rows rows(Schema({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}}));
  for (int i = 0; i < 100; ++i) {
    rows.Add(Tuple({Value::Int64(i), Value::Int64(rng.Range(0, 9))}), 1);
  }
  size_t bad = rng.Below(rows.rows().size());
  rows.mutable_rows()[bad].first = Tuple({Value::Int64(7), Value::Double(3.5)});
  EXPECT_EQ(ColumnTable::FromRows(rows.schema, rows.rows()), nullptr);
  EXPECT_EQ(rows.Columnar(), nullptr);
  // ...and the kernels silently stay on the row path for such inputs.
  VecGuard vec_on(1);
  OperatorStats stats;
  ScalarExpr::Ptr pred =
      ScalarExpr::Compare(CompareOp::kLt, ScalarExpr::Column("k"),
                          ScalarExpr::Literal(Value::Int64(50)));
  Rows filtered = Filter(rows, pred, &stats, nullptr);
  EXPECT_EQ(stats.rows_scanned, static_cast<int64_t>(rows.rows().size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripTest,
                         ::testing::Values(11, 22, 33));

// Differential harness: the row path (gate forced closed) is the oracle;
// the vectorized path must match it byte for byte — rows, row order, and
// OperatorStats — at every batch size and pool size.
class KernelDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  template <typename Run>
  void ExpectVecMatchesRowPath(const Run& run) {
    OperatorStats row_stats;
    Rows row_out;
    {
      VecGuard vec_off(0);
      row_out = run(&row_stats, nullptr);
    }
    VecGuard vec_on(1);
    for (size_t batch_rows : {size_t{1}, size_t{3}, size_t{0}}) {
      SCOPED_TRACE("batch_rows=" +
                   (batch_rows == 0 ? std::string("default")
                                    : std::to_string(batch_rows)));
      BatchGuard guard(batch_rows);
      for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &Pool8()}) {
        SCOPED_TRACE(pool == nullptr
                         ? std::string("pool=none")
                         : "pool=" + std::to_string(pool->parallelism()));
        OperatorStats vec_stats;
        Rows vec_out = run(&vec_stats, pool);
        ExpectRowsIdentical(row_out, vec_out);
        EXPECT_EQ(row_stats, vec_stats);
      }
    }
  }
};

TEST_P(KernelDifferentialTest, FilterMatchesRowPath) {
  const uint64_t seed = GetParam() + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
  Rows input = RandomMixedRows("t", 20000, 4000, &rng);
  // Numeric, string-equality, string-order, date, and null-feeding
  // predicates all have defined row-path semantics to mirror.
  std::vector<std::pair<const char*, ScalarExpr::Ptr>> predicates;
  predicates.emplace_back(
      "int_lt", ScalarExpr::Compare(CompareOp::kLt, ScalarExpr::Column("t_v"),
                                    ScalarExpr::Literal(Value::Int64(40))));
  predicates.emplace_back(
      "str_eq", ScalarExpr::Compare(CompareOp::kEq, ScalarExpr::Column("t_s"),
                                    ScalarExpr::Literal(Value::String("s7"))));
  predicates.emplace_back(
      "str_lt", ScalarExpr::Compare(CompareOp::kLt, ScalarExpr::Column("t_s"),
                                    ScalarExpr::Literal(Value::String("s2"))));
  predicates.emplace_back(
      "date_ge",
      ScalarExpr::Compare(CompareOp::kGe, ScalarExpr::Column("t_t"),
                          ScalarExpr::Literal(Value::Date(1995, 7, 1))));
  predicates.emplace_back(
      "conj", ScalarExpr::Logical(
                  LogicalOp::kAnd,
                  ScalarExpr::Compare(CompareOp::kGt, ScalarExpr::Column("t_v"),
                                      ScalarExpr::Literal(Value::Int64(0))),
                  ScalarExpr::Compare(CompareOp::kNe, ScalarExpr::Column("t_s"),
                                      ScalarExpr::Literal(Value::String("s3")))));
  for (auto& [name, pred] : predicates) {
    SCOPED_TRACE(name);
    ExpectVecMatchesRowPath(
        [&, &pred = pred](OperatorStats* stats, ThreadPool* pool) {
          return Filter(input, pred, stats, pool, nullptr);
        });
  }
}

TEST_P(KernelDifferentialTest, ProjectMatchesRowPath) {
  const uint64_t seed = GetParam() + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
  Rows input = RandomMixedRows("t", 20000, 4000, &rng);
  // Column passthrough of every type, int-exact arithmetic, kDiv (double
  // result, div-by-zero -> NULL), nullable operands, and literals.
  std::vector<ProjectItem> items = {
      {ScalarExpr::Column("t_k"), "k"},
      {ScalarExpr::Column("t_s"), "s"},
      {ScalarExpr::Column("t_t"), "t"},
      {ScalarExpr::Arith(ArithOp::kAdd, ScalarExpr::Column("t_v"),
                         ScalarExpr::Column("t_k")),
       "vk"},
      {ScalarExpr::Arith(ArithOp::kMul, ScalarExpr::Column("t_d"),
                         ScalarExpr::Literal(Value::Double(1.5))),
       "d15"},
      {ScalarExpr::Arith(ArithOp::kDiv, ScalarExpr::Column("t_k"),
                         ScalarExpr::Column("t_v")),
       "kv"},
      {ScalarExpr::Literal(Value::String("tag")), "tag"}};
  ExpectVecMatchesRowPath([&](OperatorStats* stats, ThreadPool* pool) {
    return Project(input, items, stats, pool, nullptr);
  });
}

TEST_P(KernelDifferentialTest, HashJoinMatchesRowPath) {
  const uint64_t seed = GetParam() + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
  // Sized past kMinParallelRows combined (so the radix build engages with
  // a pool), with key domains wide enough that fan-out stays bounded.
  Rows left = RandomMixedRows("l", 9000, 2000, &rng, /*str_domain=*/1500,
                              /*null_every=*/64);
  Rows right = RandomMixedRows("r", 6000, 2000, &rng, /*str_domain=*/1500,
                               /*null_every=*/64);
  // Int keys, cross-dictionary string keys (left and right interned
  // independently, and both sides carry NULL keys: null == null matches in
  // the row path), and a composite (int, date) key.
  std::vector<std::pair<const char*, JoinKeys>> key_sets = {
      {"int", {{"l_k"}, {"r_k"}}},
      {"string", {{"l_s"}, {"r_s"}}},
      {"int_date", {{"l_k", "l_t"}, {"r_k", "r_t"}}}};
  for (auto& [name, keys] : key_sets) {
    SCOPED_TRACE(name);
    ExpectVecMatchesRowPath(
        [&, &keys = keys](OperatorStats* stats, ThreadPool* pool) {
          return HashJoin(left, right, keys, stats, pool, nullptr);
        });
  }
}

TEST_P(KernelDifferentialTest, AggregateMatchesRowPath) {
  const uint64_t seed = GetParam() + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
  Rows input = RandomMixedRows("t", 24000, 5000, &rng);
  std::vector<AggSpec> aggs = {
      {AggFn::kSum, ScalarExpr::Column("t_v"), "sv"},   // nullable int SUM
      {AggFn::kSum, ScalarExpr::Column("t_d"), "sd"},   // double SUM: bits
      {AggFn::kCount, nullptr, "n"}};
  // Grouping by a string column exercises dictionary group keys (including
  // the NULL code); the (int, date) pair exercises composite keys.
  std::vector<std::pair<const char*, std::vector<std::string>>> group_bys = {
      {"string", {"t_s"}},
      {"int_mod", {"t_v"}},
      {"int_date", {"t_k", "t_t"}}};
  for (auto& [name, group_by] : group_bys) {
    SCOPED_TRACE(name);
    ExpectVecMatchesRowPath(
        [&, &group_by = group_by](OperatorStats* stats, ThreadPool* pool) {
          return AggregateSigned(input, group_by, aggs, stats, pool, nullptr);
        });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelDifferentialTest,
                         ::testing::Values(7, 77, 777));

}  // namespace
}  // namespace wuw
