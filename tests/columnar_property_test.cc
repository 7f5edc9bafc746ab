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
//    recompute, on inputs sized around batch boundaries (kBatchRows - 1,
//    kBatchRows, kBatchRows + 1, 3 * kBatchRows + 7);
//
//  * differential: each operator, at pool sizes {sequential, 8} and on
//    inputs at those batch boundaries and of 6k-24k rows, produces
//    byte-identical rows, row ORDER, and OperatorStats to the naive
//    reference kernels (tests/reference/) — including null semantics,
//    string dictionaries (same-dict and cross-dict join keys), dates, and
//    signed multiplicities.
//
// All suites honor WUW_SEED and print a one-command repro on failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "algebra/aggregate.h"
#include "algebra/filter.h"
#include "algebra/hash_join.h"
#include "algebra/project.h"
#include "algebra/row_batch.h"
#include "algebra/rows.h"
#include "expr/printer.h"
#include "parallel/thread_pool.h"
#include "reference/reference_kernels.h"
#include "storage/column_table.h"
#include "storage/table.h"
#include "test_util.h"

namespace wuw {
namespace {

ThreadPool& Pool8() {
  static ThreadPool* p = new ThreadPool(8);
  return *p;
}

/// Input sizes around batch boundaries (a batch holds kBatchRows rows).
const size_t kBoundarySizes[] = {kBatchRows - 1, kBatchRows, kBatchRows + 1,
                                 3 * kBatchRows + 7};

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

/// Byte-identical comparison: same schema, same tuples with the same cell
/// types in the same ORDER, same multiplicities (ContentsEqual is
/// order-blind and Value equality type-blind; the kernels promise more).
void ExpectRowsIdentical(const Rows& expect, const Rows& got) {
  ASSERT_EQ(expect.schema.ToString(), got.schema.ToString());
  const RowVec want = testutil::RowsOf(expect);
  const RowVec have = testutil::RowsOf(got);
  ASSERT_EQ(want.size(), have.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].second, have[i].second) << "row " << i;
    const Tuple& a = want[i].first;
    const Tuple& b = have[i].first;
    ASSERT_EQ(a.size(), b.size()) << "row " << i;
    for (size_t c = 0; c < a.size(); ++c) {
      const Value& x = a.value(c);
      const Value& y = b.value(c);
      ASSERT_EQ(x.type(), y.type()) << "row " << i << " col " << c;
      // NaN cells are identical to each other, though never Value-equal.
      const bool both_nan = x.type() == TypeId::kDouble && !x.is_null() &&
                            !y.is_null() && std::isnan(x.AsDouble()) &&
                            std::isnan(y.AsDouble());
      ASSERT_TRUE(both_nan || x == y) << "row " << i << " col " << c;
    }
  }
}

class RoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RoundTripTest, FromRowsRoundTripsCellsCardsAndStats) {
  const uint64_t seed = GetParam() + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
  Rows rows = RandomMixedRows("t", 3000, 500, &rng);
  const RowVec raw = testutil::RowsOf(rows);

  auto ct = testutil::ImageFromRows(rows.schema, raw);
  ASSERT_NE(ct, nullptr);
  ASSERT_EQ(ct->num_rows(), rows.size());
  int64_t signed_sum = 0, abs_sum = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    // Exact cell round-trip: same value AND same TypeId (operator== treats
    // Int64(3) == Double(3.0); tuples compare cell-wise the same way, so
    // check types explicitly).
    Tuple back = ct->TupleAt(i);
    ASSERT_TRUE(back == raw[i].first) << "row " << i;
    for (size_t c = 0; c < rows.schema.num_columns(); ++c) {
      ASSERT_EQ(back.value(c).type(), raw[i].first.value(c).type())
          << "row " << i << " col " << c;
    }
    ASSERT_EQ(ct->mult()[i], raw[i].second) << "row " << i;
    signed_sum += raw[i].second;
    abs_sum += std::llabs(raw[i].second);
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
    for (const auto& [tuple, m] : raw) {
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

  // The batch's own image (built by Rows::Add) is shared, not rebuilt,
  // and carries the same totals.
  auto cached = rows.Columnar();
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(cached.get(), rows.Columnar().get());
  EXPECT_EQ(cached->num_rows(), rows.size());
  EXPECT_EQ(rows.SignedCardinality(), signed_sum);
  EXPECT_EQ(rows.AbsCardinality(), abs_sum);
}

TEST_P(RoundTripTest, DictionaryCodesAreDenseAndConsistent) {
  const uint64_t seed = GetParam() + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
  Rows rows = RandomMixedRows("t", 2000, 400, &rng);
  const RowVec raw = testutil::RowsOf(rows);
  auto ct = testutil::ImageFromRows(rows.schema, raw);
  ASSERT_NE(ct, nullptr);

  const size_t sc = rows.schema.num_columns() - 2;  // the _s column
  ASSERT_EQ(rows.schema.column(sc).type, TypeId::kString);
  const ColumnVec& col = ct->column(sc);
  ASSERT_NE(col.dict, nullptr);
  // Equal strings <-> equal codes; every code decodes to its source string;
  // Find inverts Intern; codes are dense in first-occurrence order.
  std::vector<std::string> first_seen;
  for (size_t i = 0; i < rows.size(); ++i) {
    const Value& v = raw[i].first.value(sc);
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
  std::vector<size_t> sizes(std::begin(kBoundarySizes),
                            std::end(kBoundarySizes));
  sizes.push_back(2500);
  for (size_t n : sizes) {
    SCOPED_TRACE("rows=" + std::to_string(n));
    Rows rows = RandomMixedRows("t", n, 300, &rng);
    auto ct = testutil::ImageFromRows(rows.schema, testutil::RowsOf(rows));
    ASSERT_NE(ct, nullptr);
    size_t next = 0;
    size_t batches = 0;
    ForEachBatch(*ct, [&](const RowBatch& batch) {
      ++batches;
      // Every batch but the last is full.
      ASSERT_EQ(batch.size(), std::min(kBatchRows, n - next));
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
    EXPECT_EQ(batches, (n + kBatchRows - 1) / kBatchRows);
  }
}

// A double smuggled into an INT column cannot live in a typed image, so
// the batch refuses it at construction: Rows::Add aborts on a tuple that
// does not fit, as Table::Add does, and no kernel ever sees an untyped
// batch.
TEST(RowsDeathTest, AddOfATupleThatDoesNotFitAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rows rows(Schema({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}}));
  for (int i = 0; i < 100; ++i) {
    rows.Add(Tuple({Value::Int64(i), Value::Int64(i % 9)}), 1);
  }
  const Tuple wrong_type({Value::Int64(7), Value::Double(3.5)});
  const Tuple wrong_arity({Value::Int64(7)});
  EXPECT_EQ(testutil::ImageFromRows(rows.schema, {{wrong_type, 1}}), nullptr);
  EXPECT_DEATH(rows.Add(wrong_type, 1), "does not fit");
  EXPECT_DEATH(rows.Add(wrong_arity, -2), "does not fit");
  // A copy shares the image; its failed Add leaves the original alone.
  Rows copy = rows;
  EXPECT_DEATH(copy.Add(wrong_type, 1), "does not fit");
  // Zero multiplicities are no rows, and NULL fits any column.
  rows.Add(wrong_type, 0);
  rows.Add(Tuple({Value::Null(), Value::Null()}), 2);
  EXPECT_EQ(rows.size(), 101u);
  EXPECT_EQ(rows.SignedCardinality(), 102);
  EXPECT_EQ(copy.size(), 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripTest,
                         ::testing::Values(11, 22, 33));

// Differential harness: the naive reference kernels (tests/reference/)
// are the oracle; the operators must match them byte for byte — rows, row
// order, and OperatorStats — at every pool size.
class KernelDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  template <typename Reference, typename Run>
  void ExpectMatchesReference(const Reference& reference, const Run& run) {
    OperatorStats ref_stats;
    const Rows expect = reference(&ref_stats);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &Pool8()}) {
      SCOPED_TRACE(pool == nullptr
                       ? std::string("pool=none")
                       : "pool=" + std::to_string(pool->parallelism()));
      OperatorStats stats;
      Rows got = run(&stats, pool);
      ExpectRowsIdentical(expect, got);
      EXPECT_EQ(ref_stats, stats);
    }
  }
};

/// Input sizes for a differential: the batch boundaries plus `large`.
std::vector<size_t> DifferentialSizes(size_t large) {
  std::vector<size_t> sizes(std::begin(kBoundarySizes),
                            std::end(kBoundarySizes));
  sizes.push_back(large);
  return sizes;
}

TEST_P(KernelDifferentialTest, FilterMatchesReference) {
  const uint64_t seed = GetParam() + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
  // Numeric, string-equality, string-order, date, and null-feeding
  // predicates all have defined per-tuple semantics to mirror.
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
  for (size_t n : DifferentialSizes(20000)) {
    SCOPED_TRACE("rows=" + std::to_string(n));
    Rows input = RandomMixedRows("t", n, 4000, &rng);
    for (auto& [name, pred] : predicates) {
      SCOPED_TRACE(name);
      ExpectMatchesReference(
          [&, &pred = pred](OperatorStats* stats) {
            return reference::Filter(input, pred, stats);
          },
          [&, &pred = pred](OperatorStats* stats, ThreadPool* pool) {
            return Filter(input, pred, stats, pool, nullptr);
          });
    }
  }
}

/// Rows over (e_k INT, e_i INT nullable, e_d DOUBLE nullable, e_s STRING
/// nullable, e_t DATE) whose cells lean on the edges of the compare
/// semantics: INT64_MIN/MAX, NaN, +-0.0, infinities, the empty string, and
/// zero multiplicities next to signed ones.
Rows EdgeRows(size_t n, tpcd::Rng* rng) {
  const Schema schema({{"e_k", TypeId::kInt64},
                       {"e_i", TypeId::kInt64},
                       {"e_d", TypeId::kDouble},
                       {"e_s", TypeId::kString},
                       {"e_t", TypeId::kDate}});
  const int64_t ints[] = {std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max(), 0, -1, 7};
  const double dbls[] = {std::numeric_limits<double>::quiet_NaN(),
                         0.0,
                         -0.0,
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         7.0,
                         -2.5,
                         9223372036854775807.0};
  const char* strs[] = {"", "s1", "s3", "s7", "zz"};
  RowVec rows;
  for (size_t i = 0; i < n; ++i) {
    Value v = rng->Below(5) == 0
                  ? Value::Null()
                  : Value::Int64(rng->Below(2) == 0
                                     ? ints[rng->Below(5)]
                                     : rng->Range(-20, 20));
    Value d = rng->Below(5) == 0 ? Value::Null()
                                 : Value::Double(dbls[rng->Below(8)]);
    Value str = rng->Below(5) == 0 ? Value::Null()
                                   : Value::String(strs[rng->Below(5)]);
    Value t = Value::Date(1995, 1 + static_cast<int>(rng->Below(12)), 1);
    int64_t mult = rng->Range(-2, 2);  // 0 included: no row, no stats
    rows.emplace_back(
        Tuple({Value::Int64(rng->Range(1, 50)), std::move(v), std::move(d),
               std::move(str), std::move(t)}),
        mult);
  }
  return testutil::MakeRows(schema, rows);
}

/// A random conjunct over EdgeRows' schema.
ScalarExpr::Ptr RandomConjunct(tpcd::Rng* rng) {
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  const CompareOp op = ops[rng->Below(6)];
  auto col = [](const char* name) { return ScalarExpr::Column(name); };
  auto lit = [](Value v) { return ScalarExpr::Literal(std::move(v)); };
  // column op constant, in either orientation.
  auto with_constant = [&](ScalarExpr::Ptr column, Value constant) {
    return rng->Below(2) == 0
               ? ScalarExpr::Compare(op, std::move(column), lit(constant))
               : ScalarExpr::Compare(op, lit(constant), std::move(column));
  };
  switch (rng->Below(14)) {
    case 0:
      return with_constant(col("e_i"), Value::Int64(rng->Range(-5, 5)));
    case 1:
      return with_constant(
          col("e_i"), Value::Int64(rng->Below(2) == 0
                                       ? std::numeric_limits<int64_t>::min()
                                       : std::numeric_limits<int64_t>::max()));
    case 2:  // an Int64 column against a Double literal
      return with_constant(
          col("e_i"), Value::Double(rng->Below(2) == 0 ? 9223372036854775807.0
                                                       : 2.5));
    case 3: {
      const double c[] = {std::numeric_limits<double>::quiet_NaN(), 0.0,
                          -0.0, 7.0};
      return with_constant(col("e_d"), Value::Double(c[rng->Below(4)]));
    }
    case 4: {  // seen, empty and unseen string constants
      const char* c[] = {"s3", "", "unseen", "s1"};
      return with_constant(col("e_s"), Value::String(c[rng->Below(4)]));
    }
    case 5:
      return with_constant(col("e_t"), Value::Date(1995, 6, 1));
    case 6:  // a NULL constant compares false
      return with_constant(col(rng->Below(2) == 0 ? "e_i" : "e_s"),
                           Value::Null());
    case 7:  // mixed rank: decided by type rank for non-null cells
      return rng->Below(2) == 0
                 ? with_constant(col("e_s"), Value::Int64(3))
                 : with_constant(col("e_d"), Value::String("s3"));
    case 8:  // column op column
      return rng->Below(2) == 0
                 ? ScalarExpr::Compare(op, col("e_i"), col("e_d"))
                 : ScalarExpr::Compare(op, col("e_s"), col("e_s"));
    case 9:
      return ScalarExpr::Logical(
          LogicalOp::kOr,
          ScalarExpr::Compare(op, col("e_k"), lit(Value::Int64(25))),
          ScalarExpr::Compare(CompareOp::kEq, col("e_s"),
                              lit(Value::String("s7"))));
    case 10:
      return ScalarExpr::Not(
          ScalarExpr::Compare(op, col("e_d"), lit(Value::Double(0.0))));
    case 11:  // arithmetic under a compare
      return ScalarExpr::Compare(
          op,
          ScalarExpr::Arith(ArithOp::kAdd, col("e_k"), lit(Value::Int64(3))),
          lit(Value::Int64(30)));
    case 12:  // arithmetic as a truth value (0, NaN and NULL included)
      return ScalarExpr::Arith(ArithOp::kMul, col("e_d"),
                               lit(Value::Double(2.0)));
    default:  // a bare string column as a truth value ("" is false)
      return col("e_s");
  }
}

TEST_P(KernelDifferentialTest, RandomConjunctionsMatchReference) {
  const uint64_t seed = GetParam() + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
  for (size_t n : {size_t{0}, size_t{1}, kBatchRows - 1, kBatchRows,
                   kBatchRows + 1}) {
    SCOPED_TRACE("rows=" + std::to_string(n));
    Rows input = EdgeRows(n, &rng);
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<ScalarExpr::Ptr> terms(1 + rng.Below(4));
      for (ScalarExpr::Ptr& term : terms) term = RandomConjunct(&rng);
      const ScalarExpr::Ptr pred = ScalarExpr::AndAll(terms);
      SCOPED_TRACE(ExprToSql(pred));
      // A random subset of the columns, kept in schema order.
      std::vector<size_t> kept;
      for (size_t c = 0; c < input.schema.num_columns(); ++c) {
        if (rng.Below(2) == 0) kept.push_back(c);
      }
      ExpectMatchesReference(
          [&](OperatorStats* stats) {
            Rows all = reference::Filter(input, pred, stats);
            Rows out(all.schema.Project(kept));
            for (const auto& [tuple, count] : testutil::RowsOf(all)) {
              out.Add(tuple.Project(kept), count);
            }
            return out;
          },
          [&](OperatorStats* stats, ThreadPool* pool) {
            return Filter(input, pred, stats, pool, nullptr, &kept);
          });
    }
  }
}

TEST_P(KernelDifferentialTest, ProjectMatchesReference) {
  const uint64_t seed = GetParam() + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
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
  for (size_t n : DifferentialSizes(20000)) {
    SCOPED_TRACE("rows=" + std::to_string(n));
    Rows input = RandomMixedRows("t", n, 4000, &rng);
    ExpectMatchesReference(
        [&](OperatorStats* stats) {
          return reference::Project(input, items, stats);
        },
        [&](OperatorStats* stats, ThreadPool* pool) {
          return Project(input, items, stats, pool, nullptr);
        });
  }
}

TEST_P(KernelDifferentialTest, HashJoinMatchesReference) {
  const uint64_t seed = GetParam() + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
  // Int keys, cross-dictionary string keys (left and right interned
  // independently, and both sides carry NULL keys: null == null matches),
  // and a composite (int, date) key.
  std::vector<std::pair<const char*, JoinKeys>> key_sets = {
      {"int", {{"l_k"}, {"r_k"}}},
      {"string", {{"l_s"}, {"r_s"}}},
      {"int_date", {{"l_k", "l_t"}, {"r_k", "r_t"}}}};
  // The last pair is sized past kMinParallelRows combined (so the radix
  // build engages with a pool), with key domains wide enough that fan-out
  // stays bounded.
  std::vector<std::pair<size_t, size_t>> sizes;
  for (size_t n : kBoundarySizes) sizes.emplace_back(n, n);
  sizes.emplace_back(9000, 6000);
  for (const auto& [ln, rn] : sizes) {
    SCOPED_TRACE("rows=" + std::to_string(ln) + "x" + std::to_string(rn));
    Rows left = RandomMixedRows("l", ln, 2000, &rng, /*str_domain=*/1500,
                                /*null_every=*/64);
    Rows right = RandomMixedRows("r", rn, 2000, &rng, /*str_domain=*/1500,
                                 /*null_every=*/64);
    for (auto& [name, keys] : key_sets) {
      SCOPED_TRACE(name);
      ExpectMatchesReference(
          [&, &keys = keys](OperatorStats* stats) {
            return reference::Join(left, right, keys, stats);
          },
          [&, &keys = keys](OperatorStats* stats, ThreadPool* pool) {
            return HashJoin(left, right, keys, stats, pool, nullptr);
          });
    }
  }
}

TEST_P(KernelDifferentialTest, AggregateMatchesReference) {
  const uint64_t seed = GetParam() + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
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
  for (size_t n : DifferentialSizes(24000)) {
    SCOPED_TRACE("rows=" + std::to_string(n));
    Rows input = RandomMixedRows("t", n, 5000, &rng);
    for (auto& [name, group_by] : group_bys) {
      SCOPED_TRACE(name);
      ExpectMatchesReference(
          [&, &group_by = group_by](OperatorStats* stats) {
            return reference::Aggregate(input, group_by, aggs, stats);
          },
          [&, &group_by = group_by](OperatorStats* stats, ThreadPool* pool) {
            return AggregateSigned(input, group_by, aggs, stats, pool,
                                   nullptr);
          });
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelDifferentialTest,
                         ::testing::Values(7, 77, 777));

// A batch built by appends whose string column holds only NULLs has no
// dictionary.  The general conjunct path (here under an OR) and a string
// used as a boolean must read it as holding no strings, not crash.
TEST(KernelEdgeTest, GeneralConjunctsOverAnAllNullStringColumn) {
  Rows input(Schema({{"k", TypeId::kInt64}, {"s", TypeId::kString}}));
  for (int64_t k = 0; k < 5; ++k) {
    input.Add(Tuple({Value::Int64(k), Value::Null()}), 1);
  }
  ASSERT_EQ(input.Columnar()->column(1).dict, nullptr);
  const std::vector<ScalarExpr::Ptr> predicates = {
      ScalarExpr::Logical(LogicalOp::kOr, ScalarExpr::ColEqString("s", "a"),
                          ScalarExpr::Compare(
                              CompareOp::kGt, ScalarExpr::Column("k"),
                              ScalarExpr::Literal(Value::Int64(2)))),
      ScalarExpr::Logical(LogicalOp::kOr, ScalarExpr::Column("s"),
                          ScalarExpr::Compare(
                              CompareOp::kEq, ScalarExpr::Column("k"),
                              ScalarExpr::Literal(Value::Int64(0))))};
  for (const ScalarExpr::Ptr& pred : predicates) {
    SCOPED_TRACE(ExprToSql(pred));
    OperatorStats ref_stats, stats;
    const Rows want = reference::Filter(input, pred, &ref_stats);
    const Rows got = Filter(input, pred, &stats);
    EXPECT_EQ(testutil::RowsOf(got), testutil::RowsOf(want));
    EXPECT_FALSE(got.empty());
  }
}

}  // namespace
}  // namespace wuw
