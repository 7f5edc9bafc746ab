// The Rows IR (algebra/rows.h): a schema plus one shared column image.
//
//  * Filter and HashJoin outputs read back byte-identical, in the same
//    order, to the reference kernels' (tests/reference/) — NULLs,
//    doubles, strings, negative and zero multiplicities, and empty sides
//    included — with the same cardinalities.
//  * A table scan (Rows::FromTable) and a Table copy share the table's
//    image, and a later mutation of the table leaves both unchanged.
//  * Add and Append copy an image while anyone else holds it, so copies
//    never see each other's appends; Append shares an image into an empty
//    batch and re-codes strings across dictionaries.
//  * The size-only consumers (ApproxRowsBytes, RowsExceedBytes) agree with
//    the same per-row model summed over the tuples.
//
// Honors WUW_SEED.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "algebra/filter.h"
#include "algebra/hash_join.h"
#include "algebra/operator_stats.h"
#include "algebra/rows.h"
#include "algebra/spill_util.h"
#include "algebra/vectorized.h"
#include "plan/subplan_cache.h"
#include "reference/reference_kernels.h"
#include "storage/column_table.h"
#include "storage/page.h"
#include "storage/table.h"
#include "test_util.h"

namespace wuw {
namespace {

/// `n` rows over (<p>k INT nullable, <p>d DOUBLE nullable, <p>s STRING
/// nullable): keys repeat, and multiplicities span [-2, 2], zero included
/// (Rows::Add would drop those, so the batch is built from its rows).
Rows MixedRows(const std::string& p, size_t n, tpcd::Rng* rng) {
  RowVec rows;
  for (size_t i = 0; i < n; ++i) {
    Value k = rng->Below(6) == 0 ? Value::Null()
                                 : Value::Int64(rng->Range(0, 7));
    Value d = rng->Below(5) == 0
                  ? Value::Null()
                  : Value::Double(static_cast<double>(rng->Range(-99, 99)) /
                                  4.0);
    Value s = rng->Below(5) == 0
                  ? Value::Null()
                  : Value::String("s" + std::to_string(rng->Range(0, 9)));
    rows.emplace_back(Tuple({k, d, s}), rng->Range(-2, 2));
  }
  return testutil::MakeRows(Schema({{p + "k", TypeId::kInt64},
                                    {p + "d", TypeId::kDouble},
                                    {p + "s", TypeId::kString}}),
                            rows);
}

/// Byte-identical: same tuples, cell types and multiplicities, same order.
void ExpectSameRows(const RowVec& expect, const RowVec& got) {
  ASSERT_EQ(expect.size(), got.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(expect[i].second, got[i].second) << "row " << i;
    const Tuple& a = expect[i].first;
    const Tuple& b = got[i].first;
    ASSERT_EQ(a.size(), b.size()) << "row " << i;
    for (size_t c = 0; c < a.size(); ++c) {
      ASSERT_EQ(a.value(c).type(), b.value(c).type()) << "row " << i;
      ASSERT_EQ(a.value(c).ToString(), b.value(c).ToString()) << "row " << i;
    }
    ASSERT_TRUE(a == b) << "row " << i;
  }
}

ScalarExpr::Ptr Predicate() {
  // ld > 0 OR ls = 's3': NULLs fail both arms.
  return ScalarExpr::Logical(
      LogicalOp::kOr,
      ScalarExpr::Compare(CompareOp::kGt, ScalarExpr::Column("ld"),
                          ScalarExpr::Literal(Value::Double(0.0))),
      ScalarExpr::ColEqString("ls", "s3"));
}

const JoinKeys kKeys{{"lk", "ls"}, {"rk", "rs"}};
const std::vector<size_t> kKeyIdx{0, 2};

/// The join kernel is called directly: the operator entry point routes
/// oversized joins to the spill paths first when WUW_MEM_MB is armed.
Rows VecJoin(const Rows& left, const Rows& right, OperatorStats* stats) {
  return vec::TryHashJoin(left, right, kKeyIdx, kKeyIdx, stats, nullptr,
                          nullptr);
}

/// Kernel outputs and the reference kernels' outputs.
struct KernelOutputs {
  Rows vec;
  Rows ref;
  OperatorStats vec_stats;
  OperatorStats ref_stats;
};

KernelOutputs RunFilter(const Rows& input) {
  KernelOutputs out;
  out.vec = Filter(input, Predicate(), &out.vec_stats);
  out.ref = reference::Filter(input, Predicate(), &out.ref_stats);
  return out;
}

KernelOutputs RunJoin(const Rows& left, const Rows& right) {
  KernelOutputs out;
  out.vec = VecJoin(left, right, &out.vec_stats);
  out.ref = reference::Join(left, right, kKeys, &out.ref_stats);
  return out;
}

void ExpectSameBatch(const KernelOutputs& o) {
  EXPECT_EQ(o.vec.size(), o.ref.size());
  EXPECT_EQ(o.vec.SignedCardinality(), o.ref.SignedCardinality());
  EXPECT_EQ(o.vec.AbsCardinality(), o.ref.AbsCardinality());
  ExpectSameRows(testutil::RowsOf(o.ref), testutil::RowsOf(o.vec));
  EXPECT_EQ(o.vec_stats, o.ref_stats);
}

class RowsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RowsTest, KernelOutputsReadBackTheReferenceRows) {
  const uint64_t seed = GetParam() + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
  for (size_t ln : {size_t{0}, size_t{1}, size_t{57}, size_t{300}}) {
    for (size_t rn : {size_t{0}, size_t{40}, size_t{250}}) {
      SCOPED_TRACE("left " + std::to_string(ln) + " right " +
                   std::to_string(rn));
      Rows left = MixedRows("l", ln, &rng);
      Rows right = MixedRows("r", rn, &rng);
      ExpectSameBatch(RunFilter(left));
      const KernelOutputs j = RunJoin(left, right);
      ExpectSameBatch(j);

      // A filter over a kernel output and over the same rows built tuple
      // by tuple agree with the reference.
      ScalarExpr::Ptr pred = ScalarExpr::Compare(
          CompareOp::kGe, ScalarExpr::Column("rd"),
          ScalarExpr::Literal(Value::Double(-5.0)));
      Rows a = Filter(j.vec, pred, nullptr);
      Rows b = Filter(j.ref, pred, nullptr);
      OperatorStats expect_stats;
      const RowVec expect =
          testutil::RowsOf(reference::Filter(j.ref, pred, &expect_stats));
      ExpectSameRows(expect, testutil::RowsOf(a));
      ExpectSameRows(expect, testutil::RowsOf(b));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowsTest, ::testing::Values(1, 2, 3));

TEST(RowsSharingTest, TableMutationLeavesScansAndCopiesUnchanged) {
  Table table(Schema({{"k", TypeId::kInt64}, {"s", TypeId::kString}}));
  for (int64_t i = 0; i < 50; ++i) {
    table.Add(Tuple({Value::Int64(i), Value::String("v" + std::to_string(i))}),
              1 + i % 3);
  }
  const RowVec before = table.dense_rows();
  const int64_t card = table.cardinality();

  Rows scan = Rows::FromTable(table);
  EXPECT_EQ(scan.Columnar(), table.ColumnarSnapshot());  // shared, not copied
  Table copy = table;
  EXPECT_EQ(copy.ColumnarSnapshot(), table.ColumnarSnapshot());

  table.Add(Tuple({Value::Int64(1), Value::String("v1")}), -100);  // delete
  table.Add(Tuple({Value::Int64(2), Value::String("v2")}), 5);     // bump
  table.Add(Tuple({Value::Int64(99), Value::String("new")}), 1);   // insert
  EXPECT_NE(scan.Columnar(), table.ColumnarSnapshot());
  EXPECT_EQ(scan.Columnar(), copy.ColumnarSnapshot());

  ExpectSameRows(before, testutil::RowsOf(scan));
  EXPECT_EQ(scan.SignedCardinality(), card);
  ExpectSameRows(before, copy.dense_rows());
  EXPECT_EQ(copy.cardinality(), card);
  EXPECT_EQ(copy.Count(Tuple({Value::Int64(1), Value::String("v1")})), 2);
  EXPECT_EQ(table.Count(Tuple({Value::Int64(1), Value::String("v1")})), 0);
  EXPECT_EQ(table.Count(Tuple({Value::Int64(2), Value::String("v2")})), 8);

  // Writing to the copy leaves the scan alone too, and so does Clear.
  Rows scan2 = Rows::FromTable(copy);
  copy.Clear();
  EXPECT_TRUE(copy.empty());
  ExpectSameRows(before, testutil::RowsOf(scan2));
  ExpectSameRows(before, testutil::RowsOf(scan));

  // Appending to a scan copies the image first; the table never sees it.
  const std::shared_ptr<const ColumnTable> image = scan2.Columnar();
  scan2.Add(Tuple({Value::Int64(7), Value::String("appended")}), -3);
  EXPECT_NE(scan2.Columnar(), image);
  EXPECT_EQ(scan2.size(), before.size() + 1);
  EXPECT_EQ(scan2.SignedCardinality(), card - 3);
  EXPECT_EQ(scan2.AbsCardinality(), card + 3);
  ExpectSameRows(before, testutil::RowsOf(scan));
}

// Copies share one image; an Add or Append through either copies it
// first, so the other never sees the new rows.
TEST(RowsSharingTest, AddAndAppendCopyASharedImage) {
  tpcd::Rng rng(31);
  const Rows mixed = MixedRows("m", 100, &rng);
  Rows built(mixed.schema);
  RowVec expect;
  for (const auto& [tuple, count] : testutil::RowsOf(mixed)) {
    built.Add(tuple, count);
    if (count != 0) expect.emplace_back(tuple, count);
  }
  ExpectSameRows(expect, testutil::RowsOf(built));

  Rows copy = built;
  EXPECT_EQ(copy.Columnar(), built.Columnar());
  copy.Add(Tuple({Value::Int64(1), Value::Null(), Value::String("fresh")}), 4);
  EXPECT_NE(copy.Columnar(), built.Columnar());
  ExpectSameRows(expect, testutil::RowsOf(built));
  EXPECT_EQ(copy.size(), built.size() + 1);

  // Append into an empty batch of the same schema shares the image when
  // every row is kept; a zero multiplicity is dropped, as Add drops it.
  Rows shared(mixed.schema);
  shared.Append(built);
  EXPECT_EQ(shared.Columnar(), built.Columnar());
  Rows filtered(mixed.schema);
  filtered.Append(mixed);
  EXPECT_NE(filtered.Columnar(), mixed.Columnar());
  ExpectSameRows(expect, testutil::RowsOf(filtered));

  // Appending one batch to another re-codes the second's strings into the
  // first's dictionary, and leaves both sources unchanged.
  tpcd::Rng rng2(32);
  const Rows other = MixedRows("m", 80, &rng2);
  Rows both = built;
  both.Append(other);
  RowVec want = expect;
  for (const auto& [tuple, count] : testutil::RowsOf(other)) {
    if (count != 0) want.emplace_back(tuple, count);
  }
  ExpectSameRows(want, testutil::RowsOf(both));
  ExpectSameRows(expect, testutil::RowsOf(built));
  EXPECT_EQ(both.SignedCardinality(),
            built.SignedCardinality() + other.SignedCardinality());
  EXPECT_EQ(both.AbsCardinality(),
            built.AbsCardinality() + other.AbsCardinality());
}

TEST(RowsEstimatorTest, SizeConsumersAgreeWithTheTupleModel) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    tpcd::Rng rng(seed);
    const Rows left = MixedRows("l", 200, &rng);
    const Rows right = MixedRows("r", 150, &rng);
    const Rows joined = VecJoin(left, right, nullptr);
    const RowVec rows = testutil::RowsOf(joined);
    ASSERT_FALSE(rows.empty());

    // Every early-exit point: just below and at each row's running total.
    std::vector<int64_t> limits = {-1, 0};
    int64_t running = 0;
    for (const auto& [tuple, count] : rows) {
      (void)count;
      running += paged::ApproxRowBytes(tuple);
      limits.push_back(running - 1);
      limits.push_back(running);
    }
    limits.push_back(running + 1);
    for (int64_t limit : limits) {
      ASSERT_EQ(spill::RowsExceedBytes(joined, limit), limit < running)
          << "limit " << limit;
    }
    EXPECT_EQ(paged::ApproxImageBytes(*joined.Columnar()), running);
    EXPECT_EQ(ApproxRowsBytes(joined),
              ApproxRowsBytes(testutil::MakeRows(joined.schema, rows)));
  }
}

}  // namespace
}  // namespace wuw
