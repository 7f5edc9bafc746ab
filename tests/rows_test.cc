// The Rows IR (algebra/rows.h): a shared copy-on-write row block beside a
// lazily built columnar mirror, and batches whose rows are built on demand.
//
//  * Columnar-only Filter and HashJoin outputs build rows byte-identical,
//    in the same order, to the reference kernels' (tests/reference/) —
//    NULLs, doubles, strings, negative and zero multiplicities, and empty
//    sides included — and stay columnar-only (rows_materialized() false)
//    until rows() is called.
//  * Copies and moves of an unbuilt batch build the same rows; concurrent
//    first rows() calls on one batch share a single build.
//  * A table scan (Rows::FromTable) and a Table copy share the table's
//    image, and a later mutation of the table leaves both unchanged.
//  * Copies of an Add()-built batch convert to columns once between them.
//  * The size-only consumers (ApproxRowsBytes, RowsExceedBytes) give the
//    same answers from the columns as from the rows, without building rows.
//
// Honors WUW_SEED.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algebra/filter.h"
#include "algebra/hash_join.h"
#include "algebra/operator_stats.h"
#include "algebra/rows.h"
#include "algebra/spill_util.h"
#include "algebra/vectorized.h"
#include "obs/metrics.h"
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
/// (Rows::Add would drop those, so they are appended directly).
Rows MixedRows(const std::string& p, size_t n, tpcd::Rng* rng) {
  Rows out(Schema({{p + "k", TypeId::kInt64},
                   {p + "d", TypeId::kDouble},
                   {p + "s", TypeId::kString}}));
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
    out.mutable_rows().emplace_back(Tuple({k, d, s}), rng->Range(-2, 2));
  }
  return out;
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

/// The vectorized kernels are called directly: the operator entry points
/// route oversized joins to the spill paths first when WUW_MEM_MB is armed.
Rows VecFilter(const Rows& input, const ScalarExpr::Ptr& pred,
               OperatorStats* stats) {
  return vec::TryFilter(input, pred, stats);
}

Rows VecJoin(const Rows& left, const Rows& right, OperatorStats* stats) {
  return vec::TryHashJoin(left, right, kKeyIdx, kKeyIdx, stats, nullptr,
                          nullptr);
}

/// Columnar-only filter / join outputs and the reference kernels' outputs.
struct KernelOutputs {
  Rows vec;
  Rows ref;
  OperatorStats vec_stats;
  OperatorStats ref_stats;
};

KernelOutputs RunFilter(const Rows& input) {
  KernelOutputs out;
  out.vec = VecFilter(input, Predicate(), &out.vec_stats);
  out.ref = reference::Filter(input, Predicate(), &out.ref_stats);
  return out;
}

KernelOutputs RunJoin(const Rows& left, const Rows& right) {
  KernelOutputs out;
  out.vec = VecJoin(left, right, &out.vec_stats);
  out.ref = reference::Join(left, right, kKeys, &out.ref_stats);
  return out;
}

class RowsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RowsTest, ColumnarOnlyOutputsBuildTheReferenceRows) {
  const uint64_t seed = GetParam() + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
  for (size_t ln : {size_t{0}, size_t{1}, size_t{57}, size_t{300}}) {
    for (size_t rn : {size_t{0}, size_t{40}, size_t{250}}) {
      SCOPED_TRACE("left " + std::to_string(ln) + " right " +
                   std::to_string(rn));
      Rows left = MixedRows("l", ln, &rng);
      Rows right = MixedRows("r", rn, &rng);

      KernelOutputs f = RunFilter(left);
      EXPECT_FALSE(f.vec.rows_materialized());
      EXPECT_EQ(f.vec.size(), f.ref.size());
      EXPECT_EQ(f.vec.SignedCardinality(), f.ref.SignedCardinality());
      EXPECT_EQ(f.vec.AbsCardinality(), f.ref.AbsCardinality());
      EXPECT_FALSE(f.vec.rows_materialized());
      ExpectSameRows(f.ref.rows(), f.vec.rows());
      EXPECT_TRUE(f.vec.rows_materialized());
      EXPECT_EQ(f.vec_stats, f.ref_stats);

      KernelOutputs j = RunJoin(left, right);
      EXPECT_FALSE(j.vec.rows_materialized());
      EXPECT_EQ(j.vec.size(), j.ref.size());
      EXPECT_EQ(j.vec.SignedCardinality(), j.ref.SignedCardinality());
      EXPECT_EQ(j.vec.AbsCardinality(), j.ref.AbsCardinality());
      EXPECT_FALSE(j.vec.rows_materialized());
      ExpectSameRows(j.ref.rows(), j.vec.rows());
      EXPECT_TRUE(j.vec.rows_materialized());
      EXPECT_EQ(j.vec_stats, j.ref_stats);

      // A filter's rows rebuild from its columns whether or not its
      // input's rows were ever built, and building them never builds the
      // input's.
      KernelOutputs jf = RunJoin(left, right);
      Rows unbuilt_in = jf.vec;
      Rows built_in = jf.ref;
      ScalarExpr::Ptr pred = ScalarExpr::Compare(
          CompareOp::kGe, ScalarExpr::Column("rd"),
          ScalarExpr::Literal(Value::Double(-5.0)));
      Rows a = VecFilter(unbuilt_in, pred, nullptr);
      Rows b = VecFilter(built_in, pred, nullptr);
      EXPECT_FALSE(unbuilt_in.rows_materialized());
      OperatorStats expect_stats;
      Rows expect = reference::Filter(built_in, pred, &expect_stats);
      ExpectSameRows(expect.rows(), a.rows());
      ExpectSameRows(expect.rows(), b.rows());
      EXPECT_FALSE(unbuilt_in.rows_materialized());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowsTest, ::testing::Values(1, 2, 3));

/// A columnar-only join output over fixed inputs.
Rows UnbuiltJoin(uint64_t seed) {
  tpcd::Rng rng(seed);
  Rows left = MixedRows("l", 200, &rng);
  Rows right = MixedRows("r", 150, &rng);
  Rows out = VecJoin(left, right, nullptr);
  EXPECT_FALSE(out.rows_materialized());
  return out;
}

RowVec ReferenceJoin(uint64_t seed) {
  tpcd::Rng rng(seed);
  Rows left = MixedRows("l", 200, &rng);
  Rows right = MixedRows("r", 150, &rng);
  OperatorStats stats;
  return reference::Join(left, right, kKeys, &stats).rows();
}

TEST(RowsLazyTest, CopiesAndMovesOfAnUnbuiltBatch) {
  const RowVec expect = ReferenceJoin(11);
  ASSERT_FALSE(expect.empty());

  Rows original = UnbuiltJoin(11);
  Rows copy = original;
  EXPECT_FALSE(copy.rows_materialized());
  EXPECT_EQ(copy.size(), expect.size());
  ExpectSameRows(expect, copy.rows());
  // Copies share the deferred build.
  EXPECT_TRUE(original.rows_materialized());
  EXPECT_EQ(&original.rows(), &copy.rows());

  Rows source = UnbuiltJoin(11);
  Rows moved = std::move(source);
  EXPECT_FALSE(moved.rows_materialized());
  EXPECT_EQ(moved.size(), expect.size());
  Rows assigned;
  assigned = std::move(moved);
  EXPECT_FALSE(assigned.rows_materialized());
  ExpectSameRows(expect, assigned.rows());

  // Writing through one copy detaches it; the other keeps its rows.
  Rows writer = UnbuiltJoin(11);
  Rows reader = writer;
  writer.mutable_rows().clear();
  EXPECT_TRUE(writer.rows().empty());
  ExpectSameRows(expect, reader.rows());
  EXPECT_NE(writer.Columnar(), nullptr);
  EXPECT_EQ(writer.Columnar()->num_rows(), 0u);
  EXPECT_EQ(reader.Columnar()->num_rows(), expect.size());
}

TEST(RowsLazyTest, ConcurrentFirstCallsShareOneBuild) {
  const RowVec expect = ReferenceJoin(12);
  for (int round = 0; round < 20; ++round) {
    const Rows shared = UnbuiltJoin(12);
    std::vector<const RowVec*> seen(8, nullptr);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < seen.size(); ++t) {
      threads.emplace_back([&, t] { seen[t] = &shared.rows(); });
    }
    for (std::thread& th : threads) th.join();
    for (const RowVec* r : seen) ASSERT_EQ(r, seen[0]);
    ExpectSameRows(expect, *seen[0]);
  }
}

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

  ExpectSameRows(before, scan.rows());
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
  ExpectSameRows(before, scan2.rows());
  ExpectSameRows(before, scan.rows());
}

// Copies of a batch built through Add() (its columnar flag is stale)
// share one fresh slot: whichever copy asks first converts, once for all.
TEST(RowsSharingTest, CopiesOfAnAddBuiltBatchConvertOnce) {
  tpcd::Rng rng(31);
  const Rows mixed = MixedRows("m", 100, &rng);
  Rows built(mixed.schema);
  for (const auto& [tuple, count] : mixed.rows()) built.Add(tuple, count);
  obs::ArmMetrics();
  obs::Counter* conversions =
      obs::GetCounter("engine.vec.conversions", obs::MetricClass::kEngine);
  const int64_t before = conversions->value();
  Rows a = built;
  Rows b;
  b = built;
  std::shared_ptr<const ColumnTable> ca = a.Columnar();
  ASSERT_NE(ca, nullptr);
  EXPECT_EQ(b.Columnar(), ca);
  EXPECT_EQ(built.Columnar(), ca);
  EXPECT_EQ(conversions->value() - before, 1);
  obs::DisarmMetrics();
}

TEST(RowsEstimatorTest, ColumnarAndBuiltFormsAgreeWithoutBuilding) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rows built = UnbuiltJoin(seed);
    built.rows();
    ASSERT_TRUE(built.rows_materialized());

    Rows lazy = UnbuiltJoin(seed);
    EXPECT_EQ(ApproxRowsBytes(lazy), ApproxRowsBytes(built));
    EXPECT_FALSE(lazy.rows_materialized());

    // Every early-exit point: just below and at each row's running total.
    std::vector<int64_t> limits = {-1, 0};
    int64_t running = 0;
    for (const auto& [tuple, count] : built.rows()) {
      (void)count;
      running += paged::ApproxRowBytes(tuple);
      limits.push_back(running - 1);
      limits.push_back(running);
    }
    limits.push_back(running + 1);
    for (int64_t limit : limits) {
      ASSERT_EQ(spill::RowsExceedBytes(lazy, limit),
                spill::RowsExceedBytes(built, limit))
          << "limit " << limit;
    }
    EXPECT_FALSE(lazy.rows_materialized());
  }
}

}  // namespace
}  // namespace wuw
