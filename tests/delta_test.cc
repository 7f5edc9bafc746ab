#include <gtest/gtest.h>

#include "delta/delta_relation.h"
#include "delta/install.h"
#include "delta/summary_delta.h"
#include "test_util.h"
#include "view/join_pipeline.h"
#include "view/recompute.h"

namespace wuw {
namespace {

Schema KV() { return Schema({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}}); }

Tuple Row(int64_t k, int64_t v) {
  return Tuple({Value::Int64(k), Value::Int64(v)});
}

TEST(DeltaRelationTest, PlusMinusAccounting) {
  DeltaRelation d(KV());
  d.Add(Row(1, 10), 2);
  d.Add(Row(2, 20), -3);
  EXPECT_EQ(d.plus_count(), 2);
  EXPECT_EQ(d.minus_count(), 3);
  EXPECT_EQ(d.AbsCardinality(), 5);
  EXPECT_EQ(d.NetCardinality(), -1);
}

TEST(DeltaRelationTest, CancellationRemovesEntries) {
  DeltaRelation d(KV());
  d.Add(Row(1, 10), 2);
  d.Add(Row(1, 10), -2);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.AbsCardinality(), 0);
}

TEST(DeltaRelationTest, SignFlipKeepsTotalsConsistent) {
  DeltaRelation d(KV());
  d.Add(Row(1, 10), 1);
  d.Add(Row(1, 10), -3);  // net -2
  EXPECT_EQ(d.plus_count(), 0);
  EXPECT_EQ(d.minus_count(), 2);
  d.Add(Row(1, 10), 5);  // net +3
  EXPECT_EQ(d.plus_count(), 3);
  EXPECT_EQ(d.minus_count(), 0);
}

TEST(DeltaRelationTest, ToRowsRoundTrip) {
  DeltaRelation d(KV());
  d.Add(Row(1, 10), 2);
  d.Add(Row(2, 20), -1);
  Rows r = d.ToRows();
  EXPECT_EQ(r.AbsCardinality(), 3);
  EXPECT_EQ(r.SignedCardinality(), 1);
}

TEST(InstallTest, AppliesPlusAndMinus) {
  Table t(KV());
  t.Add(Row(1, 10), 1);
  t.Add(Row(2, 20), 2);

  DeltaRelation d(KV());
  d.Add(Row(1, 10), -1);  // delete
  d.Add(Row(3, 30), 1);   // insert
  d.Add(Row(2, 20), 1);   // bump multiplicity

  OperatorStats stats;
  Install(d, &t, &stats);
  EXPECT_EQ(t.Count(Row(1, 10)), 0);
  EXPECT_EQ(t.Count(Row(2, 20)), 3);
  EXPECT_EQ(t.Count(Row(3, 30)), 1);
  EXPECT_EQ(stats.rows_scanned, 3);  // |δV| = 3
}

TEST(FinalizeSpjDeltaTest, CollapsesDuplicates) {
  Rows raw(KV());
  raw.Add(Row(1, 10), 1);
  raw.Add(Row(1, 10), 1);
  raw.Add(Row(2, 20), -1);
  raw.Add(Row(2, 20), 1);  // cancels
  DeltaRelation d = FinalizeSpjDelta(KV(), raw, nullptr);
  EXPECT_EQ(d.plus_count(), 2);
  EXPECT_EQ(d.minus_count(), 0);
  EXPECT_EQ(d.distinct_size(), 1u);
}

// Aggregate finalization fixture: view V = SELECT g, SUM(v), COUNT over a
// single base view.
class AggregateFinalizeTest : public ::testing::Test {
 protected:
  AggregateFinalizeTest() {
    def_ = ViewDefinitionBuilder("V")
               .From("B")
               .Select(ScalarExpr::Column("b_g"), "g")
               .Sum(ScalarExpr::Column("b_v"), "s")
               .Build();
    // Current extent: group 1 has sum 30 over 2 rows; group 2 sum 5 over 1.
    current_ = Table(Schema({{"g", TypeId::kInt64},
                             {"s", TypeId::kInt64},
                             {"__count", TypeId::kInt64}}));
    current_.Add(Tuple({Value::Int64(1), Value::Int64(30), Value::Int64(2)}),
                 1);
    current_.Add(Tuple({Value::Int64(2), Value::Int64(5), Value::Int64(1)}),
                 1);
    raw_ = Rows(Schema({{"g", TypeId::kInt64}, {"__arg0", TypeId::kInt64}}));
  }

  std::shared_ptr<const ViewDefinition> def_;
  Table current_;
  Rows raw_;
};

TEST_F(AggregateFinalizeTest, UpdatesExistingGroup) {
  raw_.Add(Tuple({Value::Int64(1), Value::Int64(12)}), 1);  // insert v=12
  DeltaRelation d = FinalizeAggregateDelta(*def_, current_, raw_, nullptr);
  // {-(1,30,2), +(1,42,3)}
  EXPECT_EQ(d.plus_count(), 1);
  EXPECT_EQ(d.minus_count(), 1);
  EXPECT_EQ(
      d.ToRows().rows().size(), 2u);
}

TEST_F(AggregateFinalizeTest, DeletesDyingGroup) {
  raw_.Add(Tuple({Value::Int64(2), Value::Int64(5)}), -1);  // last row gone
  DeltaRelation d = FinalizeAggregateDelta(*def_, current_, raw_, nullptr);
  EXPECT_EQ(d.plus_count(), 0);
  EXPECT_EQ(d.minus_count(), 1);
}

TEST_F(AggregateFinalizeTest, CreatesNewGroup) {
  raw_.Add(Tuple({Value::Int64(9), Value::Int64(7)}), 1);
  DeltaRelation d = FinalizeAggregateDelta(*def_, current_, raw_, nullptr);
  EXPECT_EQ(d.plus_count(), 1);
  EXPECT_EQ(d.minus_count(), 0);
  bool found = false;
  d.ForEach([&](const Tuple& t, int64_t c) {
    if (t.value(0).AsInt64() == 9) {
      found = true;
      EXPECT_EQ(c, 1);
      EXPECT_EQ(t.value(1).AsInt64(), 7);
      EXPECT_EQ(t.value(2).AsInt64(), 1);
    }
  });
  EXPECT_TRUE(found);
}

TEST_F(AggregateFinalizeTest, NoopChangeCancelsExactly) {
  // Delete v=10 and insert v=10 in group 1: old row == new row.
  raw_.Add(Tuple({Value::Int64(1), Value::Int64(10)}), -1);
  raw_.Add(Tuple({Value::Int64(1), Value::Int64(10)}), 1);
  DeltaRelation d = FinalizeAggregateDelta(*def_, current_, raw_, nullptr);
  EXPECT_TRUE(d.empty());
}

TEST_F(AggregateFinalizeTest, EmptyRawYieldsEmptyDelta) {
  DeltaRelation d = FinalizeAggregateDelta(*def_, current_, raw_, nullptr);
  EXPECT_TRUE(d.empty());
}

TEST_F(AggregateFinalizeTest, UpdatePairInOneGroup) {
  // Replace v=10 by v=25 in group 1: count unchanged, sum +15.
  raw_.Add(Tuple({Value::Int64(1), Value::Int64(10)}), -1);
  raw_.Add(Tuple({Value::Int64(1), Value::Int64(25)}), 1);
  DeltaRelation d = FinalizeAggregateDelta(*def_, current_, raw_, nullptr);
  EXPECT_EQ(d.plus_count(), 1);
  EXPECT_EQ(d.minus_count(), 1);
  d.ForEach([&](const Tuple& t, int64_t c) {
    if (c > 0) {
      EXPECT_EQ(t.value(1).AsInt64(), 45);
      EXPECT_EQ(t.value(2).AsInt64(), 2);
    }
  });
}

}  // namespace
}  // namespace wuw
