#include <gtest/gtest.h>

#include "algebra/aggregate.h"
#include "algebra/filter.h"
#include "algebra/hash_join.h"
#include "algebra/project.h"
#include "algebra/rows.h"

namespace wuw {
namespace {

Rows MakeRows(const Schema& schema,
              std::vector<std::pair<std::vector<int64_t>, int64_t>> data) {
  Rows out(schema);
  for (auto& [values, count] : data) {
    std::vector<Value> row;
    for (int64_t v : values) row.push_back(Value::Int64(v));
    out.Add(Tuple(std::move(row)), count);
  }
  return out;
}

Schema KV() { return Schema({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}}); }

TEST(RowsTest, Cardinalities) {
  Rows r = MakeRows(KV(), {{{1, 10}, 2}, {{2, 20}, -3}});
  EXPECT_EQ(r.SignedCardinality(), -1);
  EXPECT_EQ(r.AbsCardinality(), 5);
  EXPECT_FALSE(r.empty());
}

TEST(RowsTest, FromTablePreservesMultiplicity) {
  Table t(KV());
  t.Add(Tuple({Value::Int64(1), Value::Int64(10)}), 3);
  Rows r = Rows::FromTable(t);
  EXPECT_EQ(r.SignedCardinality(), 3);
  EXPECT_EQ(r.rows().size(), 1u);
}

TEST(FilterTest, KeepsMatchingSignedRows) {
  Rows in = MakeRows(KV(), {{{1, 10}, 1}, {{2, 20}, -2}, {{3, 30}, 1}});
  OperatorStats stats;
  Rows out = Filter(in,
                    ScalarExpr::Compare(CompareOp::kGe, ScalarExpr::Column("v"),
                                        ScalarExpr::Literal(Value::Int64(20))),
                    &stats);
  EXPECT_EQ(out.rows().size(), 2u);
  EXPECT_EQ(out.SignedCardinality(), -1);
  EXPECT_EQ(stats.rows_scanned, 4);  // |mult| summed
  EXPECT_EQ(stats.rows_produced, 3);
}

TEST(FilterTest, NullPredicatePassesThrough) {
  Rows in = MakeRows(KV(), {{{1, 10}, 1}});
  Rows out = Filter(in, nullptr, nullptr);
  EXPECT_EQ(out.rows().size(), 1u);
}

TEST(ProjectTest, ComputesExpressions) {
  Rows in = MakeRows(KV(), {{{1, 10}, 2}});
  OperatorStats stats;
  Rows out = Project(
      in,
      {{ScalarExpr::Arith(ArithOp::kAdd, ScalarExpr::Column("k"),
                          ScalarExpr::Column("v")),
        "sum"}},
      &stats);
  EXPECT_EQ(out.schema.num_columns(), 1u);
  EXPECT_EQ(out.schema.column(0).name, "sum");
  EXPECT_EQ(out.rows()[0].first.value(0).AsInt64(), 11);
  EXPECT_EQ(out.rows()[0].second, 2);
}

TEST(ProjectTest, DoesNotCollapseDuplicates) {
  Rows in = MakeRows(KV(), {{{1, 10}, 1}, {{2, 10}, 1}});
  Rows out = Project(in, {{ScalarExpr::Column("v"), "v"}}, nullptr);
  EXPECT_EQ(out.rows().size(), 2u);  // multiset projection keeps both
}

TEST(HashJoinTest, BasicEquiJoin) {
  Rows left = MakeRows(KV(), {{{1, 10}, 1}, {{2, 20}, 1}, {{3, 30}, 1}});
  Rows right = MakeRows(Schema({{"k2", TypeId::kInt64}, {"w", TypeId::kInt64}}),
                        {{{2, 200}, 1}, {{3, 300}, 1}, {{4, 400}, 1}});
  OperatorStats stats;
  Rows out = HashJoin(left, right, JoinKeys{{"k"}, {"k2"}}, &stats);
  EXPECT_EQ(out.rows().size(), 2u);
  EXPECT_EQ(out.schema.num_columns(), 4u);
  EXPECT_EQ(stats.hash_build_rows, 3);
  EXPECT_EQ(stats.hash_probes, 3);
}

TEST(HashJoinTest, MultiplicitiesMultiply) {
  Rows left = MakeRows(KV(), {{{1, 10}, -2}});
  Rows right =
      MakeRows(Schema({{"k2", TypeId::kInt64}}), {});
  right.Add(Tuple({Value::Int64(1)}), 3);
  Rows out = HashJoin(left, right, JoinKeys{{"k"}, {"k2"}}, nullptr);
  ASSERT_EQ(out.rows().size(), 1u);
  EXPECT_EQ(out.rows()[0].second, -6);
}

TEST(HashJoinTest, MultiColumnKeys) {
  Schema ab({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}});
  Schema cd({{"c", TypeId::kInt64}, {"d", TypeId::kInt64}});
  Rows left = MakeRows(ab, {{{1, 2}, 1}, {{1, 3}, 1}});
  Rows right = MakeRows(cd, {{{1, 2}, 1}});
  Rows out = HashJoin(left, right, JoinKeys{{"a", "b"}, {"c", "d"}}, nullptr);
  EXPECT_EQ(out.rows().size(), 1u);
}

TEST(HashJoinTest, EmptyKeysIsCrossProduct) {
  Rows left = MakeRows(KV(), {{{1, 10}, 1}, {{2, 20}, 1}});
  Rows right = MakeRows(Schema({{"z", TypeId::kInt64}}), {{{7}, 1}, {{8}, 1}});
  Rows out = HashJoin(left, right, JoinKeys{}, nullptr);
  EXPECT_EQ(out.rows().size(), 4u);
}

TEST(AggregateTest, SumAndCountOverPositiveRows) {
  Rows in = MakeRows(Schema({{"g", TypeId::kInt64}, {"v", TypeId::kInt64}}),
                     {{{1, 10}, 1}, {{1, 20}, 2}, {{2, 5}, 1}});
  std::vector<AggSpec> aggs = {
      {AggFn::kSum, ScalarExpr::Column("v"), "s"},
      {AggFn::kCount, nullptr, "c"},
  };
  Rows out = AggregateSigned(in, {"g"}, aggs, nullptr);
  EXPECT_EQ(out.rows().size(), 2u);
  // Locate group 1.
  for (const auto& [row, mult] : out.rows()) {
    EXPECT_EQ(mult, 1);
    if (row.value(0).AsInt64() == 1) {
      EXPECT_EQ(row.value(1).AsInt64(), 10 + 40);  // sum weights by mult
      EXPECT_EQ(row.value(2).AsInt64(), 3);        // count
      EXPECT_EQ(row.value(3).AsInt64(), 3);        // __count
    } else {
      EXPECT_EQ(row.value(1).AsInt64(), 5);
      EXPECT_EQ(row.value(3).AsInt64(), 1);
    }
  }
  EXPECT_EQ(out.schema.column(3).name, kGroupCountColumn);
}

TEST(AggregateTest, SignedInputProducesSummaryDelta) {
  Rows in = MakeRows(Schema({{"g", TypeId::kInt64}, {"v", TypeId::kInt64}}),
                     {{{1, 10}, -1}, {{1, 30}, 1}});
  std::vector<AggSpec> aggs = {{AggFn::kSum, ScalarExpr::Column("v"), "s"}};
  Rows out = AggregateSigned(in, {"g"}, aggs, nullptr);
  ASSERT_EQ(out.rows().size(), 1u);
  EXPECT_EQ(out.rows()[0].first.value(1).AsInt64(), 20);  // Δsum
  EXPECT_EQ(out.rows()[0].first.value(2).AsInt64(), 0);   // Δcount
}

TEST(AggregateTest, ExactCancellationDropsGroup) {
  Rows in = MakeRows(Schema({{"g", TypeId::kInt64}, {"v", TypeId::kInt64}}),
                     {{{1, 10}, -1}, {{1, 10}, 1}, {{2, 1}, 1}});
  std::vector<AggSpec> aggs = {{AggFn::kSum, ScalarExpr::Column("v"), "s"}};
  Rows out = AggregateSigned(in, {"g"}, aggs, nullptr);
  ASSERT_EQ(out.rows().size(), 1u);
  EXPECT_EQ(out.rows()[0].first.value(0).AsInt64(), 2);
}

TEST(AggregateTest, ZeroCountNonZeroSumKept) {
  // Delete (g=1,v=10), insert (g=1,v=12): count cancels, sum must survive.
  Rows in = MakeRows(Schema({{"g", TypeId::kInt64}, {"v", TypeId::kInt64}}),
                     {{{1, 10}, -1}, {{1, 12}, 1}});
  std::vector<AggSpec> aggs = {{AggFn::kSum, ScalarExpr::Column("v"), "s"}};
  Rows out = AggregateSigned(in, {"g"}, aggs, nullptr);
  ASSERT_EQ(out.rows().size(), 1u);
  EXPECT_EQ(out.rows()[0].first.value(1).AsInt64(), 2);
  EXPECT_EQ(out.rows()[0].first.value(2).AsInt64(), 0);
}

TEST(AggregateTest, MultipleGroupKeys) {
  Rows in = MakeRows(Schema({{"g", TypeId::kInt64},
                             {"h", TypeId::kInt64},
                             {"v", TypeId::kInt64}}),
                     {{{1, 1, 5}, 1}, {{1, 2, 7}, 1}, {{1, 1, 2}, 1}});
  std::vector<AggSpec> aggs = {{AggFn::kSum, ScalarExpr::Column("v"), "s"}};
  Rows out = AggregateSigned(in, {"g", "h"}, aggs, nullptr);
  EXPECT_EQ(out.rows().size(), 2u);
}

}  // namespace
}  // namespace wuw
