#include <gtest/gtest.h>

#include "test_util.h"
#include "view/join_pipeline.h"

namespace wuw {
namespace {

using testutil::TripleSchema;

Rows TripleRows(const std::string& name,
                std::vector<std::array<int64_t, 3>> rows) {
  Rows out(TripleSchema(name));
  for (const auto& r : rows) {
    out.Add(Tuple({Value::Int64(r[0]), Value::Int64(r[1]), Value::Int64(r[2])}),
            1);
  }
  return out;
}

TEST(JoinPipelineTest, TwoWayEquiJoin) {
  auto def = testutil::SpjTripleView("V", {"A", "B"});
  Rows a = TripleRows("A", {{1, 10, 0}, {2, 20, 1}, {3, 30, 2}});
  Rows b = TripleRows("B", {{2, 200, 1}, {3, 300, 2}, {4, 400, 3}});
  OperatorStats stats;
  Rows joined = EvalJoinPipeline(*def, {a, b}, &stats);
  EXPECT_EQ(joined.size(), 2u);
  EXPECT_EQ(joined.schema.num_columns(), 6u);
  EXPECT_EQ(stats.rows_scanned, 6);
}

TEST(JoinPipelineTest, ThreeWayChainsLeftDeep) {
  auto def = testutil::SpjTripleView("V", {"A", "B", "C"});
  Rows a = TripleRows("A", {{1, 1, 0}, {2, 1, 0}});
  Rows b = TripleRows("B", {{1, 2, 0}, {2, 2, 0}});
  Rows c = TripleRows("C", {{1, 3, 0}});
  Rows joined = EvalJoinPipeline(*def, {a, b, c}, nullptr);
  EXPECT_EQ(joined.size(), 1u);  // only key 1 survives all three
}

TEST(JoinPipelineTest, SignedMultiplicitiesFlowThrough) {
  auto def = testutil::SpjTripleView("V", {"A", "B"});
  Rows a(TripleSchema("A"));
  a.Add(Tuple({Value::Int64(1), Value::Int64(5), Value::Int64(0)}), -2);
  Rows b(TripleSchema("B"));
  b.Add(Tuple({Value::Int64(1), Value::Int64(7), Value::Int64(0)}), 3);
  Rows joined = EvalJoinPipeline(*def, {a, b}, nullptr);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(testutil::RowsOf(joined)[0].second, -6);
}

TEST(JoinPipelineTest, SingleSourceFilterPushdownCountsScans) {
  // The filter in SpjTripleView(with_filter) references only source 0, so
  // it runs at the scan: scanned = |A| (filter) + |A after filter| + |B|
  // contributions from the join.
  auto def = testutil::SpjTripleView("V", {"A", "B"}, /*with_filter=*/true);
  Rows a = TripleRows("A", {{1, 0, 0}, {2, 5, 0}, {3, 7, 0}});  // v=0 dropped
  Rows b = TripleRows("B", {{1, 1, 0}, {2, 2, 0}, {3, 3, 0}});
  OperatorStats stats;
  Rows joined = EvalJoinPipeline(*def, {a, b}, &stats);
  EXPECT_EQ(joined.size(), 2u);  // key 1 filtered out before the join
}

TEST(JoinPipelineTest, MultiSourcePredicateAppliedAfterJoin) {
  // A conjunct spanning A and B must survive classification and run once
  // both are joined.
  auto def = ViewDefinitionBuilder("V")
                 .From("A")
                 .From("B")
                 .JoinOn("A_k", "B_k")
                 .Where(ScalarExpr::Compare(CompareOp::kLt,
                                            ScalarExpr::Column("A_v"),
                                            ScalarExpr::Column("B_v")))
                 .SelectColumn("A_k", "V_k")
                 .SelectColumn("A_v", "V_v")
                 .SelectColumn("A_g", "V_g")
                 .Build();
  Rows a = TripleRows("A", {{1, 10, 0}, {2, 50, 0}});
  Rows b = TripleRows("B", {{1, 20, 0}, {2, 20, 0}});
  Rows joined = EvalJoinPipeline(*def, {a, b}, nullptr);
  EXPECT_EQ(joined.size(), 1u);  // only key 1 has A_v < B_v
}

TEST(JoinPipelineTest, DisconnectedSourceIsCrossProduct) {
  auto def = ViewDefinitionBuilder("V")
                 .From("A")
                 .From("B")  // no join condition
                 .SelectColumn("A_k", "V_k")
                 .SelectColumn("B_k", "V_b")
                 .Build();
  Rows a = TripleRows("A", {{1, 0, 0}, {2, 0, 0}});
  Rows b = TripleRows("B", {{7, 0, 0}, {8, 0, 0}, {9, 0, 0}});
  Rows joined = EvalJoinPipeline(*def, {a, b}, nullptr);
  EXPECT_EQ(joined.size(), 6u);
}

TEST(JoinPipelineTest, ConjunctReadingNoColumnStillFilters) {
  // `1 = 0` reads no column; it runs at the first scan instead of being
  // dropped, with one source or several.
  ScalarExpr::Ptr never = ScalarExpr::Compare(
      CompareOp::kEq, ScalarExpr::Literal(Value::Int64(1)),
      ScalarExpr::Literal(Value::Int64(0)));
  Rows a = TripleRows("A", {{1, 10, 0}, {2, 20, 1}});
  Rows b = TripleRows("B", {{1, 5, 0}, {2, 6, 1}});
  auto two = ViewDefinitionBuilder("V")
                 .From("A")
                 .From("B")
                 .JoinOn("A_k", "B_k")
                 .Where(never)
                 .SelectColumn("A_k", "V_k")
                 .Build();
  EXPECT_EQ(EvalJoinPipeline(*two, {a, b}, nullptr).size(), 0u);
  EXPECT_EQ(EvalRawPipeline(*two, {a, b}, nullptr).size(), 0u);
  auto one = ViewDefinitionBuilder("W")
                 .From("A")
                 .Where(never)
                 .SelectColumn("A_k", "W_k")
                 .Build();
  EXPECT_EQ(EvalRawPipeline(*one, {a}, nullptr).size(), 0u);
  auto kept = ViewDefinitionBuilder("U")
                  .From("A")
                  .Where(ScalarExpr::True())
                  .SelectColumn("A_k", "U_k")
                  .Build();
  EXPECT_EQ(EvalRawPipeline(*kept, {a}, nullptr).size(), 2u);
}

TEST(JoinPipelineTest, MultipleEdgesToSameSourceBecomeCompositeKey) {
  // Join on both _k and _g simultaneously.
  auto def = ViewDefinitionBuilder("V")
                 .From("A")
                 .From("B")
                 .JoinOn("A_k", "B_k")
                 .JoinOn("A_g", "B_g")
                 .SelectColumn("A_k", "V_k")
                 .Build();
  Rows a = TripleRows("A", {{1, 0, 0}, {2, 0, 1}});
  Rows b = TripleRows("B", {{1, 9, 0}, {2, 9, 2}});  // g mismatch on key 2
  Rows joined = EvalJoinPipeline(*def, {a, b}, nullptr);
  EXPECT_EQ(joined.size(), 1u);
}

TEST(JoinPipelineTest, RawProjectionForAggregateViews) {
  auto def = testutil::AggTripleView("V", {"A", "B"});
  Rows a = TripleRows("A", {{1, 10, 2}});
  Rows b = TripleRows("B", {{1, 5, 0}});
  Rows raw = EvalRawPipeline(*def, {a, b}, nullptr);
  // Raw schema: group keys (V_k, V_g) + __arg0 for the SUM.
  EXPECT_EQ(raw.schema.num_columns(), 3u);
  EXPECT_EQ(raw.schema.column(2).name, "__arg0");
  ASSERT_EQ(raw.size(), 1u);
  EXPECT_EQ(testutil::RowsOf(raw)[0].first.value(2).AsInt64(), 15);  // A_v + B_v
}

TEST(JoinPipelineTest, RawSchemaMatchesRawPipeline) {
  auto def = testutil::AggTripleView("V", {"A", "B"});
  Schema from_helper = RawSchema(*def, [&](const std::string& n) -> const Schema& {
    static Schema a = TripleSchema("A");
    static Schema b = TripleSchema("B");
    return n == "A" ? a : b;
  });
  Rows a = TripleRows("A", {{1, 10, 2}});
  Rows b = TripleRows("B", {{1, 5, 0}});
  Rows raw = EvalRawPipeline(*def, {a, b}, nullptr);
  EXPECT_EQ(from_helper, raw.schema);
}

TEST(JoinPipelineDeathTest, WrongInputCountAborts) {
  auto def = testutil::SpjTripleView("V", {"A", "B"});
  Rows a = TripleRows("A", {});
  EXPECT_DEATH(EvalJoinPipeline(*def, {a}, nullptr), "one input per");
}

}  // namespace
}  // namespace wuw
