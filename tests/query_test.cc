#include <gtest/gtest.h>

#include "core/min_work.h"
#include "exec/executor.h"
#include "query/ad_hoc.h"
#include "test_util.h"
#include "tpcd/change_generator.h"
#include "tpcd/tpcd_schema.h"
#include "tpcd/tpcd_views.h"

namespace wuw {
namespace {

class QueryTest : public ::testing::Test {
 protected:
  QueryTest() {
    tpcd::GeneratorOptions options;
    options.scale_factor = 0.002;
    options.seed = 3;
    warehouse_ = std::make_unique<Warehouse>(
        tpcd::MakeTpcdWarehouse(options, {"Q3"}));
  }

  std::unique_ptr<Warehouse> warehouse_;
};

TEST_F(QueryTest, SimpleSelection) {
  QueryResult r = ExecuteQuery(
      *warehouse_,
      "SELECT n_name FROM NATION WHERE n_regionkey = 2");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.rows.rows.size(), 5u);  // 25 nations / 5 regions
}

TEST_F(QueryTest, JoinQuery) {
  QueryResult r = ExecuteQuery(*warehouse_, R"sql(
      SELECT n_name, r_name
      FROM NATION, REGION
      WHERE n_regionkey = r_regionkey AND r_name = 'ASIA')sql");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.rows.rows.size(), 5u);
  EXPECT_EQ(r.rows.schema.num_columns(), 2u);
}

TEST_F(QueryTest, AggregateQueryAgainstBaseViews) {
  QueryResult r = ExecuteQuery(*warehouse_, R"sql(
      SELECT c_mktsegment, COUNT(*) AS customers
      FROM CUSTOMER GROUP BY c_mktsegment)sql");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.rows.rows.size(), 5u);  // five market segments
  int64_t total = 0;
  for (const auto& [row, mult] : r.rows.rows) {
    total += row.value(1).AsInt64();
  }
  EXPECT_EQ(total,
            warehouse_->catalog().MustGetTable(tpcd::kCustomer)->cardinality());
}

TEST_F(QueryTest, QueryOverSummaryTable) {
  // Readers hit the materialized Q3 directly — the whole point of keeping
  // it maintained.
  QueryResult r = ExecuteQuery(*warehouse_, R"sql(
      SELECT l_orderkey, revenue FROM Q3 WHERE revenue > 0)sql");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.rows.rows.size(),
            static_cast<size_t>(
                warehouse_->catalog().MustGetTable("Q3")->cardinality()));
}

TEST_F(QueryTest, QueriesSeeInstalledUpdates) {
  QueryResult before = ExecuteQuery(
      *warehouse_, "SELECT o_orderkey FROM ORDERS");
  ASSERT_TRUE(before.ok());

  tpcd::ApplyPaperChangeWorkload(warehouse_.get(), 0.10, 0.0, 9);
  Executor executor(warehouse_.get());
  executor.Execute(
      MinWork(warehouse_->vdag(), warehouse_->EstimatedSizes()).strategy);

  QueryResult after = ExecuteQuery(
      *warehouse_, "SELECT o_orderkey FROM ORDERS");
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after.rows.rows.size(), before.rows.rows.size());
}

TEST_F(QueryTest, ErrorsAreReportedNotFatal) {
  EXPECT_FALSE(ExecuteQuery(*warehouse_, "SELECT x FROM NO_SUCH").ok());
  EXPECT_FALSE(ExecuteQuery(*warehouse_, "SELECT nope FROM ORDERS").ok());
  EXPECT_FALSE(ExecuteQuery(*warehouse_, "not sql at all").ok());
  EXPECT_FALSE(
      ExecuteQuery(*warehouse_, "SELECT SUM(o_orderkey) AS s FROM ORDERS")
          .ok());  // aggregate without GROUP BY
  // Ill-typed expressions: arithmetic on a string, SUM over a string.
  QueryResult arith = ExecuteQuery(
      *warehouse_, "SELECT n_nationkey FROM NATION WHERE n_name * 2 > 1");
  EXPECT_NE(arith.error.find("numeric"), std::string::npos) << arith.error;
  QueryResult sum = ExecuteQuery(
      *warehouse_,
      "SELECT n_regionkey, SUM(n_name) AS s FROM NATION GROUP BY n_regionkey");
  EXPECT_NE(sum.error.find("not numeric"), std::string::npos) << sum.error;
}

TEST_F(QueryTest, ToTextRendersTable) {
  QueryResult r = ExecuteQuery(
      *warehouse_, "SELECT r_regionkey, r_name FROM REGION");
  ASSERT_TRUE(r.ok()) << r.error;
  std::string text = r.ToText();
  EXPECT_NE(text.find("r_name"), std::string::npos);
  EXPECT_NE(text.find("ASIA"), std::string::npos);
  EXPECT_NE(text.find("(5 rows)"), std::string::npos);
}

TEST_F(QueryTest, ToTextTruncates) {
  QueryResult r = ExecuteQuery(
      *warehouse_, "SELECT c_custkey FROM CUSTOMER");
  ASSERT_TRUE(r.ok()) << r.error;
  std::string text = r.ToText(/*max_rows=*/3);
  EXPECT_NE(text.find("more)"), std::string::npos);
}

TEST_F(QueryTest, DeterministicRowOrder) {
  QueryResult a = ExecuteQuery(*warehouse_, "SELECT n_name FROM NATION");
  QueryResult b = ExecuteQuery(*warehouse_, "SELECT n_name FROM NATION");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a.rows.rows.size(), b.rows.rows.size());
  for (size_t i = 0; i < a.rows.rows.size(); ++i) {
    EXPECT_EQ(a.rows.rows[i].first, b.rows.rows[i].first);
  }
}

}  // namespace
}  // namespace wuw
