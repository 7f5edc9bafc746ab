#include <gtest/gtest.h>

#include "core/min_work.h"
#include "exec/executor.h"
#include "parser/ddl_parser.h"
#include "test_util.h"
#include "tpcd/tpcd_views.h"
#include "view/recompute.h"

namespace wuw {
namespace {

const char* kMartScript = R"sql(
  -- base feeds
  CREATE TABLE sales (x_store INT, x_item INT, x_amount BIGINT, x_day DATE);
  CREATE TABLE stores (s_store INTEGER, s_city VARCHAR(25), s_lat DOUBLE);

  CREATE VIEW revenue_by_city AS
    SELECT s_city, SUM(x_amount) AS revenue, COUNT(*) AS n
    FROM sales, stores
    WHERE x_store = s_store
    GROUP BY s_city;

  CREATE VIEW city_rollup AS
    SELECT revenue AS city_rev, n AS city_n
    FROM revenue_by_city;
)sql";

TEST(DdlParserTest, ParsesTablesAndViews) {
  ParsedWarehouse parsed = ParseWarehouseScript(kMartScript);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const Vdag& vdag = parsed.vdag;
  EXPECT_EQ(vdag.num_views(), 4u);
  EXPECT_TRUE(vdag.IsBaseView("sales"));
  EXPECT_TRUE(vdag.IsBaseView("stores"));
  EXPECT_TRUE(vdag.IsDerivedView("revenue_by_city"));
  EXPECT_TRUE(vdag.IsDerivedView("city_rollup"));
  EXPECT_EQ(vdag.Level("city_rollup"), 2);

  const Schema& sales = vdag.OutputSchema("sales");
  EXPECT_EQ(sales.column(0).type, TypeId::kInt64);
  EXPECT_EQ(sales.column(2).type, TypeId::kInt64);  // BIGINT
  EXPECT_EQ(sales.column(3).type, TypeId::kDate);
  const Schema& stores = vdag.OutputSchema("stores");
  EXPECT_EQ(stores.column(1).type, TypeId::kString);  // VARCHAR(25)
  EXPECT_EQ(stores.column(2).type, TypeId::kDouble);
}

TEST(DdlParserTest, RoundTripsThroughDump) {
  ParsedWarehouse first = ParseWarehouseScript(kMartScript);
  ASSERT_TRUE(first.ok()) << first.error;
  std::string dumped = DumpWarehouseScript(first.vdag);
  ParsedWarehouse second = ParseWarehouseScript(dumped);
  ASSERT_TRUE(second.ok()) << second.error << "\n" << dumped;
  EXPECT_EQ(second.vdag.view_names(), first.vdag.view_names());
  for (const std::string& name : first.vdag.view_names()) {
    EXPECT_EQ(second.vdag.OutputSchema(name), first.vdag.OutputSchema(name))
        << name;
  }
}

TEST(DdlParserTest, RoundTripsTpcdVdag) {
  Vdag original = tpcd::BuildTpcdVdag();
  std::string script = DumpWarehouseScript(original);
  ParsedWarehouse parsed = ParseWarehouseScript(script);
  ASSERT_TRUE(parsed.ok()) << parsed.error << "\n" << script;
  EXPECT_EQ(parsed.vdag.view_names(), original.view_names());
  EXPECT_TRUE(parsed.vdag.IsUniform());

  // The reparsed Q5 computes the same extent as the original.
  tpcd::GeneratorOptions options;
  options.scale_factor = 0.002;
  Warehouse w = tpcd::MakeTpcdWarehouse(options, {"Q5"});
  Table original_q5 =
      RecomputeView(*original.definition("Q5"), w.catalog(), nullptr);
  Table reparsed_q5 =
      RecomputeView(*parsed.vdag.definition("Q5"), w.catalog(), nullptr);
  EXPECT_TRUE(original_q5.ContentsEqual(reparsed_q5));
}

TEST(DdlParserTest, ErrorUnknownSource) {
  ParsedWarehouse parsed = ParseWarehouseScript(
      "CREATE VIEW v AS SELECT x FROM nothing;");
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("nothing"), std::string::npos);
}

TEST(DdlParserTest, ErrorViewBeforeTable) {
  ParsedWarehouse parsed = ParseWarehouseScript(R"sql(
    CREATE VIEW v AS SELECT a FROM t;
    CREATE TABLE t (a INT);
  )sql");
  EXPECT_FALSE(parsed.ok());
}

TEST(DdlParserTest, ErrorDuplicateName) {
  ParsedWarehouse parsed = ParseWarehouseScript(R"sql(
    CREATE TABLE t (a INT);
    CREATE TABLE t (b INT);
  )sql");
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("duplicate"), std::string::npos);
}

TEST(DdlParserTest, ErrorIllTypedView) {
  // Rejected when parsed, before a later view resolves its output schema.
  ParsedWarehouse arith = ParseWarehouseScript(R"sql(
    CREATE TABLE t (a INT, s TEXT);
    CREATE VIEW v AS SELECT a, s * 2 AS x FROM t;
    CREATE VIEW w AS SELECT a, x FROM v;
  )sql");
  EXPECT_FALSE(arith.ok());
  EXPECT_NE(arith.error.find("numeric"), std::string::npos) << arith.error;
  ParsedWarehouse sum = ParseWarehouseScript(R"sql(
    CREATE TABLE t (a INT, s TEXT);
    CREATE VIEW v AS SELECT a, SUM(s) AS total FROM t GROUP BY a;
  )sql");
  EXPECT_FALSE(sum.ok());
  EXPECT_NE(sum.error.find("not numeric"), std::string::npos) << sum.error;
}

TEST(DdlParserTest, ErrorUnknownType) {
  ParsedWarehouse parsed =
      ParseWarehouseScript("CREATE TABLE t (a BLOB);");
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("BLOB"), std::string::npos);
}

TEST(DdlParserTest, ErrorUnsupportedStatement) {
  ParsedWarehouse parsed = ParseWarehouseScript("CREATE INDEX i ON t (a);");
  EXPECT_FALSE(parsed.ok());
}

TEST(DdlParserTest, ErrorBadViewBody) {
  ParsedWarehouse parsed = ParseWarehouseScript(R"sql(
    CREATE TABLE t (a INT);
    CREATE VIEW v AS SELECT nope FROM t;
  )sql");
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("nope"), std::string::npos);
}

TEST(DdlParserTest, SemicolonInsideStringLiteral) {
  ParsedWarehouse parsed = ParseWarehouseScript(R"sql(
    CREATE TABLE t (a INT, s TEXT);
    CREATE VIEW v AS SELECT a FROM t WHERE s = 'x;y';
  )sql");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
}

TEST(DdlParserTest, EmptyScriptYieldsEmptyVdag) {
  ParsedWarehouse parsed = ParseWarehouseScript("  -- nothing here\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.vdag.num_views(), 0u);
}

// A DDL-defined warehouse maintains correctly end to end.
TEST(DdlParserTest, ScriptedWarehouseMaintains) {
  ParsedWarehouse parsed = ParseWarehouseScript(kMartScript);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  Warehouse w(std::move(parsed.vdag));
  tpcd::Rng rng(5);
  for (int64_t s = 0; s < 10; ++s) {
    w.base_table("stores")->Add(
        Tuple({Value::Int64(s), Value::String("city" + std::to_string(s % 3)),
               Value::Double(37.0 + s)}),
        1);
  }
  for (int64_t i = 0; i < 500; ++i) {
    w.base_table("sales")->Add(
        Tuple({Value::Int64(rng.Range(0, 9)), Value::Int64(rng.Range(1, 50)),
               Value::Int64(rng.Range(1, 1000)),
               Value::Date(tpcd::DateFromDayOffset(rng.Range(0, 300)))}),
        1);
  }
  w.RecomputeDerived();

  DeltaRelation delta(w.vdag().OutputSchema("sales"));
  w.catalog().MustGetTable("sales")->ForEach(
      [&](const Tuple& t, int64_t c) {
        if (t.Hash() % 5 == 0) delta.Add(t, -c);
      });
  w.SetBaseDelta("sales", std::move(delta));
  Catalog truth = testutil::GroundTruthAfterChanges(w);
  Executor executor(&w);
  executor.Execute(MinWork(w.vdag(), w.EstimatedSizes()).strategy);
  EXPECT_TRUE(w.catalog().ContentsEqual(truth));
}

}  // namespace
}  // namespace wuw
