#include <gtest/gtest.h>

#include "test_util.h"
#include "tpcd/tpcd_views.h"
#include "view/validate.h"

namespace wuw {
namespace {

using testutil::TripleSchema;

ViewDefinition::SchemaResolver TripleResolver() {
  return [](const std::string& name) -> const Schema& {
    static std::unordered_map<std::string, Schema> schemas;
    auto it = schemas.find(name);
    if (it == schemas.end()) {
      it = schemas.emplace(name, TripleSchema(name)).first;
    }
    return it->second;
  };
}

TEST(ValidateTest, CleanDefinitionsPass) {
  EXPECT_EQ(ValidateDefinition(*testutil::SpjTripleView("V", {"A", "B"}),
                               TripleResolver()),
            "");
  EXPECT_EQ(ValidateDefinition(*testutil::AggTripleView("V", {"A", "B"}),
                               TripleResolver()),
            "");
}

TEST(ValidateTest, WholeTpcdVdagIsClean) {
  EXPECT_EQ(ValidateVdag(tpcd::BuildTpcdVdag()), "");
}

TEST(ValidateTest, AllTestFixturesAreClean) {
  EXPECT_EQ(ValidateVdag(testutil::MakeFig3Vdag()), "");
  EXPECT_EQ(ValidateVdag(testutil::MakeFig10Vdag()), "");
  EXPECT_EQ(ValidateVdag(testutil::MakeStarVdag("V", 4, true)), "");
}

TEST(ValidateTest, DetectsUnknownFilterColumn) {
  auto def = ViewDefinitionBuilder("V")
                 .From("A")
                 .Where(ScalarExpr::Column("nope"))
                 .SelectColumn("A_k", "k")
                 .Build();
  std::string err = ValidateDefinition(*def, TripleResolver());
  EXPECT_NE(err.find("nope"), std::string::npos);
  EXPECT_NE(err.find("WHERE"), std::string::npos);
}

TEST(ValidateTest, DetectsUnknownProjectionColumn) {
  auto def = ViewDefinitionBuilder("V")
                 .From("A")
                 .Select(ScalarExpr::Column("ghost"), "g")
                 .Build();
  EXPECT_NE(ValidateDefinition(*def, TripleResolver()).find("ghost"),
            std::string::npos);
}

TEST(ValidateTest, DetectsNonNumericArithmeticAndSum) {
  auto resolver = [](const std::string& name) -> const Schema& {
    static Schema s({{"s_store", TypeId::kInt64}, {"s_city", TypeId::kString}});
    (void)name;
    return s;
  };
  auto twice_city = [] {
    return ScalarExpr::Arith(ArithOp::kMul, ScalarExpr::Column("s_city"),
                             ScalarExpr::Literal(Value::Int64(2)));
  };
  auto where = ViewDefinitionBuilder("V")
                   .From("stores")
                   .Where(ScalarExpr::Compare(
                       CompareOp::kGt, twice_city(),
                       ScalarExpr::Literal(Value::Int64(1))))
                   .SelectColumn("s_store", "s_store")
                   .Build();
  std::string err = ValidateDefinition(*where, resolver);
  EXPECT_NE(err.find("numeric"), std::string::npos) << err;
  EXPECT_NE(err.find("WHERE"), std::string::npos) << err;
  auto select = ViewDefinitionBuilder("V")
                    .From("stores")
                    .Select(twice_city(), "x")
                    .Build();
  err = ValidateDefinition(*select, resolver);
  EXPECT_NE(err.find("SELECT"), std::string::npos) << err;
  auto sum = ViewDefinitionBuilder("V")
                 .From("stores")
                 .SelectColumn("s_store", "s_store")
                 .Sum(ScalarExpr::Column("s_city"), "total")
                 .Build();
  err = ValidateDefinition(*sum, resolver);
  EXPECT_NE(err.find("SUM argument s_city is not numeric"), std::string::npos)
      << err;
}

TEST(ValidateTest, DetectsUnknownJoinColumn) {
  auto def = ViewDefinitionBuilder("V")
                 .From("A")
                 .From("B")
                 .JoinOn("A_k", "Z_k")
                 .SelectColumn("A_k", "k")
                 .Build();
  EXPECT_NE(ValidateDefinition(*def, TripleResolver()).find("Z_k"),
            std::string::npos);
}

TEST(ValidateTest, DetectsSameSourceJoin) {
  auto def = ViewDefinitionBuilder("V")
                 .From("A")
                 .From("B")
                 .JoinOn("A_k", "A_g")
                 .SelectColumn("A_k", "k")
                 .Build();
  EXPECT_NE(ValidateDefinition(*def, TripleResolver()).find("span"),
            std::string::npos);
}

TEST(ValidateTest, DetectsColumnCollisionAcrossSources) {
  // Two sources exposing the same column name.
  auto resolver = [](const std::string& name) -> const Schema& {
    static Schema s({{"k", TypeId::kInt64}});
    (void)name;
    return s;
  };
  auto def = ViewDefinitionBuilder("V")
                 .From("A")
                 .From("B")
                 .SelectColumn("k", "k")
                 .Build();
  EXPECT_NE(ValidateDefinition(*def, resolver).find("more than one source"),
            std::string::npos);
}

TEST(ValidateTest, DetectsDuplicateOutputNames) {
  auto def = ViewDefinitionBuilder("V")
                 .From("A")
                 .SelectColumn("A_k", "x")
                 .SelectColumn("A_g", "x")
                 .Build();
  EXPECT_NE(ValidateDefinition(*def, TripleResolver()).find("duplicate"),
            std::string::npos);
}

TEST(ValidateTest, DetectsReservedAggregateName) {
  auto def = ViewDefinitionBuilder("V")
                 .From("A")
                 .SelectColumn("A_g", "g")
                 .Count("__count")
                 .Build();
  EXPECT_NE(ValidateDefinition(*def, TripleResolver()).find("reserved"),
            std::string::npos);
}

TEST(ValidateTest, DetectsDuplicateSumName) {
  auto def = ViewDefinitionBuilder("V")
                 .From("A")
                 .SelectColumn("A_g", "g")
                 .Sum(ScalarExpr::Column("A_v"), "g")
                 .Build();
  EXPECT_NE(ValidateDefinition(*def, TripleResolver()).find("duplicate"),
            std::string::npos);
}

}  // namespace
}  // namespace wuw
