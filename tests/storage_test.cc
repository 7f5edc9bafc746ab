#include <cstdint>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "algebra/rows.h"
#include "obs/metrics.h"
#include "storage/catalog.h"
#include "storage/column_table.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/tuple.h"
#include "storage/value.h"

namespace wuw {
namespace {

TEST(ValueTest, TypeAccessors) {
  EXPECT_EQ(Value::Int64(42).AsInt64(), 42);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("x").AsString(), "x");
  EXPECT_EQ(Value::Date(19950315).AsDate(), 19950315);
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_FALSE(Value::Int64(0).is_null());
}

TEST(ValueTest, DateFactoryFromComponents) {
  EXPECT_EQ(Value::Date(1995, 3, 15).AsDate(), 19950315);
  EXPECT_EQ(Value::Date(1992, 1, 1).AsDate(), 19920101);
}

TEST(ValueTest, NumericValueWidens) {
  EXPECT_DOUBLE_EQ(Value::Int64(7).NumericValue(), 7.0);
  EXPECT_DOUBLE_EQ(Value::Date(19950315).NumericValue(), 19950315.0);
  EXPECT_DOUBLE_EQ(Value::Double(1.5).NumericValue(), 1.5);
}

TEST(ValueTest, EqualityAcrossNumericRepresentations) {
  EXPECT_EQ(Value::Int64(3), Value::Double(3.0));
  EXPECT_NE(Value::Int64(3), Value::Double(3.5));
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::Null(), Value::Int64(0));
  EXPECT_NE(Value::String("3"), Value::Int64(3));
}

TEST(ValueTest, TotalOrder) {
  EXPECT_LT(Value::Null(), Value::Int64(-100));
  EXPECT_LT(Value::Int64(1), Value::Int64(2));
  EXPECT_LT(Value::Int64(5), Value::String(""));
  EXPECT_LT(Value::String("a"), Value::String("b"));
  EXPECT_LT(Value::Date(19940101), Value::Date(19950101));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int64(3).Hash(), Value::Double(3.0).Hash());
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
  EXPECT_EQ(Value::Null().Hash(), Value::Null().Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Int64(-5).ToString(), "-5");
  EXPECT_EQ(Value::Date(19950315).ToString(), "1995-03-15");
  EXPECT_EQ(Value::String("hi").ToString(), "hi");
  EXPECT_EQ(Value::Null().ToString(), "NULL");
}

TEST(SchemaTest, LookupByName) {
  Schema s({{"a", TypeId::kInt64}, {"b", TypeId::kString}});
  EXPECT_EQ(s.num_columns(), 2u);
  EXPECT_EQ(s.IndexOf("a"), 0);
  EXPECT_EQ(s.IndexOf("b"), 1);
  EXPECT_EQ(s.IndexOf("c"), -1);
  EXPECT_EQ(s.MustIndexOf("b"), 1u);
  EXPECT_TRUE(s.HasColumn("a"));
  EXPECT_FALSE(s.HasColumn("z"));
}

TEST(SchemaTest, Concat) {
  Schema a({{"x", TypeId::kInt64}});
  Schema b({{"y", TypeId::kDouble}});
  Schema c = Schema::Concat(a, b);
  EXPECT_EQ(c.num_columns(), 2u);
  EXPECT_EQ(c.column(1).name, "y");
}

TEST(SchemaTest, Equality) {
  Schema a({{"x", TypeId::kInt64}});
  Schema b({{"x", TypeId::kInt64}});
  Schema c({{"x", TypeId::kDouble}});
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(TupleTest, ProjectAndConcat) {
  Tuple t({Value::Int64(1), Value::String("a"), Value::Int64(3)});
  Tuple p = t.Project({2, 0});
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(p.value(0).AsInt64(), 3);
  EXPECT_EQ(p.value(1).AsInt64(), 1);

  Tuple c = Tuple::Concat(t, p);
  EXPECT_EQ(c.size(), 5u);
  EXPECT_EQ(c.value(4).AsInt64(), 1);
}

TEST(TupleTest, OrderAndEquality) {
  Tuple a({Value::Int64(1), Value::Int64(2)});
  Tuple b({Value::Int64(1), Value::Int64(3)});
  Tuple c({Value::Int64(1), Value::Int64(2)});
  EXPECT_LT(a, b);
  EXPECT_EQ(a, c);
  EXPECT_EQ(a.Hash(), c.Hash());
  Tuple shorter({Value::Int64(1)});
  EXPECT_LT(shorter, a);
}

TEST(TableTest, MultisetAddAndRemove) {
  Table t(Schema({{"x", TypeId::kInt64}}));
  Tuple row({Value::Int64(7)});
  EXPECT_EQ(t.Add(row, 3), 3);
  EXPECT_EQ(t.cardinality(), 3);
  EXPECT_EQ(t.distinct_size(), 1u);
  EXPECT_EQ(t.Add(row, -1), 2);
  EXPECT_EQ(t.cardinality(), 2);
  EXPECT_EQ(t.Add(row, -2), 0);
  EXPECT_TRUE(t.empty());
}

TEST(TableTest, NegativeCountClampsToZero) {
  Table t(Schema({{"x", TypeId::kInt64}}));
  Tuple row({Value::Int64(1)});
  EXPECT_EQ(t.Add(row, -5), 0);
  EXPECT_EQ(t.cardinality(), 0);
  t.Add(row, 2);
  EXPECT_EQ(t.Add(row, -5), 0);  // over-delete clamps
  EXPECT_EQ(t.cardinality(), 0);
}

TEST(TableTest, ContentsEqualIgnoresInsertionOrder) {
  Schema s({{"x", TypeId::kInt64}});
  Table a(s), b(s);
  a.Add(Tuple({Value::Int64(1)}), 1);
  a.Add(Tuple({Value::Int64(2)}), 2);
  b.Add(Tuple({Value::Int64(2)}), 2);
  b.Add(Tuple({Value::Int64(1)}), 1);
  EXPECT_TRUE(a.ContentsEqual(b));
  b.Add(Tuple({Value::Int64(1)}), 1);
  EXPECT_FALSE(a.ContentsEqual(b));
}

TEST(TableTest, SortedRowsDeterministic) {
  Table t(Schema({{"x", TypeId::kInt64}}));
  t.Add(Tuple({Value::Int64(5)}), 1);
  t.Add(Tuple({Value::Int64(1)}), 1);
  t.Add(Tuple({Value::Int64(3)}), 1);
  auto rows = t.SortedRows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].first.value(0).AsInt64(), 1);
  EXPECT_EQ(rows[2].first.value(0).AsInt64(), 5);
}

// The pager's bulk fault-in: a released table restored from its dense rows
// has the identical dense layout, cardinality, mutation count and index
// size as before, and keeps working as a table afterwards.
TEST(TableTest, RestorePayloadRebuildsTheReleasedTable) {
  Schema s({{"x", TypeId::kInt64}, {"y", TypeId::kString}});
  Table t(s);
  for (int64_t i = 0; i < 200; ++i) {
    t.Add(Tuple({Value::Int64(i), Value::String("v" + std::to_string(i % 7))}),
          1 + i % 3);
  }
  // Deletions swap-with-last, so the dense order is not insertion order.
  for (int64_t i = 0; i < 200; i += 5) {
    t.Add(Tuple({Value::Int64(i), Value::String("v" + std::to_string(i % 7))}),
          -10);
  }
  const auto dense = t.dense_rows();
  const int64_t cardinality = t.cardinality();
  const int64_t mutations = t.mutation_count();
  Table incremental(s);
  for (const auto& [tuple, count] : dense) incremental.Add(tuple, count);

  t.ReleasePayload();
  EXPECT_EQ(t.distinct_size(), 0u);
  EXPECT_EQ(t.RestorePayload(dense, cardinality, mutations), "");
  EXPECT_EQ(t.dense_rows(), dense);
  EXPECT_EQ(t.cardinality(), cardinality);
  EXPECT_EQ(t.mutation_count(), mutations);
  EXPECT_EQ(t.IndexBytes(), incremental.IndexBytes());
  for (const auto& [tuple, count] : dense) EXPECT_EQ(t.Count(tuple), count);
  EXPECT_TRUE(t.ContentsEqual(incremental));
  // Point updates find restored rows; new rows still go in.
  EXPECT_EQ(t.Add(dense.front().first, -dense.front().second), 0);
  EXPECT_EQ(t.Add(Tuple({Value::Int64(-1), Value::String("new")}), 2), 2);
  EXPECT_EQ(t.cardinality(), cardinality - dense.front().second + 2);

  Table empty(s);
  empty.ReleasePayload();
  EXPECT_EQ(empty.RestorePayload({}, 0, 4), "");
  EXPECT_EQ(empty.IndexBytes(), 0u);
  EXPECT_EQ(empty.mutation_count(), 4);
}

// A corrupt image is rejected with an error and the table is left as it
// was: duplicate tuples, non-positive multiplicities, or a multiplicity
// total that overflows or disagrees with the recorded cardinality.
TEST(TableTest, RestorePayloadRejectsCorruptRowsUntouched) {
  Schema s({{"x", TypeId::kInt64}});
  Table t(s);
  t.Add(Tuple({Value::Int64(9)}), 4);
  const auto before = t.dense_rows();
  const int64_t mutations = t.mutation_count();
  const Tuple a({Value::Int64(1)});
  const Tuple b({Value::Int64(2)});

  EXPECT_NE(t.RestorePayload({{a, 1}, {b, 2}, {a, 1}}, 4, 99), "");
  EXPECT_NE(t.RestorePayload({{a, 1}, {b, 0}}, 1, 99), "");
  EXPECT_NE(t.RestorePayload({{a, 1}, {b, -2}}, -1, 99), "");
  EXPECT_NE(t.RestorePayload({{a, 1}, {b, 2}}, 4, 99), "");
  EXPECT_NE(t.RestorePayload({{a, INT64_MAX}, {b, 1}}, 0, 99), "");
  EXPECT_EQ(t.dense_rows(), before);
  EXPECT_EQ(t.cardinality(), 4);
  EXPECT_EQ(t.mutation_count(), mutations);
  EXPECT_EQ(t.Count(Tuple({Value::Int64(9)})), 4);
}

// Every byte an image's readers can see: cells, null masks, dictionary
// strings, multiplicities and prefix sums.
std::string ImageBytes(const ColumnTable& image) {
  std::string out;
  auto put = [&](const void* p, size_t n) {
    out.append(static_cast<const char*>(p), n);
  };
  for (size_t c = 0; c < image.num_columns(); ++c) {
    const ColumnVec& col = image.column(c);
    put(col.ints.data(), col.ints.size() * sizeof(int64_t));
    put(col.dbls.data(), col.dbls.size() * sizeof(double));
    put(col.codes.data(), col.codes.size() * sizeof(uint32_t));
    put(col.nulls.data(), col.nulls.size());
    if (col.dict != nullptr) {
      for (size_t i = 0; i < col.dict->size(); ++i) out += col.dict->At(i) + '\0';
    }
  }
  put(image.mult().data(), image.mult().size() * sizeof(int64_t));
  for (size_t end = 0; end <= image.num_rows(); ++end) {
    const int64_t abs = image.AbsCardBetween(0, end);
    const int64_t sgn = image.SignedCardBetween(0, end);
    put(&abs, sizeof(abs));
    put(&sgn, sizeof(sgn));
  }
  return out;
}

Schema ImageSchema() {
  return Schema({{"k", TypeId::kInt64}, {"s", TypeId::kString}});
}

Tuple ImageRow(int64_t k, const std::string& s) {
  return Tuple({Value::Int64(k), Value::String(s)});
}

/// Mutates `t` with an insert of a new string, a bump and a delete.
void Churn(Table* t) {
  t->Add(ImageRow(100, "brand new"), 1);
  t->Add(ImageRow(3, "v3"), 4);
  t->Add(ImageRow(5, "v5"), -100);
}

// The drop path: while a Table copy shares the image (a published
// snapshot) or a scan holds it, mutations leave it byte-identical and the
// mutated table gets a fresh image of its new rows.
TEST(TableImageTest, CopiesAndScansKeepTheirImagesThroughMutations) {
  for (const bool via_scan : {false, true}) {
    SCOPED_TRACE(via_scan ? "scan" : "copy");
    Table table(ImageSchema());
    for (int64_t i = 0; i < 40; ++i) {
      table.Add(ImageRow(i, "v" + std::to_string(i)), 1 + i % 3);
    }
    std::shared_ptr<const ColumnTable> before = table.ColumnarSnapshot();
    const std::string bytes = ImageBytes(*before);
    Table copy(ImageSchema());
    Rows scan;
    if (via_scan) {
      scan = Rows::FromTable(table);
    } else {
      copy = table;
    }
    before.reset();  // only the copy or the scan holds the image now

    Churn(&table);
    std::shared_ptr<const ColumnTable> held =
        via_scan ? scan.Columnar() : copy.ColumnarSnapshot();
    EXPECT_EQ(ImageBytes(*held), bytes);
    std::shared_ptr<const ColumnTable> after = table.ColumnarSnapshot();
    EXPECT_NE(after, held);
    EXPECT_EQ(ImageBytes(*after),
              ImageBytes(*ColumnTable::FromRows(table.schema(),
                                                table.dense_rows())));
  }
}

// A type-violating row drops the image (no abort); the snapshot stays null
// while the row is present and returns, equal to a rebuild, once it goes.
TEST(TableImageTest, TypeViolatingRowDropsTheImageUntilDeleted) {
  Table table(ImageSchema());
  for (int64_t i = 0; i < 10; ++i) table.Add(ImageRow(i, "v"), 1);
  ASSERT_NE(table.ColumnarSnapshot(), nullptr);
  const Tuple bad({Value::Int64(77), Value::Int64(78)});
  table.Add(bad, 2);
  EXPECT_EQ(table.ColumnarSnapshot(), nullptr);
  table.Add(ImageRow(11, "w"), 1);
  EXPECT_EQ(table.ColumnarSnapshot(), nullptr);
  table.Add(bad, -2);
  std::shared_ptr<const ColumnTable> image = table.ColumnarSnapshot();
  ASSERT_NE(image, nullptr);
  EXPECT_EQ(image->num_rows(), 11u);
  EXPECT_EQ(ImageBytes(*image),
            ImageBytes(*ColumnTable::FromRows(table.schema(),
                                              table.dense_rows())));
}

// Deleting the last row holding a string leaves a dead dictionary entry;
// the image is dropped and rebuilt before dead entries exceed the bound,
// so 10k insert/delete cycles of unique strings cost ~10k/64 rebuilds.
TEST(TableImageTest, DictionaryStaysUnderItsBound) {
  obs::ArmMetrics();
  obs::Counter* conversions =
      obs::GetCounter("engine.vec.conversions", obs::MetricClass::kEngine);
  Table table(ImageSchema());
  for (int64_t i = 0; i < 8; ++i) table.Add(ImageRow(i, "base"), 1);
  const int64_t start = conversions->value();
  for (int64_t i = 0; i < 10000; ++i) {
    const Tuple row = ImageRow(-i, "unique " + std::to_string(i));
    for (const int64_t count : {1, -1}) {
      table.Add(row, count);
      std::shared_ptr<const ColumnTable> image = table.ColumnarSnapshot();
      ASSERT_NE(image, nullptr);
      ASSERT_LE(image->column(1).dict->size(), 2 * image->num_rows() + 64)
          << "cycle " << i;
    }
  }
  EXPECT_LE(conversions->value() - start, 10000 / 64 + 1);
  obs::DisarmMetrics();
}

TEST(CatalogTest, CreateAndLookup) {
  Catalog c;
  Table* t = c.CreateTable("T", Schema({{"x", TypeId::kInt64}}));
  EXPECT_NE(t, nullptr);
  EXPECT_EQ(c.GetTable("T"), t);
  EXPECT_EQ(c.GetTable("U"), nullptr);
  EXPECT_TRUE(c.HasTable("T"));
  EXPECT_EQ(c.table_names().size(), 1u);
}

TEST(CatalogTest, CloneIsDeep) {
  Catalog c;
  Table* t = c.CreateTable("T", Schema({{"x", TypeId::kInt64}}));
  t->Add(Tuple({Value::Int64(1)}), 1);
  Catalog clone = c.Clone();
  clone.MustGetTable("T")->Add(Tuple({Value::Int64(2)}), 1);
  EXPECT_EQ(c.MustGetTable("T")->cardinality(), 1);
  EXPECT_EQ(clone.MustGetTable("T")->cardinality(), 2);
  EXPECT_FALSE(c.ContentsEqual(clone));
}

TEST(CatalogTest, ContentsEqual) {
  Catalog a, b;
  a.CreateTable("T", Schema({{"x", TypeId::kInt64}}));
  b.CreateTable("T", Schema({{"x", TypeId::kInt64}}));
  EXPECT_TRUE(a.ContentsEqual(b));
  a.MustGetTable("T")->Add(Tuple({Value::Int64(1)}), 1);
  EXPECT_FALSE(a.ContentsEqual(b));
}

}  // namespace
}  // namespace wuw
