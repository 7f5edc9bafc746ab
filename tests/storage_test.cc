#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/filter.h"
#include "algebra/hash_join.h"
#include "algebra/rows.h"
#include "algebra/spill_util.h"
#include "obs/metrics.h"
#include "storage/catalog.h"
#include "storage/column_table.h"
#include "storage/page.h"
#include "storage/paged_store.h"
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

/// A released copy of `t` restored from its own columnar image — the
/// state a pager fault-in leaves (storage/paged_store.h).
Table Restored(const Table& t) {
  Table out = t;
  std::shared_ptr<ColumnTable> image =
      ColumnTable::FromRows(t.schema(), t.dense_rows());
  out.ReleasePayload();
  EXPECT_EQ(out.RestorePayload(std::move(image), t.cardinality(),
                               t.mutation_count()),
            "");
  return out;
}

Table MixedTable(int64_t rows) {
  Schema s({{"x", TypeId::kInt64}, {"y", TypeId::kString}});
  Table t(s);
  for (int64_t i = 0; i < rows; ++i) {
    t.Add(Tuple({Value::Int64(i), Value::String("v" + std::to_string(i % 7))}),
          1 + i % 3);
  }
  // Deletions swap-with-last, so the dense order is not insertion order.
  for (int64_t i = 0; i < rows; i += 5) {
    t.Add(Tuple({Value::Int64(i), Value::String("v" + std::to_string(i % 7))}),
          -10);
  }
  return t;
}

// The pager's fault-in: a released table restored from its columnar image
// holds that image, with the identical dense layout, cardinality, mutation
// count and index size, and keeps working as a table afterwards.
TEST(TableTest, RestorePayloadRestoresTheReleasedTable) {
  Table t = MixedTable(200);
  const auto dense = t.dense_rows();
  const int64_t cardinality = t.cardinality();
  const int64_t mutations = t.mutation_count();
  Table incremental(t.schema());
  for (const auto& [tuple, count] : dense) incremental.Add(tuple, count);

  std::shared_ptr<ColumnTable> image =
      ColumnTable::FromRows(t.schema(), dense);
  const ColumnTable* image_ptr = image.get();
  t.ReleasePayload();
  EXPECT_EQ(t.distinct_size(), 0u);
  EXPECT_EQ(t.RestorePayload(std::move(image), cardinality, mutations), "");
  EXPECT_EQ(t.ColumnarSnapshot().get(), image_ptr);
  EXPECT_EQ(t.distinct_size(), dense.size());
  EXPECT_EQ(t.cardinality(), cardinality);
  EXPECT_EQ(t.mutation_count(), mutations);
  EXPECT_EQ(t.dense_rows(), dense);
  for (const auto& [tuple, count] : dense) EXPECT_EQ(t.Count(tuple), count);
  EXPECT_EQ(t.IndexBytes(), incremental.IndexBytes());
  EXPECT_TRUE(t.ContentsEqual(incremental));
  // Point updates find restored rows; new rows still go in; the restored
  // image stays current in place.
  EXPECT_EQ(t.Add(dense.front().first, -dense.front().second), 0);
  EXPECT_EQ(t.Add(Tuple({Value::Int64(-1), Value::String("new")}), 2), 2);
  EXPECT_EQ(t.cardinality(), cardinality - dense.front().second + 2);
  EXPECT_EQ(t.ColumnarSnapshot().get(), image_ptr);

  Table empty(t.schema());
  empty.ReleasePayload();
  EXPECT_EQ(empty.RestorePayload(ColumnTable::FromRows(t.schema(), {}), 0, 4),
            "");
  EXPECT_EQ(empty.distinct_size(), 0u);
  EXPECT_TRUE(empty.dense_rows().empty());
  EXPECT_EQ(empty.IndexBytes(), 0u);
  EXPECT_EQ(empty.mutation_count(), 4);
}

// A corrupt image is rejected with an error and the table is left as it
// was: a missing image, a foreign schema, a repeated row, non-positive
// multiplicities, or a multiplicity total that overflows or disagrees with
// the recorded cardinality.
TEST(TableTest, RestorePayloadRejectsCorruptImagesUntouched) {
  Schema s({{"x", TypeId::kInt64}});
  Table t(s);
  t.Add(Tuple({Value::Int64(9)}), 4);
  const auto before = t.dense_rows();
  const int64_t mutations = t.mutation_count();
  // Built by hand and left unfinished, as the decoder hands images over:
  // finishing an overflowing multiplicity column would overflow.
  auto image = [&](std::vector<int64_t> mults) {
    auto out = std::make_shared<ColumnTable>(s);
    for (size_t i = 0; i < mults.size(); ++i) {
      out->mutable_column(0)->ints.push_back(static_cast<int64_t>(i));
    }
    *out->mutable_mult() = std::move(mults);
    return out;
  };

  EXPECT_NE(t.RestorePayload(nullptr, 0, 99), "");
  EXPECT_NE(t.RestorePayload(
                ColumnTable::FromRows(Schema({{"z", TypeId::kInt64}}), {}), 0,
                99),
            "");
  std::shared_ptr<ColumnTable> repeated = image({1, 2, 1});
  repeated->mutable_column(0)->ints[2] = 0;  // rows 0, 1, 0
  EXPECT_NE(t.RestorePayload(repeated, 4, 99), "");
  EXPECT_NE(t.RestorePayload(image({1, 0}), 1, 99), "");
  EXPECT_NE(t.RestorePayload(image({1, -2}), -1, 99), "");
  EXPECT_NE(t.RestorePayload(image({1, 2}), 4, 99), "");
  EXPECT_NE(t.RestorePayload(image({INT64_MAX, 1}), 0, 99), "");
  EXPECT_EQ(t.dense_rows(), before);
  EXPECT_EQ(t.cardinality(), 4);
  EXPECT_EQ(t.mutation_count(), mutations);
  EXPECT_EQ(t.Count(Tuple({Value::Int64(9)})), 4);
}

// The restore-time distinctness check (RestorePayload's row-index pass)
// agrees with Tuple::operator== on every pair: NULL equals NULL but not a
// zero payload, -0.0 equals 0.0, NaN equals nothing, strings by content.
// RowHashes (the fault-in's bulk pass, typed per column) equals RowHash
// and TupleRowHash row by row over every cell kind: NULLs in each type,
// -0.0, NaN, integers and doubles of equal value, strings, a NULL column.
TEST(TableTest, BulkRowHashesEqualPerRowHashes) {
  Schema s({{"i", TypeId::kInt64},
            {"d", TypeId::kDouble},
            {"s", TypeId::kString},
            {"t", TypeId::kDate},
            {"n", TypeId::kNull}});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  RowVec rows;
  for (int64_t k = 0; k < 40; ++k) {
    rows.emplace_back(
        Tuple({k % 5 == 0 ? Value::Null() : Value::Int64(k - 20),
               k % 7 == 0   ? Value::Null()
               : k % 7 == 1 ? Value::Double(-0.0)
               : k % 7 == 2 ? Value::Double(nan)
                            : Value::Double(static_cast<double>(k) / 4),
               k % 3 == 0 ? Value::Null()
                          : Value::String("s" + std::to_string(k % 4)),
               k % 6 == 0 ? Value::Null() : Value::Date(k), Value::Null()}),
        1 + k % 2);
  }
  const std::shared_ptr<ColumnTable> image = ColumnTable::FromRows(s, rows);
  const std::vector<uint64_t> hashes = image->RowHashes();
  ASSERT_EQ(hashes.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(hashes[i], image->RowHash(i)) << rows[i].first.ToString();
    EXPECT_EQ(hashes[i], ColumnTable::TupleRowHash(rows[i].first))
        << rows[i].first.ToString();
  }
}

TEST(TableTest, HasEqualRowsMatchesTupleEquality) {
  Schema s({{"i", TypeId::kInt64},
            {"d", TypeId::kDouble},
            {"s", TypeId::kString},
            {"n", TypeId::kNull}});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Tuple> cells = {
      Tuple({Value::Int64(0), Value::Double(0.0), Value::String("a"),
             Value::Null()}),
      Tuple({Value::Null(), Value::Double(0.0), Value::String("a"),
             Value::Null()}),
      Tuple({Value::Int64(0), Value::Double(-0.0), Value::String("a"),
             Value::Null()}),
      Tuple({Value::Int64(0), Value::Null(), Value::String("a"),
             Value::Null()}),
      Tuple({Value::Int64(0), Value::Double(0.0), Value::Null(),
             Value::Null()}),
      Tuple({Value::Int64(0), Value::Double(0.0), Value::String(""),
             Value::Null()}),
      Tuple({Value::Int64(1), Value::Double(nan), Value::String("b"),
             Value::Null()}),
      Tuple({Value::Null(), Value::Null(), Value::Null(), Value::Null()}),
  };
  // Every pair of candidate rows, alone and after a few distinct rows
  // (so the probe sequence is not trivially short).
  for (size_t a = 0; a < cells.size(); ++a) {
    for (size_t b = 0; b < cells.size(); ++b) {
      RowVec rows;
      for (int64_t k = 0; k < 40; ++k) {
        rows.emplace_back(Tuple({Value::Int64(100 + k), Value::Double(0.5),
                                 Value::String("x"), Value::Null()}),
                          1);
      }
      rows.emplace_back(cells[a], 1);
      if (a != b) rows.emplace_back(cells[b], 1);
      std::shared_ptr<ColumnTable> image = ColumnTable::FromRows(s, rows);
      ASSERT_NE(image, nullptr);
      Table t(s);
      const std::string error =
          t.RestorePayload(image, static_cast<int64_t>(rows.size()), 0);
      EXPECT_EQ(error == "repeated row", a != b && cells[a] == cells[b])
          << cells[a].ToString() << " vs " << cells[b].ToString() << ": "
          << error;
      if (error.empty()) {
        // The index the check filled finds every row that equals a fresh
        // copy of itself (a NaN row equals nothing, so no lookup finds it).
        for (const auto& [tuple, count] : rows) {
          const Tuple fresh(std::vector<Value>(tuple.values()));
          EXPECT_EQ(t.Count(fresh), fresh == tuple ? count : 0)
              << tuple.ToString();
        }
        // A table built by Add agrees, even looked up through a copy of
        // the tuple it was given.
        Table resident(s);
        for (const auto& [tuple, count] : rows) resident.Add(tuple, count);
        for (const auto& [tuple, count] : rows) {
          const Tuple shared = tuple;
          const Tuple fresh(std::vector<Value>(tuple.values()));
          EXPECT_EQ(resident.Count(shared), fresh == tuple ? count : 0)
              << tuple.ToString();
        }
      }
    }
  }
  Table empty(s);
  EXPECT_EQ(empty.RestorePayload(ColumnTable::FromRows(s, {}), 0, 0), "");
}

// The analytic byte model prices a row the same in tuple and column form
// (one per-cell implementation): NULLs of every type, a NULL-typed
// column, empty and long strings, and an empty table.  The pager's
// ApproxTableBytes reads the image; the spill gate's RowsExceedBytes reads
// whichever form a batch holds, so both forms must agree for fault,
// eviction and spill decisions to stay put.
TEST(TableTest, AnalyticBytesAgreeInTupleAndColumnForms) {
  Schema s({{"i", TypeId::kInt64},
            {"d", TypeId::kDouble},
            {"t", TypeId::kDate},
            {"s", TypeId::kString},
            {"n", TypeId::kNull}});
  Table t(s);
  for (int64_t k = 0; k < 60; ++k) {
    auto null = [&](int64_t col) { return (k + col) % 4 == 0; };
    t.Add(Tuple({null(0) ? Value::Null() : Value::Int64(k),
                 null(1) ? Value::Null() : Value::Double(0.5 * k),
                 null(2) ? Value::Null() : Value::Date(19960101 + k),
                 null(3) ? Value::Null()
                         : Value::String(std::string(k % 9, 'a' + k % 26)),
                 Value::Null()}),
          1 + k % 3);
  }
  Table empty(s);
  for (const Table* table : {&t, &empty}) {
    SCOPED_TRACE(table->empty() ? "empty" : "mixed");
    const RowVec dense = table->dense_rows();
    std::shared_ptr<const ColumnTable> image = ColumnTable::FromRows(s, dense);
    ASSERT_NE(image, nullptr);
    int64_t tuple_sum = 0, column_sum = 0;
    for (size_t i = 0; i < dense.size(); ++i) {
      const int64_t tuple_bytes = paged::ApproxRowBytes(dense[i].first);
      ASSERT_EQ(paged::ApproxRowBytes(*image, i), tuple_bytes) << "row " << i;
      tuple_sum += tuple_bytes;
      column_sum += paged::ApproxRowBytes(*image, i);
    }
    EXPECT_EQ(column_sum, tuple_sum);
    EXPECT_EQ(paged::ApproxTableBytes(*table), tuple_sum);
    const Table restored = Restored(*table);
    EXPECT_EQ(paged::ApproxTableBytes(restored), tuple_sum);
    // The spill gate's threshold test agrees at the boundary in both forms
    // (limits are positive: ResolvedSpillBytes is at least 1).
    Rows as_rows(s);
    for (const auto& [tuple, count] : dense) as_rows.Add(tuple, count);
    const Rows as_columns = Rows::FromTable(restored);
    for (int64_t limit : {tuple_sum - 1, tuple_sum, tuple_sum + 1}) {
      if (limit < 1) continue;
      EXPECT_EQ(spill::RowsExceedBytes(as_rows, limit), limit < tuple_sum);
      EXPECT_EQ(spill::RowsExceedBytes(as_columns, limit), limit < tuple_sum);
    }
  }
}

// After a fault-in, the vectorized scans read the restored image: a
// filter and a join over the table build no tuple, and the table's row
// index is untouched.
TEST(TableTest, FaultedInScansBuildNoTuplesOrIndex) {
  const Table t = Restored(MixedTable(300));
  // Keep the join on its resident route even under an env-armed
  // WUW_MEM_MB, so it reads the scan's image in place.
  paged::PagedOptions resident;
  resident.budget_bytes = int64_t{1} << 40;
  resident.spill_bytes = int64_t{1} << 40;
  paged::ScopedOperatorSpill no_spill(resident);
  const size_t index_bytes = t.IndexBytes();
  const Rows scan = Rows::FromTable(t);
  OperatorStats stats;
  const Rows filtered =
      Filter(scan,
             ScalarExpr::Compare(CompareOp::kGt, ScalarExpr::Column("x"),
                                 ScalarExpr::Literal(Value::Int64(100))),
             &stats);
  Rows probe(Schema({{"k", TypeId::kInt64}}));
  probe.Add(Tuple({Value::Int64(7)}), 1);
  const Rows joined = HashJoin(probe, scan, JoinKeys{{"k"}, {"x"}}, &stats);
  EXPECT_EQ(filtered.size(), 160u);
  EXPECT_EQ(joined.size(), 1u);
  EXPECT_EQ(scan.Columnar(), t.ColumnarSnapshot());
  EXPECT_EQ(t.IndexBytes(), index_bytes);
}

// Installs into a faulted-in table edit its image in place through the
// row index the restore built: after bumps, deletes, inserts, lookups and
// a row-consumer pass (ForEach, ContentsEqual, SortedRows) the image is
// still the one the table restored.
TEST(TableTest, FirstAddBuildsNoRows) {
  const Table source = MixedTable(100);
  Table t = Restored(source);
  const ColumnTable* image = t.ColumnarSnapshot().get();
  const Tuple row = t.ColumnarSnapshot()->TupleAt(3);
  const int64_t count = t.ColumnarSnapshot()->mult()[3];
  EXPECT_EQ(t.Add(row, 1), count + 1);
  EXPECT_EQ(t.Add(row, -1), count);
  const Tuple fresh({Value::Int64(-5), Value::String("fresh")});
  EXPECT_EQ(t.Add(fresh, 1), 1);
  const Tuple first = t.ColumnarSnapshot()->TupleAt(0);
  EXPECT_EQ(t.Add(first, -1000), 0);
  EXPECT_EQ(t.Count(row), count);
  EXPECT_EQ(t.Count(fresh), 1);
  int64_t visited = 0;
  t.ForEach([&](const Tuple&, int64_t c) { visited += c; });
  EXPECT_EQ(visited, t.cardinality());
  EXPECT_EQ(t.SortedRows().size(), t.distinct_size());
  Table twin = source;
  twin.Add(twin.dense_rows().front().first, -1000);
  twin.Add(fresh, 1);
  EXPECT_TRUE(t.ContentsEqual(twin));
  EXPECT_TRUE(twin.ContentsEqual(t));
  EXPECT_EQ(t.ColumnarSnapshot().get(), image);
}

// The column-at-a-time byte model equals the per-row sum on images with
// NULLs of every type, a NULL-typed column, empty and long strings, dead
// dictionary entries, and no rows — so fault and eviction decisions read
// the same number as before.
TEST(TableTest, ImageBytesAreThePerRowSum) {
  Schema s({{"i", TypeId::kInt64},
            {"d", TypeId::kDouble},
            {"t", TypeId::kDate},
            {"s", TypeId::kString},
            {"n", TypeId::kNull}});
  Table t(s);
  for (int64_t k = 0; k < 90; ++k) {
    auto null = [&](int64_t col) { return (k + col) % 5 == 0; };
    t.Add(Tuple({null(0) ? Value::Null() : Value::Int64(k),
                 null(1) ? Value::Null() : Value::Double(-0.5 * k),
                 null(2) ? Value::Null() : Value::Date(19960101 + k),
                 null(3) ? Value::Null()
                         : Value::String(std::string(k % 11, 'a' + k % 26)),
                 Value::Null()}),
          1 + k % 4);
  }
  Table faulted = Restored(t);
  // Deletes leave dictionary entries no row uses.
  for (int64_t k = 0; k < 90; k += 3) {
    const Tuple first = faulted.ColumnarSnapshot()->TupleAt(0);
    faulted.Add(first, -100);
  }
  const Table* cases[] = {&t, &faulted, nullptr};
  for (const Table* table : cases) {
    std::shared_ptr<const ColumnTable> image =
        table != nullptr ? table->ColumnarSnapshot()
                         : ColumnTable::FromRows(s, {});
    ASSERT_NE(image, nullptr);
    int64_t per_row = 0;
    for (size_t i = 0; i < image->num_rows(); ++i) {
      per_row += paged::ApproxRowBytes(*image, i);
    }
    EXPECT_EQ(paged::ApproxImageBytes(*image), per_row);
    if (table != nullptr) {
      EXPECT_EQ(paged::ApproxTableBytes(*table), per_row);
    }
  }
}

// Eight threads reading an edited table at once (its image's prefix sums
// not yet finished) — snapshots, copies and lookups — all get the one
// image, finished once, and the same counts.
TEST(TableTest, ConcurrentReadersShareOneFinishedImage) {
  Table t = MixedTable(2000);
  t.Add(Tuple({Value::Int64(-1), Value::String("edit")}), 3);
  const RowVec dense = t.dense_rows();
  std::vector<const ColumnTable*> seen(8, nullptr);
  std::vector<int64_t> counts(8, 0);
  std::vector<std::thread> threads;
  for (size_t k = 0; k < seen.size(); ++k) {
    threads.emplace_back([&, k] {
      if (k % 2 == 0) {
        seen[k] = t.ColumnarSnapshot().get();
      } else {
        const Table copy = t;
        seen[k] = copy.ColumnarSnapshot().get();
      }
      counts[k] = t.Count(dense[k].first);
    });
  }
  for (std::thread& th : threads) th.join();
  const std::shared_ptr<const ColumnTable> image = t.ColumnarSnapshot();
  for (size_t k = 0; k < seen.size(); ++k) {
    EXPECT_EQ(seen[k], image.get());
    EXPECT_EQ(counts[k], dense[k].second);
  }
  EXPECT_EQ(image->AbsCardBetween(0, image->num_rows()), t.cardinality());
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

/// Forty rows (keys 0..39, strings "v<key>"), churned in place: the image
/// of a table that never shared it.
std::shared_ptr<const ColumnTable> ChurnedAlone() {
  Table table(ImageSchema());
  for (int64_t i = 0; i < 40; ++i) {
    table.Add(ImageRow(i, "v" + std::to_string(i)), 1 + i % 3);
  }
  Churn(&table);
  return table.ColumnarSnapshot();
}

// Copy-on-edit: while a Table copy shares the image (a published
// snapshot) or a scan holds it, mutations leave it byte-identical, and the
// mutated table edits a copy byte-identical to the image the same edits
// leave in place on a table that never shared its image.
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
    EXPECT_EQ(ImageBytes(*after), ImageBytes(*ChurnedAlone()));
  }
}

// A publish shares the extent with readers, and the writer's next Add
// copies the image instead of dropping it: the published table keeps its
// image pointer and bytes, a reader's scan (under obs::ServeScope) is that
// very image, and neither side converts rows to columns.
TEST(TableImageTest, PublishedCopyKeepsItsImageThroughWriterAdds) {
  obs::ArmMetrics();
  obs::Counter* conversions =
      obs::GetCounter("engine.vec.conversions", obs::MetricClass::kEngine);
  Table writer(ImageSchema());
  for (int64_t i = 0; i < 40; ++i) {
    writer.Add(ImageRow(i, "v" + std::to_string(i)), 1 + i % 3);
  }
  const int64_t start = conversions->value();
  const Table published = writer;  // the publish-time share
  const std::shared_ptr<const ColumnTable> image = published.ColumnarSnapshot();
  const std::string bytes = ImageBytes(*image);
  Churn(&writer);
  EXPECT_EQ(published.ColumnarSnapshot(), image);
  EXPECT_EQ(ImageBytes(*published.ColumnarSnapshot()), bytes);
  {
    obs::ServeScope serve;
    const Rows scan = Rows::FromTable(published);
    EXPECT_EQ(scan.Columnar(), image);
  }
  const std::shared_ptr<const ColumnTable> edited = writer.ColumnarSnapshot();
  EXPECT_NE(edited, image);
  EXPECT_EQ(ImageBytes(*edited), ImageBytes(*ChurnedAlone()));
  EXPECT_EQ(conversions->value(), start);
  obs::DisarmMetrics();
}

// A new tuple the image cannot hold — a cell of another type than its
// column (NULL aside), or another arity — is a caller bug: Add aborts, on
// a fresh table or one with rows.  A tuple equal to a stored row finds it
// whatever its numeric type, and a delete of an absent tuple clamps.
TEST(TableImageDeathTest, AddOfATupleThatDoesNotFitAborts) {
  Table table(ImageSchema());
  for (int64_t i = 0; i < 10; ++i) table.Add(ImageRow(i, "v"), 1);
  const Tuple wrong_type({Value::Int64(77), Value::Int64(78)});
  const Tuple wrong_numeric({Value::Double(77.0), Value::String("v")});
  const Tuple wrong_arity({Value::Int64(1)});
  EXPECT_DEATH(table.Add(wrong_type, 2), "does not fit");
  EXPECT_DEATH(table.Add(wrong_numeric, 1), "does not fit");
  EXPECT_DEATH(table.Add(wrong_arity, 1), "does not fit");
  EXPECT_DEATH(Table(ImageSchema()).Add(wrong_type, 1), "does not fit");
  EXPECT_EQ(table.Add(wrong_type, -1), 0);
  EXPECT_EQ(table.Add(Tuple({Value::Double(3.0), Value::String("v")}), 2), 3);
  // NULL fits any column.
  EXPECT_EQ(table.Add(Tuple({Value::Null(), Value::Null()}), 1), 1);
  EXPECT_EQ(table.distinct_size(), 11u);
  EXPECT_EQ(table.cardinality(), 13);
}

// Deleting the last row holding a string leaves a dead dictionary entry;
// the table compacts the dictionary in place before dead entries exceed
// the bound, and never rebuilds the image from rows.
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
  EXPECT_EQ(conversions->value(), start);
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
