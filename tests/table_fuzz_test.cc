// Randomized differential test of the dense-vector Table against a simple
// reference multiset (std::map<Tuple,int64>).  The swap-erase + hash-index
// bookkeeping in Table::Add is the most delicate code in storage/; this
// hammers it with mixed insert/delete/over-delete traffic.  Two more fuzzes
// check the table's image, row for row and in dense order, against the
// naive reference table (tests/reference/reference_table.h): one with the
// table hibernated to a page image and faulted back in (the extent pager's
// round trip) at random steps, one with lookups by equal tuples of other
// representations and edits while a scan or a copy holds the image.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/min_work.h"
#include "algebra/rows.h"
#include "core/strategy_space.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "plan/subplan_cache.h"
#include "reference/reference_table.h"
#include "storage/column_table.h"
#include "storage/page.h"
#include "storage/table.h"
#include "test_util.h"
#include "tpcd/tpcd_generator.h"

namespace wuw {
namespace {

struct Reference {
  std::map<Tuple, int64_t> rows;
  int64_t cardinality = 0;

  int64_t Add(const Tuple& t, int64_t count) {
    int64_t& cur = rows[t];
    int64_t before = cur;
    int64_t after = before + count;
    if (before == 0 && count <= 0) after = 0;  // clamp on absent
    if (after <= 0) after = 0;
    cardinality += after - before;
    cur = after;
    if (cur == 0) rows.erase(t);
    return after;
  }

  int64_t Count(const Tuple& t) const {
    auto it = rows.find(t);
    return it == rows.end() ? 0 : it->second;
  }
};

Tuple MakeTuple(tpcd::Rng* rng, int64_t key_space) {
  return Tuple({Value::Int64(rng->Range(0, key_space - 1)),
                Value::String(std::to_string(rng->Range(0, 3))),
                Value::Int64(rng->Range(0, 1))});
}

Schema FuzzSchema() {
  return Schema({{"k", TypeId::kInt64},
                 {"s", TypeId::kString},
                 {"g", TypeId::kInt64}});
}

class TableFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TableFuzzTest, MatchesReferenceUnderRandomTraffic) {
  const uint64_t seed = GetParam() + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
  Table table(FuzzSchema());
  Reference ref;

  for (int step = 0; step < 20000; ++step) {
    Tuple t = MakeTuple(&rng, /*key_space=*/200);
    int64_t count;
    switch (rng.Below(5)) {
      case 0:
        count = rng.Range(1, 3);  // small insert
        break;
      case 1:
        count = -rng.Range(1, 3);  // small delete
        break;
      case 2:
        count = rng.Range(1, 50);  // bulk insert
        break;
      case 3:
        count = -rng.Range(1, 50);  // bulk / over-delete
        break;
      default:
        count = -ref.Count(t);  // exact removal (no-op if absent)
        if (count == 0) count = 1;
        break;
    }
    int64_t got = table.Add(t, count);
    int64_t want = ref.Add(t, count);
    ASSERT_EQ(got, want) << "step " << step << " tuple " << t.ToString()
                         << " count " << count;
    if (step % 512 == 0) {
      ASSERT_EQ(table.cardinality(), ref.cardinality) << "step " << step;
      ASSERT_EQ(table.distinct_size(), ref.rows.size()) << "step " << step;
    }
  }

  // Full content comparison at the end.
  ASSERT_EQ(table.cardinality(), ref.cardinality);
  ASSERT_EQ(table.distinct_size(), ref.rows.size());
  table.ForEach([&](const Tuple& t, int64_t c) {
    ASSERT_EQ(ref.Count(t), c) << t.ToString();
  });
  // Point lookups agree for present and absent tuples.
  tpcd::Rng probe_rng(seed ^ 0xF00D);
  for (int i = 0; i < 1000; ++i) {
    Tuple t = MakeTuple(&probe_rng, 400);  // half outside the key space
    ASSERT_EQ(table.Count(t), ref.Count(t));
  }
  // SortedRows is sorted and complete.
  auto sorted = table.SortedRows();
  ASSERT_EQ(sorted.size(), ref.rows.size());
  for (size_t i = 1; i < sorted.size(); ++i) {
    ASSERT_TRUE(sorted[i - 1].first < sorted[i].first);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableFuzzTest,
                         ::testing::Values(1, 2, 3, 17, 99, 12345));

TEST(TableFuzzTest, ClearResetsEverything) {
  tpcd::Rng rng(7);
  Table table(FuzzSchema());
  for (int i = 0; i < 100; ++i) table.Add(MakeTuple(&rng, 50), 1);
  table.Clear();
  EXPECT_EQ(table.cardinality(), 0);
  EXPECT_EQ(table.distinct_size(), 0u);
  // Reusable after Clear.
  Tuple t = MakeTuple(&rng, 50);
  table.Add(t, 2);
  EXPECT_EQ(table.Count(t), 2);
}

Schema ImageSchema() {
  return Schema({{"k", TypeId::kInt64},
                 {"d", TypeId::kDouble},
                 {"t", TypeId::kDate},
                 {"s", TypeId::kString}});
}

/// A tuple drawn from small value pools, so strings repeat and inserts hit
/// existing rows; every column is NULL one time in eight.
Tuple ImageTuple(tpcd::Rng* rng) {
  auto null = [&] { return rng->Below(8) == 0; };
  return Tuple(
      {null() ? Value::Null() : Value::Int64(rng->Range(-20, 40)),
       null() ? Value::Null() : Value::Double(0.25 * rng->Range(-8, 8)),
       null() ? Value::Null() : Value::Date(19960101 + rng->Range(0, 3)),
       null() ? Value::Null()
              : Value::String("s" + std::to_string(rng->Range(0, 9)))});
}

int64_t Conversions() {
  return obs::GetCounter("engine.vec.conversions", obs::MetricClass::kEngine)
      ->value();
}

/// `image` equals a fresh conversion of the reference's dense rows, row by
/// row: every cell with its exact TypeId, every multiplicity, and the abs
/// and signed cardinality of every prefix.
void ExpectImageMatchesRows(const Schema& schema, const RowVec& rows,
                            const ColumnTable& image) {
  std::shared_ptr<const ColumnTable> want = ColumnTable::FromRows(schema, rows);
  ASSERT_NE(want, nullptr);
  ASSERT_EQ(image.num_rows(), rows.size());
  ASSERT_EQ(image.num_columns(), want->num_columns());
  for (size_t i = 0; i < rows.size(); ++i) {
    const Tuple got = image.TupleAt(i);
    const Tuple expect = want->TupleAt(i);
    for (size_t c = 0; c < expect.size(); ++c) {
      ASSERT_EQ(got.value(c).type(), expect.value(c).type())
          << "row " << i << " column " << c;
      ASSERT_EQ(got.value(c), expect.value(c)) << "row " << i << " column " << c;
    }
    ASSERT_EQ(got, rows[i].first) << "row " << i;
    ASSERT_EQ(image.mult()[i], want->mult()[i]) << "row " << i;
    ASSERT_EQ(image.mult()[i], rows[i].second) << "row " << i;
  }
  for (size_t end = 0; end <= rows.size(); ++end) {
    ASSERT_EQ(image.AbsCardBetween(0, end), want->AbsCardBetween(0, end))
        << "prefix " << end;
    ASSERT_EQ(image.SignedCardBetween(0, end), want->SignedCardBetween(0, end))
        << "prefix " << end;
  }
}

class TableImageFuzzTest : public ::testing::TestWithParam<uint64_t> {};

/// The extent pager's round trip (storage/paged_store.h): save the
/// table's image, release its payload, load the image and restore it.
void HibernateAndFaultIn(Table* table, const std::string& path) {
  ASSERT_EQ(paged::SaveTableImage(*table, path, 1024), "");
  const int64_t cardinality = table->cardinality();
  const int64_t mutations = table->mutation_count();
  table->ReleasePayload();
  paged::TableImage img;
  ASSERT_EQ(paged::LoadTableImage(path, &img), "");
  ASSERT_EQ(img.cardinality, cardinality);
  ASSERT_EQ(img.mutation_count, mutations);
  ASSERT_EQ(table->RestorePayload(std::move(img.columns), img.cardinality,
                                  img.mutation_count),
            "");
}

/// Applies one Add to the table and the reference and checks they agree.
void AddBoth(Table* table, reference::Table* ref, const Tuple& tuple,
             int64_t count) {
  ASSERT_EQ(table->Add(tuple, count), ref->Add(tuple, count))
      << tuple.ToString() << " x" << count;
}

// Random Add traffic against the table's image: inserts, multiplicity
// bumps up and down, deletes at every position (the last row included),
// over-deletes, clamped deletes of absent tuples, and Clear; one step in
// 25 also hibernates the table and faults it back in.  After every step
// the image equals FromRows of the reference's rows, and nothing — no
// edit, Clear or fault-in — converted rows to build it.
TEST_P(TableImageFuzzTest, MaintainedImageEqualsRebuild) {
  const uint64_t seed = GetParam() + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
  obs::ArmMetrics();
  Table table(ImageSchema());
  reference::Table ref;
  const std::string path = ::testing::TempDir() + "wuw_image_fuzz_" +
                           std::to_string(GetParam()) + ".pages";
  int64_t builds = 0;
  int64_t round_trips = 0;

  for (int step = 0; step < 3000; ++step) {
    const RowVec rows = ref.rows();
    const size_t pos = rows.empty() ? 0 : rng.Below(rows.size());
    switch (rows.empty() ? 0 : rng.Below(16)) {
      case 0:
      case 1:
      case 2:
      case 3:
        AddBoth(&table, &ref, ImageTuple(&rng), rng.Range(1, 3));  // or bump
        break;
      case 4:
      case 5:
        AddBoth(&table, &ref, rows[pos].first, rng.Range(1, 4));  // bump up
        break;
      case 6:
      case 7:
        if (rows[pos].second > 1) {  // bump down, row stays
          AddBoth(&table, &ref, rows[pos].first,
                  -rng.Range(1, rows[pos].second - 1));
        }
        break;
      case 8:
      case 9:
      case 10:
        AddBoth(&table, &ref, rows[pos].first, -rows[pos].second);  // delete
        break;
      case 11:
        AddBoth(&table, &ref, rows.back().first, -rows.back().second);  // last
        break;
      case 12:
        AddBoth(&table, &ref, rows[pos].first,
                -rows[pos].second - rng.Range(1, 5));
        break;
      case 13:
      case 14: {
        Tuple t = ImageTuple(&rng);  // clamped delete: changes nothing
        if (ref.Count(t) == 0) AddBoth(&table, &ref, t, -rng.Range(1, 3));
        break;
      }
      default:
        if (rng.Below(20) == 0) {
          table.Clear();
          ref.Clear();
        }
        break;
    }
    ASSERT_FALSE(HasFatalFailure()) << "step " << step;
    const int64_t before = Conversions();
    if (rng.Below(25) == 0) {
      ASSERT_NO_FATAL_FAILURE(HibernateAndFaultIn(&table, path))
          << "step " << step;
      ++round_trips;
    }
    std::shared_ptr<const ColumnTable> image = table.ColumnarSnapshot();
    builds += Conversions() - before;
    ASSERT_NO_FATAL_FAILURE(
        ExpectImageMatchesRows(table.schema(), ref.rows(), *image))
        << "step " << step;
    ASSERT_EQ(table.cardinality(), ref.cardinality()) << "step " << step;
    ASSERT_EQ(table.mutation_count(), ref.mutation_count()) << "step " << step;
  }
  EXPECT_EQ(builds, 0);
  EXPECT_GT(round_trips, 0);
  std::remove(path.c_str());
  obs::DisarmMetrics();
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableImageFuzzTest,
                         ::testing::Values(1, 2, 3, 17, 99, 12345));

// ---------------------------------------------------------------------------
// Installs into a faulted-in table (storage/table.h) find rows through the
// row index the restore built over its image and edit the image in place.

Schema RestoredSchema() {
  return Schema({{"k", TypeId::kInt64},
                 {"d", TypeId::kDouble},
                 {"s", TypeId::kString},
                 {"t", TypeId::kDate}});
}

/// A random row of RestoredSchema: NULLs in every column, 0.0 and -0.0,
/// and now and then a string no row has held yet.
Tuple RestoredTuple(tpcd::Rng* rng, int64_t key_space, int64_t* unseen) {
  auto null = [&] { return rng->Below(8) == 0; };
  static const double kDoubles[] = {0.0, -0.0, 0.5, 1.0, 2.0, -3.0};
  std::string str = "s" + std::to_string(rng->Range(0, 5));
  if (rng->Below(10) == 0) str = "unseen " + std::to_string((*unseen)++);
  return Tuple({null() ? Value::Null() : Value::Int64(rng->Range(0, key_space)),
                null() ? Value::Null() : Value::Double(kDoubles[rng->Below(6)]),
                null() ? Value::Null() : Value::String(str),
                null() ? Value::Null()
                       : Value::Date(19980101 + rng->Range(0, 2))});
}

/// `row` with every cell rebuilt (no representation shared with the
/// table's rows), its -0.0 and 0.0 swapped and integral doubles given as
/// Int64: a tuple equal to `row` that the image must find by value.
Tuple EqualButDifferent(const Tuple& row) {
  std::vector<Value> values(row.values());
  const Value& d = values[1];
  if (d.type() == TypeId::kDouble) {
    const double x = d.AsDouble();
    if (x == 0.0) {
      values[1] = Value::Double(std::signbit(x) ? 0.0 : -0.0);
    } else if (x == static_cast<double>(static_cast<int64_t>(x))) {
      values[1] = Value::Int64(static_cast<int64_t>(x));
    }
  }
  return Tuple(std::move(values));
}

/// Cell for cell: same TypeId, and for doubles the same bits (so -0.0 and
/// 0.0 differ here although they compare equal).
void ExpectSameCells(const Tuple& got, const Tuple& want, size_t row) {
  ASSERT_EQ(got.size(), want.size()) << "row " << row;
  for (size_t c = 0; c < want.size(); ++c) {
    const Value& g = got.value(c);
    const Value& w = want.value(c);
    ASSERT_EQ(g.type(), w.type()) << "row " << row << " column " << c;
    ASSERT_EQ(g, w) << "row " << row << " column " << c;
    if (w.type() == TypeId::kDouble) {
      ASSERT_EQ(std::signbit(g.AsDouble()), std::signbit(w.AsDouble()))
          << "row " << row << " column " << c;
    }
  }
}

/// Every (tuple, multiplicity) of an image, in its order.
RowVec ImageRows(const ColumnTable& image) {
  RowVec out;
  for (size_t i = 0; i < image.num_rows(); ++i) {
    out.emplace_back(image.TupleAt(i), image.mult()[i]);
  }
  return out;
}

class RestoredTableFuzzTest : public ::testing::TestWithParam<uint64_t> {};

// Random Add/Count traffic on a faulted-in table and on the reference
// table agrees after every operation — cardinality, distinct_size,
// mutation_count and Count — and at the end the table's image holds the
// reference's rows in the reference's dense order, cell for cell.  The
// traffic covers inserts that grow the index from a few rows to
// thousands, bumps, deletes of middle and last rows, over-deletes, deletes
// of absent tuples, lookups by equal tuples of other representations
// (-0.0 for 0.0, Int64 for an integral double), unseen strings whose
// deletes force dictionary compaction, and edits while a scan or a Table
// copy holds the image (both keep what they saw).
TEST_P(RestoredTableFuzzTest, ImageInstallsMatchReferenceTable) {
  const uint64_t seed = GetParam() + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
  int64_t unseen = 0;

  reference::Table twin;
  for (int i = 0; i < 12; ++i) {
    twin.Add(RestoredTuple(&rng, 4000, &unseen), rng.Range(1, 3));
  }
  Table restored(RestoredSchema());
  std::shared_ptr<ColumnTable> image =
      ColumnTable::FromRows(restored.schema(), twin.rows());
  restored.ReleasePayload();
  ASSERT_EQ(restored.RestorePayload(std::move(image), twin.cardinality(),
                                    twin.mutation_count()),
            "");
  int64_t compactions = 0;
  int64_t held_edits = 0;

  for (int step = 0; step < 6000; ++step) {
    const RowVec& rows = twin.rows();
    const size_t pos = rows.empty() ? 0 : rng.Below(rows.size());
    Tuple tuple = RestoredTuple(&rng, 4000, &unseen);
    int64_t count = rng.Range(1, 3);
    enum { kNoHolder, kScan, kCopy } holder = kNoHolder;
    Rows scan;
    Table copy;
    RowVec held;
    switch (rows.empty() ? 0 : rng.Below(20)) {
      case 8:
      case 9:
        tuple = EqualButDifferent(rows[pos].first);
        count = rng.Range(1, 4);  // bump up
        break;
      case 10:
      case 11:
        tuple = EqualButDifferent(rows[pos].first);
        count = -rows[pos].second;  // delete a row, usually a middle one
        break;
      case 12:
        tuple = EqualButDifferent(rows.back().first);
        count = -rows.back().second;  // delete the last row
        break;
      case 13:
        tuple = EqualButDifferent(rows[pos].first);
        count = -rows[pos].second - rng.Range(1, 5);  // over-delete
        break;
      case 14:
        if (twin.Count(tuple) == 0) count = -rng.Range(1, 3);  // absent
        break;
      case 15: {
        // An unseen string in and out again: a dead dictionary entry.
        std::vector<Value> values(tuple.values());
        values[2] = Value::String("unseen " + std::to_string(unseen++));
        tuple = Tuple(std::move(values));
        ASSERT_EQ(restored.Add(tuple, 1), twin.Add(tuple, 1));
        count = -1;
        break;
      }
      case 16:
        holder = kScan;
        scan = Rows::FromTable(restored);
        held = ImageRows(*scan.Columnar());
        break;
      case 17:
        holder = kCopy;
        copy = restored;
        held = ImageRows(*copy.ColumnarSnapshot());
        break;
      case 18:
      case 19:
        tuple = EqualButDifferent(rows[pos].first);
        count = -rng.Range(1, 2);  // bump down, or delete
        break;
      default:
        break;  // insert (or bump, when equal to a row)
    }
    const size_t dict_before =
        restored.ColumnarSnapshot()->column(2).dict->size();
    ASSERT_EQ(restored.Add(tuple, count), twin.Add(tuple, count))
        << "step " << step << " tuple " << tuple.ToString() << " count "
        << count;
    ASSERT_EQ(restored.cardinality(), twin.cardinality()) << "step " << step;
    ASSERT_EQ(restored.distinct_size(), twin.distinct_size())
        << "step " << step;
    ASSERT_EQ(restored.mutation_count(), twin.mutation_count())
        << "step " << step;
    ASSERT_EQ(restored.Count(tuple), twin.Count(tuple)) << "step " << step;
    const Tuple probe = RestoredTuple(&rng, 4000, &unseen);
    ASSERT_EQ(restored.Count(probe), twin.Count(probe)) << "step " << step;
    std::shared_ptr<const ColumnTable> now = restored.ColumnarSnapshot();
    const size_t dict_after = now->column(2).dict->size();
    ASSERT_LE(dict_after, 2 * now->num_rows() + 64) << "step " << step;
    compactions += dict_after < dict_before;
    if (holder != kNoHolder) {
      ++held_edits;
      const RowVec still = ImageRows(
          holder == kScan ? *scan.Columnar() : *copy.ColumnarSnapshot());
      ASSERT_EQ(still, held) << "step " << step;
    }
  }

  EXPECT_GT(restored.distinct_size(), 500u) << "the index never grew";
  EXPECT_GT(held_edits, 0);

  // Shrink to a few rows, then cycle unseen strings through them: dead
  // dictionary entries pass the bound and the image compacts in place.
  while (twin.distinct_size() > 8) {
    const Tuple row = EqualButDifferent(twin.rows()[rng.Below(8)].first);
    ASSERT_EQ(restored.Add(row, -1000), twin.Add(row, -1000));
  }
  for (int cycle = 0; cycle < 300; ++cycle) {
    std::vector<Value> values(RestoredTuple(&rng, 4000, &unseen).values());
    values[2] = Value::String("unseen " + std::to_string(unseen++));
    const Tuple row(std::move(values));
    const size_t dict_before =
        restored.ColumnarSnapshot()->column(2).dict->size();
    for (const int64_t count : {1, -1}) {
      ASSERT_EQ(restored.Add(row, count), twin.Add(row, count))
          << "cycle " << cycle;
    }
    std::shared_ptr<const ColumnTable> now = restored.ColumnarSnapshot();
    ASSERT_LE(now->column(2).dict->size(), 2 * now->num_rows() + 64);
    compactions += now->column(2).dict->size() < dict_before;
  }
  ASSERT_EQ(restored.mutation_count(), twin.mutation_count());
  EXPECT_GT(compactions, 0) << "no dictionary was compacted";

  std::shared_ptr<const ColumnTable> final_image = restored.ColumnarSnapshot();
  const RowVec& want = twin.rows();
  ASSERT_EQ(final_image->num_rows(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_NO_FATAL_FAILURE(
        ExpectSameCells(final_image->TupleAt(i), want[i].first, i));
    ASSERT_EQ(final_image->mult()[i], want[i].second) << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RestoredTableFuzzTest,
                         ::testing::Values(1, 2, 3, 17, 99, 12345));

// Differential fuzz one level up the stack: the same fuzzed change batches
// run through the executor eagerly (no cache) and with subplan caches at
// budgets {0, 1MB, 256MB}; every round, every budget must land on extents
// bit-identical to the eager run (ContentsEqual is exact — the int64
// money/value columns make SUM states comparable without epsilon).
class ExecutorFuzzBatchTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorFuzzBatchTest, CacheBudgetsMatchEagerBitForBit) {
  const uint64_t seed = GetParam() + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
  Vdag vdag = testutil::RandomVdag(&rng, 3, 3);

  // One eager warehouse plus one clone per cache budget, evolving in
  // lockstep; each cache persists across rounds so epoch/version keying is
  // exercised, not just single-window reuse.
  const int64_t budgets[] = {0, 1 << 20, 256 << 20};
  Warehouse eager = testutil::MakeLoadedWarehouse(vdag, 40, seed * 31 + 1);
  std::vector<Warehouse> cached;
  std::vector<std::unique_ptr<SubplanCache>> caches;
  for (int64_t budget : budgets) {
    cached.push_back(eager.Clone());
    caches.push_back(
        std::make_unique<SubplanCache>(SubplanCacheOptions{budget}));
  }

  for (int round = 0; round < 6; ++round) {
    double delete_fraction = 0.05 * (1 + rng.Below(5));
    int64_t insert_rows = rng.Range(0, 20);
    uint64_t batch_seed = seed * 100 + round;
    testutil::ApplyTripleChanges(&eager, delete_fraction, insert_rows,
                                 batch_seed);
    for (Warehouse& w : cached) {
      testutil::ApplyTripleChanges(&w, delete_fraction, insert_rows,
                                   batch_seed);
    }

    Strategy s = (round % 2 == 0)
                     ? MinWork(vdag, eager.EstimatedSizes()).strategy
                     : MakeDualStageVdagStrategy(vdag);
    Executor(&eager).Execute(s);
    for (size_t i = 0; i < cached.size(); ++i) {
      ExecutorOptions options;
      options.subplan_cache = caches[i].get();
      Executor executor(&cached[i], options);
      executor.Execute(s);
      ASSERT_TRUE(cached[i].catalog().ContentsEqual(eager.catalog()))
          << "round " << round << " budget " << budgets[i];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorFuzzBatchTest,
                         ::testing::Values(301, 302, 303));

TEST(TableFuzzTest, HashCollisionsHandled) {
  // Force many rows into the same table via a tiny key space so hash
  // buckets chain; equality must still discriminate.
  Table table(Schema({{"k", TypeId::kInt64}}));
  for (int64_t k = 0; k < 1000; ++k) {
    table.Add(Tuple({Value::Int64(k)}), 1);
  }
  for (int64_t k = 0; k < 1000; k += 2) {
    table.Add(Tuple({Value::Int64(k)}), -1);
  }
  EXPECT_EQ(table.cardinality(), 500);
  for (int64_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(table.Count(Tuple({Value::Int64(k)})), k % 2 == 1 ? 1 : 0);
  }
}

}  // namespace
}  // namespace wuw
