// Differential test of the join-key index route (vec::IndexJoin,
// algebra/vectorized.h) and of the delta-first join in the plan executor
// (plan/plan_executor.h).
//
// IndexJoin must reproduce HashJoin(probe, Filter(extent)) — or
// HashJoin(Filter(extent), probe) with the extent on the left — and the
// naive reference kernels (tests/reference/) byte for byte: the same
// rows, cell types and double bits, multiplicities and row order.  The
// extent is a Table whose KeyIndexes its own Adds maintained (inserts,
// bumps and swap-with-last deletes); the probe side has NULL and
// duplicate keys, zero and negative multiplicities, and its own string
// dictionary.  Keys cover ints, strings, int probes against a double
// column (and the reverse), and a composite key; filters cover every
// conjunct shape Filter resolves.  At plan level, a join whose delta side
// is empty, or empty after its filter, returns no rows without evaluating
// its other side, and an indexed extent operand is answered by the index.
// Probes share an index while a copy of its table is edited, and a TPC-D
// warehouse maintained window by window takes both routes and stays equal
// to the reference views.  Honors WUW_SEED.
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/filter.h"
#include "algebra/hash_join.h"
#include "algebra/operator_stats.h"
#include "algebra/rows.h"
#include "algebra/vectorized.h"
#include "core/min_work.h"
#include "delta/delta_relation.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "plan/plan_executor.h"
#include "plan/plan_node.h"
#include "reference/reference_kernels.h"
#include "storage/table.h"
#include "test_util.h"
#include "tpcd/change_generator.h"
#include "tpcd/tpcd_views.h"

namespace wuw {
namespace {

Schema ExtentSchema() {
  return Schema({{"k", TypeId::kInt64},
                 {"s", TypeId::kString},
                 {"d", TypeId::kDouble},
                 {"t", TypeId::kDate},
                 {"v", TypeId::kInt64}});
}

Schema ProbeSchema() {
  return Schema({{"pk", TypeId::kInt64},
                 {"ps", TypeId::kString},
                 {"pd", TypeId::kDouble},
                 {"pv", TypeId::kInt64}});
}

Value MaybeNull(tpcd::Rng* rng, Value v) {
  return rng->Below(10) == 0 ? Value::Null() : v;
}

/// Keys come from small pools, so they repeat on both sides.
Tuple ExtentTuple(tpcd::Rng* rng) {
  static const double kDoubles[] = {0.0, -0.0, 1.0, 2.0, 2.5, 7.0};
  return Tuple(
      {MaybeNull(rng, Value::Int64(rng->Range(0, 12))),
       MaybeNull(rng, Value::String("s" + std::to_string(rng->Range(0, 6)))),
       MaybeNull(rng, Value::Double(kDoubles[rng->Below(6)])),
       MaybeNull(rng, Value::Date(19950101 + rng->Range(0, 3))),
       Value::Int64(rng->Range(0, 9))});
}

/// A table of a few hundred rows built by Adds, with its indexes declared
/// first so that inserts, bumps and deletes maintain them.
Table MakeExtent(tpcd::Rng* rng) {
  Table table(ExtentSchema());
  table.DeclareKeyIndex({0});
  table.DeclareKeyIndex({1});
  table.DeclareKeyIndex({2});
  table.DeclareKeyIndex({0, 1});
  for (int i = 0; i < 400; ++i) {
    const Tuple t = ExtentTuple(rng);
    table.Add(t, rng->Below(4) == 0 ? -table.Count(t) : rng->Range(1, 3));
  }
  return table;
}

/// The probe (delta) side: its own dictionary (strings built here, in
/// another order), NULL and duplicate keys, zero and negative
/// multiplicities.
Rows MakeProbe(tpcd::Rng* rng, size_t n) {
  RowVec rows;
  static const double kDoubles[] = {0.0, -0.0, 1.0, 2.0, 2.5, 3.0};
  for (size_t i = 0; i < n; ++i) {
    Tuple t({MaybeNull(rng, Value::Int64(rng->Range(0, 14))),
             MaybeNull(rng, Value::String("s" + std::to_string(
                                     6 - rng->Range(0, 7)))),
             MaybeNull(rng, Value::Double(kDoubles[rng->Below(6)])),
             Value::Int64(rng->Range(-3, 3))});
    rows.emplace_back(t, rng->Range(-2, 3));  // zero and negative included
  }
  return testutil::MakeRows(ProbeSchema(), rows);
}

struct KeyCase {
  std::string name;
  std::vector<std::string> probe_keys;
  std::vector<std::string> extent_keys;
};

std::vector<KeyCase> KeyCases() {
  return {
      {"int", {"pk"}, {"k"}},
      {"string", {"ps"}, {"s"}},
      {"int_probe_double_extent", {"pk"}, {"d"}},
      {"double_probe_int_extent", {"pd"}, {"k"}},
      {"composite", {"pk", "ps"}, {"k", "s"}},
  };
}

ScalarExpr::Ptr Col(const std::string& c) { return ScalarExpr::Column(c); }
ScalarExpr::Ptr Int(int64_t v) { return ScalarExpr::Literal(Value::Int64(v)); }
ScalarExpr::Ptr Cmp(CompareOp op, ScalarExpr::Ptr a, ScalarExpr::Ptr b) {
  return ScalarExpr::Compare(op, std::move(a), std::move(b));
}

/// One predicate per conjunct shape Filter resolves, and a conjunction.
std::vector<std::pair<std::string, ScalarExpr::Ptr>> FilterCases() {
  return {
      {"none", nullptr},
      {"int_image", Cmp(CompareOp::kGt, Col("v"), Int(3))},
      {"flipped_literal", Cmp(CompareOp::kGt, Int(6), Col("v"))},
      {"double_image", Cmp(CompareOp::kLe, Col("d"), Int(2))},
      {"string_codes",
       Cmp(CompareOp::kLt, Col("s"), ScalarExpr::Literal(Value::String("s4")))},
      {"null_constant", Cmp(CompareOp::kEq, Col("v"),
                            ScalarExpr::Literal(Value::Null()))},
      {"mixed_rank", Cmp(CompareOp::kGt, Col("s"), Int(3))},
      {"general", Cmp(CompareOp::kLt,
                      ScalarExpr::Arith(ArithOp::kAdd, Col("k"), Col("v")),
                      Int(12))},
      {"conjunction",
       ScalarExpr::And(
           Cmp(CompareOp::kNe, Col("s"),
               ScalarExpr::Literal(Value::String("s2"))),
           ScalarExpr::And(Cmp(CompareOp::kGe, Col("v"), Int(1)),
                           Cmp(CompareOp::kLt,
                               ScalarExpr::Arith(ArithOp::kMul, Col("k"),
                                                 Col("v")),
                               Int(40))))},
  };
}

std::vector<size_t> Positions(const Schema& schema,
                              const std::vector<std::string>& names) {
  std::vector<size_t> out;
  for (const std::string& n : names) out.push_back(schema.MustIndexOf(n));
  return out;
}

/// Byte-equal batches: same schema, and row for row the same cells (type,
/// value, and for doubles the sign bit) and multiplicities.
void ExpectSameRows(const Rows& got, const Rows& want) {
  ASSERT_EQ(got.schema, want.schema);
  const RowVec g = testutil::RowsOf(got);
  const RowVec w = testutil::RowsOf(want);
  ASSERT_EQ(g.size(), w.size());
  for (size_t i = 0; i < w.size(); ++i) {
    ASSERT_EQ(g[i].second, w[i].second) << "row " << i;
    ASSERT_EQ(g[i].first.size(), w[i].first.size()) << "row " << i;
    for (size_t c = 0; c < w[i].first.size(); ++c) {
      const Value& x = g[i].first.value(c);
      const Value& y = w[i].first.value(c);
      ASSERT_EQ(x.type(), y.type()) << "row " << i << " column " << c;
      ASSERT_EQ(x, y) << "row " << i << " column " << c;
      if (y.type() == TypeId::kDouble) {
        ASSERT_EQ(std::signbit(x.AsDouble()), std::signbit(y.AsDouble()))
            << "row " << i << " column " << c;
      }
    }
  }
}

/// Every other position of a `width`-column join output.
std::vector<size_t> EveryOther(size_t width) {
  std::vector<size_t> out;
  for (size_t c = 0; c < width; c += 2) out.push_back(c);
  return out;
}

class IndexJoinTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexJoinTest, MatchesHashJoinAndReferenceInBothOrientations) {
  const uint64_t seed = GetParam() + testutil::PropertySeed(0);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  tpcd::Rng rng(seed);
  const Table table = MakeExtent(&rng);
  const Rows extent = Rows::FromTable(table);
  const std::shared_ptr<const ColumnTable> image = table.ColumnarSnapshot();
  int64_t matched = 0;

  for (size_t probe_rows : {size_t{0}, size_t{1}, size_t{60}}) {
    const Rows probe = MakeProbe(&rng, probe_rows);
    for (const KeyCase& key : KeyCases()) {
      vec::IndexedExtent indexed;
      indexed.image = image;
      indexed.index =
          table.FindKeyIndex(Positions(table.schema(), key.extent_keys));
      ASSERT_NE(indexed.index, nullptr) << key.name;
      const std::vector<size_t> probe_idx =
          Positions(probe.schema, key.probe_keys);
      for (const auto& [filter_name, filter] : FilterCases()) {
        // Kept operand columns: all, or the keys plus `t` (a narrowing
        // like lowering's), with every or every other output column.
        for (bool narrow : {false, true}) {
          SCOPED_TRACE(key.name + " / " + filter_name + " / probe " +
                       std::to_string(probe_rows) +
                       (narrow ? " / narrowed" : ""));
          std::vector<size_t> kept;
          for (size_t c = 0; c < table.schema().num_columns(); ++c) {
            const std::string& name = table.schema().column(c).name;
            bool key_column = false;
            for (const std::string& k : key.extent_keys) {
              key_column = key_column || k == name;
            }
            if (!narrow || key_column || name == "t") kept.push_back(c);
          }
          indexed.filter = filter;
          indexed.columns = kept;
          const Rows operand =
              Filter(extent, filter, nullptr, nullptr, nullptr, &kept);
          for (bool extent_left : {false, true}) {
            SCOPED_TRACE(extent_left ? "extent left" : "extent right");
            const size_t width =
                probe.schema.num_columns() + operand.schema.num_columns();
            std::vector<size_t> columns(width);
            for (size_t c = 0; c < width; ++c) columns[c] = c;
            if (narrow) columns = EveryOther(width);
            JoinKeys keys;
            keys.left_columns = extent_left ? key.extent_keys : key.probe_keys;
            keys.right_columns = extent_left ? key.probe_keys : key.extent_keys;
            const Rows want =
                extent_left
                    ? HashJoin(operand, probe, keys, nullptr, nullptr, nullptr,
                               &columns)
                    : HashJoin(probe, operand, keys, nullptr, nullptr, nullptr,
                               &columns);
            vec::IndexJoinCounts counts;
            const Rows got = vec::IndexJoin(probe, probe_idx, indexed,
                                            extent_left, &columns, nullptr,
                                            &counts);
            ASSERT_NO_FATAL_FAILURE(ExpectSameRows(got, want));
            EXPECT_LE(counts.kept, counts.candidates);
            matched += static_cast<int64_t>(got.size());

            if (narrow) continue;
            // The naive oracle, at full width.
            OperatorStats ignored;
            const Rows ref_operand =
                filter == nullptr
                    ? extent
                    : reference::Filter(extent, filter, &ignored);
            const Rows ref =
                extent_left
                    ? reference::Join(ref_operand, probe, keys, &ignored)
                    : reference::Join(probe, ref_operand, keys, &ignored);
            ASSERT_NO_FATAL_FAILURE(ExpectSameRows(got, ref));
          }
        }
      }
    }
  }
  EXPECT_GT(matched, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexJoinTest, ::testing::Values(1, 2, 17));

// ---------------------------------------------------------------------------
// Plan level: the delta-first join.

Schema DeltaSchema() {
  return Schema({{"dk", TypeId::kInt64}, {"dv", TypeId::kInt64}});
}

/// A join of Filter(ScanDelta) with Filter(ScanTable) on dk = k, the
/// delta on the left (`delta_left`) or the right.
struct JoinPlan {
  PlanDag dag;
  PlanNodeId root = -1;
  PlanNodeId extent_side = -1;
  PlanNodeId extent_scan = -1;
};

void BuildJoinPlan(const Table& table, const DeltaRelation& delta,
                   ScalarExpr::Ptr delta_filter, bool delta_left,
                   JoinPlan* plan) {
  PlanDag& dag = plan->dag;
  const PlanNodeId dscan = dag.InternDeltaScan("D", delta, 0);
  const PlanNodeId dside =
      delta_filter == nullptr
          ? dscan
          : dag.InternFilter(dscan, std::move(delta_filter));
  plan->extent_scan = dag.InternTableScan("E", table, 0, 0);
  plan->extent_side = dag.InternFilter(
      plan->extent_scan, Cmp(CompareOp::kGe, Col("v"), Int(2)));
  JoinKeys keys;
  keys.left_columns = {delta_left ? "dk" : "k"};
  keys.right_columns = {delta_left ? "k" : "dk"};
  plan->root = delta_left
                   ? dag.InternHashJoin(dside, plan->extent_side, keys)
                   : dag.InternHashJoin(plan->extent_side, dside, keys);
}

int64_t EngineCounter(const std::string& name) {
  return obs::GetCounter(name, obs::MetricClass::kEngine)->value();
}

// An empty delta side, or one its filter empties, makes the join empty:
// the executor returns no rows and never evaluates the extent side.
TEST(DeltaFirstJoinTest, EmptyDeltaSideSkipsTheOtherOperand) {
  tpcd::Rng rng(testutil::PropertySeed(5));
  const Table table = MakeExtent(&rng);
  DeltaRelation empty(DeltaSchema());
  DeltaRelation filtered_out(DeltaSchema());
  for (int64_t i = 0; i < 50; ++i) {
    filtered_out.Add(Tuple({Value::Int64(i % 12), Value::Int64(i)}), 1);
  }
  obs::ArmMetrics();
  for (bool delta_left : {true, false}) {
    for (const DeltaRelation* delta : {&empty, &filtered_out}) {
      SCOPED_TRACE(std::string(delta_left ? "delta left" : "delta right") +
                   (delta == &empty ? ", empty delta" : ", filtered out"));
      JoinPlan plan;
      BuildJoinPlan(table, *delta, Cmp(CompareOp::kLt, Col("dv"), Int(0)),
                    delta_left, &plan);
      PlanExecutor exec(plan.dag, /*cache=*/nullptr);
      std::vector<PlanNodeRuntime> runtime(plan.dag.size());
      exec.set_runtime(&runtime);
      const int64_t skips = EngineCounter("plan.empty_operand_skips");
      const int64_t skipped_nodes = EngineCounter("plan.nodes_skipped");
      OperatorStats stats;
      const std::shared_ptr<const Rows> out = exec.Execute(plan.root, &stats);
      EXPECT_TRUE(out->empty());
      EXPECT_EQ(out->schema, plan.dag.node(plan.root).schema);
      for (PlanNodeId id : {plan.extent_side, plan.extent_scan}) {
        EXPECT_EQ(runtime[id].rows, -1) << "node " << id;
        EXPECT_EQ(runtime[id].provenance, obs::Provenance::kSkipped)
            << "node " << id;
      }
      EXPECT_EQ(runtime[plan.root].rows, 0);
      EXPECT_EQ(EngineCounter("plan.empty_operand_skips") - skips, 1);
      EXPECT_EQ(EngineCounter("plan.nodes_skipped") - skipped_nodes, 2);
      EXPECT_EQ(stats.hash_build_rows, 0);
    }
  }
  obs::DisarmMetrics();
}

// A small delta against an indexed extent: the extent side is answered by
// the index (its nodes never scan), with the hash join's rows and order.
TEST(DeltaFirstJoinTest, IndexedExtentOperandIsProbedNotScanned) {
  tpcd::Rng rng(testutil::PropertySeed(6));
  const Table table = MakeExtent(&rng);
  Table unindexed = table;
  unindexed.DropKeyIndexes();
  DeltaRelation delta(DeltaSchema());
  for (int64_t i = 0; i < 30; ++i) {
    delta.Add(Tuple({Value::Int64(rng.Range(0, 14)), Value::Int64(i)}),
              rng.Range(-2, 3));
  }
  obs::ArmMetrics();
  for (bool delta_left : {true, false}) {
    SCOPED_TRACE(delta_left ? "delta left" : "delta right");
    JoinPlan indexed, scanned;
    BuildJoinPlan(table, delta, nullptr, delta_left, &indexed);
    BuildJoinPlan(unindexed, delta, nullptr, delta_left, &scanned);
    PlanExecutor exec(indexed.dag, /*cache=*/nullptr);
    std::vector<PlanNodeRuntime> runtime(indexed.dag.size());
    exec.set_runtime(&runtime);
    const int64_t index_joins = EngineCounter("plan.index_joins");
    OperatorStats index_stats, scan_stats;
    const std::shared_ptr<const Rows> got =
        exec.Execute(indexed.root, &index_stats);
    const std::shared_ptr<const Rows> want =
        PlanExecutor(scanned.dag, nullptr).Execute(scanned.root, &scan_stats);
    ASSERT_NO_FATAL_FAILURE(ExpectSameRows(*got, *want));
    EXPECT_FALSE(got->empty());
    EXPECT_EQ(EngineCounter("plan.index_joins") - index_joins, 1);
    for (PlanNodeId id : {indexed.extent_side, indexed.extent_scan}) {
      EXPECT_EQ(runtime[id].provenance, obs::Provenance::kIndex)
          << "node " << id;
      EXPECT_GE(runtime[id].rows, 0) << "node " << id;
    }
    EXPECT_EQ(index_stats.hash_build_rows, 0);
    EXPECT_LT(index_stats.rows_scanned, scan_stats.rows_scanned);
  }
  obs::DisarmMetrics();
}

// Probes share an extent's index and image while a copy of the table is
// edited (the next Inst's copy-on-write): every probe sees the rows as of
// the share, and the copy's edits copy the index first.
TEST(IndexJoinTest, ConcurrentProbesShareAnIndexWhileACopyIsEdited) {
  tpcd::Rng rng(testutil::PropertySeed(8));
  const Table table = MakeExtent(&rng);
  const Rows probe = MakeProbe(&rng, 60);
  vec::IndexedExtent indexed;
  indexed.image = table.ColumnarSnapshot();
  indexed.index = table.FindKeyIndex({0});
  indexed.filter = Cmp(CompareOp::kGe, Col("v"), Int(2));
  indexed.columns = {0, 1, 4};
  const std::vector<size_t> probe_idx = {0};
  const Rows want = vec::IndexJoin(probe, probe_idx, indexed,
                                   /*extent_left=*/false, nullptr, nullptr);

  Table copy = table;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> probes;
  for (int t = 0; t < 4; ++t) {
    probes.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        const Rows got = vec::IndexJoin(probe, probe_idx, indexed,
                                        /*extent_left=*/false, nullptr,
                                        nullptr);
        if (testutil::RowsOf(got) != testutil::RowsOf(want)) ++mismatches;
      }
    });
  }
  tpcd::Rng edit_rng(99);
  for (int i = 0; i < 400; ++i) {
    const Tuple t = ExtentTuple(&edit_rng);
    copy.Add(t, edit_rng.Below(3) == 0 ? -copy.Count(t) : 1);
  }
  for (std::thread& thread : probes) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(table.FindKeyIndex({0}), indexed.index);
  EXPECT_NE(copy.FindKeyIndex({0}), indexed.index);
}

// The Figure-4 VDAG over a coherent change stream, maintained window by
// window: the Comps probe the join-key indexes the warehouse declared,
// skip the operands of the never-changing NATION and REGION, and the
// warehouse stays equal to the reference views.  Under WUW_THREADS and
// WUW_READERS this races term workers probing an extent's index,
// snapshot readers holding the published extents, and the next Inst
// copying the index on edit.
TEST(IndexedWarehouseTest, WindowsProbeIndexesAndConvergeToReference) {
  tpcd::GeneratorOptions gen;
  gen.scale_factor = 0.002;
  gen.seed = testutil::PropertySeed(24);
  SCOPED_TRACE(testutil::SeedTrace(gen.seed));
  Warehouse w = tpcd::MakeTpcdWarehouse(gen, {"Q3", "Q5", "Q10"});
  tpcd::SourceChangeStream stream(w, gen);
  obs::ArmMetrics();
  const int64_t index_joins = EngineCounter("plan.index_joins");
  const int64_t skips = EngineCounter("plan.empty_operand_skips");
  for (int window = 0; window < 3; ++window) {
    for (auto& [base, delta] : stream.NextBatch(0.03, 0.02)) {
      w.SetBaseDelta(base, std::move(delta));
    }
    const Catalog truth = testutil::GroundTruthAfterChanges(w);
    ExecutorOptions options;
    options.term_workers = 4;
    Executor(&w, options)
        .Execute(MinWork(w.vdag(), w.EstimatedSizes()).strategy);
    ASSERT_TRUE(w.catalog().ContentsEqual(truth)) << "window " << window;
  }
  EXPECT_GT(EngineCounter("plan.index_joins") - index_joins, 0);
  EXPECT_GT(EngineCounter("plan.empty_operand_skips") - skips, 0);
  obs::DisarmMetrics();
}

}  // namespace
}  // namespace wuw
