// Unit tests for the physical-plan layer: DAG interning / CSE, cache-key
// versioning, SubplanCache budget + eviction policy, and PlanExecutor
// result reuse.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "plan/plan_executor.h"
#include "plan/plan_node.h"
#include "plan/subplan_cache.h"
#include "stats/plan_cardinality.h"
#include "test_util.h"
#include "tpcd/tpcd_views.h"
#include "view/join_pipeline.h"

namespace wuw {
namespace {

using testutil::FillTriple;
using testutil::TripleSchema;

Table MakeTriple(const std::string& name, int64_t rows, uint64_t seed) {
  Table t(TripleSchema(name));
  FillTriple(&t, rows, seed);
  return t;
}

Rows MakeRowsBatch(const std::string& name, int64_t rows, uint64_t seed) {
  Table t = MakeTriple(name, rows, seed);
  return Rows::FromTable(t);
}

Table ToTable(const Rows& rows) {
  Table out(rows.schema);
  for (const auto& [tuple, count] : testutil::RowsOf(rows)) {
    out.Add(tuple, count);
  }
  return out;
}

ScalarExpr::Ptr ValueAbove(const std::string& column, int64_t threshold) {
  return ScalarExpr::Compare(CompareOp::kGt, ScalarExpr::Column(column),
                             ScalarExpr::Literal(Value::Int64(threshold)));
}

TEST(PlanDagTest, InternUnifiesIdenticalSubplans) {
  Table a = MakeTriple("A", 20, 1);
  Table b = MakeTriple("B", 20, 2);
  PlanDag dag;

  // Two "terms" sharing the scan of A and the filtered scan of B.
  PlanNodeId scan_a1 = dag.InternTableScan("A", a, 3, 9);
  PlanNodeId scan_b1 = dag.InternTableScan("B", b, 1, 9);
  PlanNodeId filt_b1 = dag.InternFilter(scan_b1, ValueAbove("B_v", 10));
  PlanNodeId join1 = dag.InternHashJoin(scan_a1, filt_b1,
                                        JoinKeys{{"A_k"}, {"B_k"}});

  PlanNodeId scan_a2 = dag.InternTableScan("A", a, 3, 9);
  PlanNodeId filt_b2 = dag.InternFilter(dag.InternTableScan("B", b, 1, 9),
                                        ValueAbove("B_v", 10));
  PlanNodeId join2 = dag.InternHashJoin(scan_a2, filt_b2,
                                        JoinKeys{{"A_k"}, {"B_k"}});

  EXPECT_EQ(scan_a1, scan_a2);
  EXPECT_EQ(filt_b1, filt_b2);
  EXPECT_EQ(join1, join2);
  // scan A, scan B, filter, join — nothing duplicated.
  EXPECT_EQ(dag.size(), 4u);
}

TEST(PlanDagTest, VersionAndEpochSplitScanIdentity) {
  Table a = MakeTriple("A", 10, 1);
  PlanDag dag;
  PlanNodeId v1 = dag.InternTableScan("A", a, 1, 5);
  PlanNodeId v2 = dag.InternTableScan("A", a, 2, 5);  // extent rewritten
  PlanNodeId e2 = dag.InternTableScan("A", a, 1, 6);  // new batch epoch
  EXPECT_NE(v1, v2);
  EXPECT_NE(v1, e2);
  EXPECT_NE(v2, e2);
}

TEST(PlanDagTest, NumUsesCountsParentEdges) {
  Table a = MakeTriple("A", 10, 1);
  Table b = MakeTriple("B", 10, 2);
  PlanDag dag;
  PlanNodeId scan_a = dag.InternTableScan("A", a, 0, 0);
  PlanNodeId scan_b = dag.InternTableScan("B", b, 0, 0);
  dag.InternHashJoin(scan_a, scan_b, JoinKeys{{"A_k"}, {"B_k"}});
  dag.InternFilter(scan_a, ValueAbove("A_v", 3));
  EXPECT_EQ(dag.node(scan_a).num_uses, 2);
  EXPECT_EQ(dag.node(scan_b).num_uses, 1);
}

TEST(PlanDagTest, RowsLeafPoisonsCacheability) {
  Rows batch = MakeRowsBatch("A", 10, 1);
  Table b = MakeTriple("B", 10, 2);
  PlanDag dag;
  PlanNodeId rows_leaf = dag.InternRowsScan(batch);
  PlanNodeId table_leaf = dag.InternTableScan("B", b, 0, 0);
  PlanNodeId join = dag.InternHashJoin(rows_leaf, table_leaf,
                                       JoinKeys{{"A_k"}, {"B_k"}});
  EXPECT_FALSE(dag.node(rows_leaf).cacheable);
  EXPECT_TRUE(dag.node(table_leaf).cacheable);
  EXPECT_FALSE(dag.node(join).cacheable);
}

TEST(SubplanCacheTest, ZeroBudgetAdmitsNothing) {
  SubplanCache cache(SubplanCacheOptions{/*byte_budget=*/0});
  auto rows = std::make_shared<const Rows>(MakeRowsBatch("A", 5, 1));
  cache.Insert("k", rows, 100.0);
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  SubplanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 0);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.bytes_in_use, 0);
}

TEST(SubplanCacheTest, NegativeBudgetIsUnbounded) {
  SubplanCache cache(SubplanCacheOptions{/*byte_budget=*/-1});
  for (int i = 0; i < 50; ++i) {
    cache.Insert("k" + std::to_string(i),
                 std::make_shared<const Rows>(MakeRowsBatch("A", 20, i)), 1.0);
  }
  SubplanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 50);
  EXPECT_EQ(stats.evictions, 0);
}

TEST(SubplanCacheTest, EvictsCheapestToRecomputeFirst) {
  auto cheap = std::make_shared<const Rows>(MakeRowsBatch("A", 10, 1));
  auto costly = std::make_shared<const Rows>(MakeRowsBatch("B", 10, 2));
  int64_t each = ApproxRowsBytes(*cheap);
  // Room for two entries of this size, not three.
  SubplanCache cache(SubplanCacheOptions{2 * each + each / 2});
  cache.Insert("cheap", cheap, /*recompute_cost=*/10.0);
  cache.Insert("costly", costly, /*recompute_cost=*/1e6);
  cache.Insert("new", std::make_shared<const Rows>(MakeRowsBatch("C", 10, 3)),
               /*recompute_cost=*/500.0);
  EXPECT_EQ(cache.Lookup("cheap"), nullptr);   // evicted: lowest cost/byte
  EXPECT_NE(cache.Lookup("costly"), nullptr);  // survived pressure
  EXPECT_NE(cache.Lookup("new"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(SubplanCacheTest, LruBreaksCostTies) {
  auto mk = [](int seed) {
    return std::make_shared<const Rows>(MakeRowsBatch("A", 10, seed));
  };
  int64_t each = ApproxRowsBytes(*mk(1));
  SubplanCache cache(SubplanCacheOptions{2 * each + each / 2});
  cache.Insert("first", mk(1), 1.0);
  cache.Insert("second", mk(2), 1.0);
  ASSERT_NE(cache.Lookup("first"), nullptr);  // refresh: "second" is now LRU
  cache.Insert("third", mk(3), 1.0);
  EXPECT_NE(cache.Lookup("first"), nullptr);
  EXPECT_EQ(cache.Lookup("second"), nullptr);
  EXPECT_NE(cache.Lookup("third"), nullptr);
}

TEST(SubplanCacheTest, HitAndMissCountersTrack) {
  SubplanCache cache;
  EXPECT_EQ(cache.Lookup("absent"), nullptr);
  cache.Insert("k", std::make_shared<const Rows>(MakeRowsBatch("A", 5, 1)),
               1.0);
  EXPECT_NE(cache.Lookup("k"), nullptr);
  SubplanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
}

TEST(SubplanCacheTest, NewerEpochReleasesEveryEntry) {
  SubplanCache cache(SubplanCacheOptions{/*byte_budget=*/-1});
  cache.AdvanceEpoch(3);
  auto rows = std::make_shared<const Rows>(MakeRowsBatch("A", 5, 1));
  cache.Insert("a", rows, 1.0);
  cache.Insert("b", std::make_shared<const Rows>(MakeRowsBatch("B", 7, 2)),
               1.0);
  const int64_t held = cache.stats().bytes_in_use;
  // The same epoch (clones of one state) and an older one keep entries.
  cache.AdvanceEpoch(3);
  cache.AdvanceEpoch(2);
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.stats().released, 0);

  cache.AdvanceEpoch(4);
  EXPECT_TRUE(cache.Fingerprints().empty());
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  SubplanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.released, 2);
  EXPECT_EQ(stats.bytes_released, held);
  EXPECT_EQ(stats.bytes_in_use, 0);
  EXPECT_EQ(stats.evictions, 0);
  // A consumer's handle outlives the release.
  EXPECT_EQ(rows->size(), 5u);
}

// The executor over a plan must produce exactly what the eager operators
// produce, and charge the same operator stats when no cache is attached.
TEST(PlanExecutorTest, MatchesEagerOperatorsWithoutCache) {
  Table a = MakeTriple("A", 30, 1);
  Table b = MakeTriple("B", 40, 2);
  ScalarExpr::Ptr pred = ValueAbove("B_v", 20);
  JoinKeys keys{{"A_k"}, {"B_k"}};

  OperatorStats eager_stats;
  Rows eager = HashJoin(Rows::FromTable(a),
                        Filter(Rows::FromTable(b), pred, &eager_stats), keys,
                        &eager_stats);

  PlanDag dag;
  PlanNodeId root = dag.InternHashJoin(
      dag.InternTableScan("A", a, 0, 0),
      dag.InternFilter(dag.InternTableScan("B", b, 0, 0), pred), keys);
  OperatorStats plan_stats;
  PlanExecutor exec(dag, /*cache=*/nullptr);
  std::shared_ptr<const Rows> out = exec.Execute(root, &plan_stats);

  EXPECT_TRUE(ToTable(eager).ContentsEqual(ToTable(*out)));
  EXPECT_EQ(eager_stats, plan_stats);
}

TEST(PlanExecutorTest, CacheHitSkipsRecomputation) {
  Table a = MakeTriple("A", 30, 1);
  Table b = MakeTriple("B", 40, 2);
  JoinKeys keys{{"A_k"}, {"B_k"}};
  SubplanCache cache;

  auto run = [&](OperatorStats* stats) {
    PlanDag dag;
    PlanNodeId root = dag.InternHashJoin(dag.InternTableScan("A", a, 0, 0),
                                         dag.InternTableScan("B", b, 0, 0),
                                         keys);
    AnnotatePlanCardinality(&dag);
    PlanExecutor exec(dag, &cache);
    return *exec.Execute(root, stats);
  };

  OperatorStats cold, warm;
  Rows first = run(&cold);
  Rows second = run(&warm);  // a fresh DAG, same fingerprints

  EXPECT_TRUE(ToTable(first).ContentsEqual(ToTable(second)));
  EXPECT_GT(cold.subplan_cache_misses, 0);
  EXPECT_EQ(cold.subplan_cache_hits, 0);
  EXPECT_EQ(warm.subplan_cache_hits, 1);  // root served whole
  EXPECT_EQ(warm.rows_scanned, 0);        // nothing re-joined
}

// Leaf scans bypass the cache: with every scan shared and each root
// evaluated on its own (no PrepareShared memo), only the interior nodes
// look up and insert.
TEST(PlanExecutorTest, LeavesNeverTouchTheCache) {
  Table a = MakeTriple("A", 30, 1);
  Table b = MakeTriple("B", 40, 2);
  Table c = MakeTriple("C", 20, 3);
  PlanDag dag;
  PlanNodeId scan_a = dag.InternTableScan("A", a, 0, 0);
  PlanNodeId scan_b = dag.InternTableScan("B", b, 0, 0);
  PlanNodeId root1 = dag.InternHashJoin(scan_a, scan_b,
                                        JoinKeys{{"A_k"}, {"B_k"}});
  PlanNodeId filt_c = dag.InternFilter(dag.InternTableScan("C", c, 0, 0),
                                       ValueAbove("C_v", 5));
  PlanNodeId root2 = dag.InternHashJoin(scan_a, filt_c,
                                        JoinKeys{{"A_k"}, {"C_k"}});
  PlanNodeId root3 = dag.InternFilter(scan_b, ValueAbove("B_v", 10));
  ASSERT_EQ(dag.node(scan_a).num_uses, 2);
  ASSERT_EQ(dag.node(scan_b).num_uses, 2);
  AnnotatePlanCardinality(&dag);

  SubplanCache cache;
  PlanExecutor exec(dag, &cache);
  OperatorStats stats;
  for (PlanNodeId root : {root1, root2, root3}) exec.Execute(root, &stats);

  // Interior cacheable nodes executed: root1, filt_c, root2, root3.
  SubplanCacheStats cs = cache.stats();
  EXPECT_EQ(cs.insertions, 4);
  EXPECT_EQ(cs.misses, 4);
  EXPECT_EQ(cs.hits, 0);
  EXPECT_EQ(stats.subplan_cache_misses, 4);
  for (const std::string& key : cache.Fingerprints()) {
    EXPECT_NE(key.rfind("scan:", 0), 0u) << key;
  }
}

TEST(PlanExecutorTest, PrepareSharedMaterializesSharedNodesOnce) {
  Table a = MakeTriple("A", 30, 1);
  Table b = MakeTriple("B", 40, 2);
  Table c = MakeTriple("C", 20, 3);
  JoinKeys ab{{"A_k"}, {"B_k"}};
  JoinKeys ac{{"A_k"}, {"C_k"}};

  // Two roots sharing the A⋈B prefix... no: sharing the scan of A and the
  // join A⋈B as a whole via a filter variant.
  PlanDag dag;
  PlanNodeId join_ab = dag.InternHashJoin(dag.InternTableScan("A", a, 0, 0),
                                          dag.InternTableScan("B", b, 0, 0),
                                          ab);
  PlanNodeId root1 = dag.InternFilter(join_ab, ValueAbove("A_v", 10));
  PlanNodeId root2 = dag.InternHashJoin(join_ab,
                                        dag.InternTableScan("C", c, 0, 0), ac);
  ASSERT_EQ(dag.node(join_ab).num_uses, 2);
  AnnotatePlanCardinality(&dag);

  SubplanCache cache;
  PlanExecutor exec(dag, &cache);
  OperatorStats prep, s1, s2;
  exec.PrepareShared({root1, root2}, &prep);
  Rows r1 = *exec.Execute(root1, &s1);
  Rows r2 = *exec.Execute(root2, &s2);

  // The shared join ran once, during the pre-pass; the roots only paid for
  // their own operator over the memoized input.
  EXPECT_GT(prep.rows_scanned, 0);
  OperatorStats eager1, eager2;
  Rows expect1 = Filter(HashJoin(Rows::FromTable(a), Rows::FromTable(b), ab,
                                 &eager1),
                        ValueAbove("A_v", 10), &eager1);
  Rows expect2 = HashJoin(HashJoin(Rows::FromTable(a), Rows::FromTable(b), ab,
                                   &eager2),
                          Rows::FromTable(c), ac, &eager2);
  EXPECT_TRUE(ToTable(expect1).ContentsEqual(ToTable(r1)));
  EXPECT_TRUE(ToTable(expect2).ContentsEqual(ToTable(r2)));
  EXPECT_LT(s1.rows_scanned + s2.rows_scanned,
            eager1.rows_scanned + eager2.rows_scanned);
}

// Lowering a view definition must still emit the historical operator
// sequence: BuildJoinPlan + execute == EvalJoinPipeline.
TEST(PlanPipelineTest, BuildJoinPlanMatchesEvalJoinPipeline) {
  auto def = testutil::SpjTripleView("V", {"A", "B"}, /*with_filter=*/true);
  Table a = MakeTriple("A", 25, 4);
  Table b = MakeTriple("B", 35, 5);

  OperatorStats eager_stats;
  std::vector<Rows> inputs;
  inputs.push_back(Rows::FromTable(a));
  inputs.push_back(Rows::FromTable(b));
  Rows eager = EvalJoinPipeline(*def, std::move(inputs), &eager_stats);

  PlanDag dag;
  std::vector<PlanNodeId> leaves = {dag.InternTableScan("A", a, 0, 0),
                                    dag.InternTableScan("B", b, 0, 0)};
  PlanNodeId root = BuildJoinPlan(*def, leaves, PipelineWidth::kFull, &dag);
  OperatorStats plan_stats;
  PlanExecutor exec(dag, nullptr);
  Rows from_plan = *exec.Execute(root, &plan_stats);

  EXPECT_TRUE(ToTable(eager).ContentsEqual(ToTable(from_plan)));
  EXPECT_EQ(eager_stats, plan_stats);
}

// ---------------------------------------------------------------------------
// Column pruning: a term lowered at PipelineWidth::kRaw must compute the
// raw rows, in the same order and with the same OperatorStats, as the
// full-width lowering, while every pruned node carries only columns some
// ancestor reads.

/// One Comp-style term of `def` lowered at `width` and executed: source i
/// scans its base delta when bit i of `delta_mask` is set, its extent
/// otherwise.  With a non-null `prefix`, the first `prefix_len` sources are
/// replaced by that materialized join prefix (an aux-view stand-in).
struct LoweredTerm {
  PlanDag dag;
  PlanNodeId root = -1;
  Rows raw;
  OperatorStats stats;
};

void LowerTerm(const Warehouse& w, const ViewDefinition& def,
               uint64_t delta_mask, const Rows* prefix, size_t prefix_len,
               PipelineWidth width, LoweredTerm* out) {
  PlanDag& dag = out->dag;
  std::vector<PlanNodeId> inputs;
  std::vector<const Schema*> schemas;
  for (size_t i = 0; i < def.num_sources(); ++i) {
    const std::string& src = def.sources()[i];
    const Table& table = *w.catalog().MustGetTable(src);
    schemas.push_back(&table.schema());
    if (prefix != nullptr && i < prefix_len) continue;
    inputs.push_back(delta_mask >> i & 1
                         ? dag.InternDeltaScan(src, w.base_delta(src), 0)
                         : dag.InternTableScan(src, table, 0, 0));
  }
  PlanNodeId joined =
      prefix == nullptr
          ? BuildJoinPlan(def, inputs, width, &dag)
          : BuildJoinPlanFromPrefix(def, schemas, dag.InternRowsScan(*prefix),
                                    prefix_len, inputs, width, &dag);
  out->root = BuildRawProjectionPlan(def, joined, &dag);
  PlanExecutor exec(dag, nullptr);
  out->raw = *exec.Execute(out->root, &out->stats);
}

/// The full-width join of def's first `k` sources over their extents: the
/// rows an aux view materializing that prefix holds.
Rows PrefixRows(const Warehouse& w, const ViewDefinition& def, size_t k) {
  ViewDefinitionBuilder b("prefix");
  std::vector<Rows> inputs;
  std::vector<const Schema*> schemas;
  for (size_t i = 0; i < k; ++i) {
    b.From(def.sources()[i]);
    const Table& table = *w.catalog().MustGetTable(def.sources()[i]);
    inputs.push_back(Rows::FromTable(table));
    schemas.push_back(&table.schema());
  }
  auto inside = [&](const std::string& col) {
    for (const Schema* schema : schemas) {
      if (schema->HasColumn(col)) return true;
    }
    return false;
  };
  for (const JoinCondition& jc : def.joins()) {
    if (inside(jc.left_column) && inside(jc.right_column)) {
      b.JoinOn(jc.left_column, jc.right_column);
    }
  }
  for (const ScalarExpr::Ptr& conjunct : def.filters()) {
    std::vector<std::string> cols = conjunct->ReferencedColumns();
    if (!cols.empty() && std::all_of(cols.begin(), cols.end(), inside)) {
      b.Where(conjunct);
    }
  }
  for (const Schema* schema : schemas) {
    for (const Column& col : schema->columns()) b.SelectColumn(col.name);
  }
  return EvalJoinPipeline(*b.Build(), std::move(inputs), nullptr);
}

/// Every column a node below the raw projection `root` emits is read by
/// one of its ancestors: a join key, a filter predicate or the projection.
void ExpectNoUnreadColumns(const PlanDag& dag, PlanNodeId id,
                           std::set<std::string> read_above) {
  const PlanNode& n = dag.node(id);
  if (n.is_leaf()) return;
  for (const Column& col : n.schema.columns()) {
    EXPECT_EQ(read_above.count(col.name), 1u)
        << PlanNodeLabel(n) << " #" << id << " carries " << col.name
        << ", which nothing above it reads";
  }
  if (n.kind == PlanNodeKind::kFilter) {
    for (const std::string& c : n.filter.predicate->ReferencedColumns()) {
      read_above.insert(c);
    }
    ExpectNoUnreadColumns(dag, n.children[0], read_above);
  } else if (n.kind == PlanNodeKind::kHashJoin) {
    std::set<std::string> left = read_above, right = read_above;
    left.insert(n.join.keys.left_columns.begin(),
                n.join.keys.left_columns.end());
    right.insert(n.join.keys.right_columns.begin(),
                 n.join.keys.right_columns.end());
    ExpectNoUnreadColumns(dag, n.children[0], left);
    ExpectNoUnreadColumns(dag, n.children[1], right);
  }
}

void ExpectRawIdentical(const Rows& expect, const Rows& got) {
  ASSERT_EQ(expect.schema, got.schema);
  const RowVec want = testutil::RowsOf(expect);
  const RowVec have = testutil::RowsOf(got);
  ASSERT_EQ(want.size(), have.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(want[i].first == have[i].first) << "row " << i;
    EXPECT_EQ(want[i].second, have[i].second) << "row " << i;
  }
}

/// Sum of the widths of every Filter and HashJoin in the DAG.
size_t InteriorWidth(const PlanDag& dag) {
  size_t width = 0;
  for (size_t id = 0; id < dag.size(); ++id) {
    const PlanNode& n = dag.node(static_cast<PlanNodeId>(id));
    if (n.kind == PlanNodeKind::kFilter || n.kind == PlanNodeKind::kHashJoin) {
      width += n.schema.num_columns();
    }
  }
  return width;
}

/// Lowers every term of every derived view with at most two delta
/// operands (deltas of base sources only), with and without a prefix, at
/// both widths, and compares.  Returns the interior widths summed over all
/// terms at {kRaw, kFull}.
std::pair<size_t, size_t> CheckPrunedLowering(const Warehouse& w) {
  size_t raw_width = 0, full_width = 0;
  for (const std::string& name : w.vdag().DerivedViewsBottomUp()) {
    const ViewDefinition& def = *w.vdag().definition(name);
    const size_t n = def.num_sources();
    for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
      bool base_only = true;
      for (size_t i = 0; i < n; ++i) {
        if ((mask >> i & 1) && !w.vdag().IsBaseView(def.sources()[i])) {
          base_only = false;
        }
      }
      if (!base_only || __builtin_popcountll(mask) > 2) continue;
      SCOPED_TRACE(name + " mask " + std::to_string(mask));
      LoweredTerm full, pruned;
      LowerTerm(w, def, mask, nullptr, 0, PipelineWidth::kFull, &full);
      LowerTerm(w, def, mask, nullptr, 0, PipelineWidth::kRaw, &pruned);
      ExpectRawIdentical(full.raw, pruned.raw);
      EXPECT_EQ(full.stats, pruned.stats);
      ExpectNoUnreadColumns(pruned.dag, pruned.dag.node(pruned.root).children[0],
                            [&] {
                              std::set<std::string> read;
                              for (const ProjectItem& item :
                                   pruned.dag.node(pruned.root).project.items) {
                                for (const std::string& c :
                                     item.expr->ReferencedColumns()) {
                                  read.insert(c);
                                }
                              }
                              return read;
                            }());
      raw_width += InteriorWidth(pruned.dag);
      full_width += InteriorWidth(full.dag);

      // An aux-view prefix stands in for the leading full operands.
      for (size_t k = 2; k < n; ++k) {
        if ((mask & ((uint64_t{1} << k) - 1)) != 0) break;
        SCOPED_TRACE("prefix " + std::to_string(k));
        const Rows prefix = PrefixRows(w, def, k);
        LoweredTerm pfull, ppruned;
        LowerTerm(w, def, mask, &prefix, k, PipelineWidth::kFull, &pfull);
        LowerTerm(w, def, mask, &prefix, k, PipelineWidth::kRaw, &ppruned);
        ExpectRawIdentical(full.raw, pfull.raw);
        ExpectRawIdentical(pfull.raw, ppruned.raw);
        EXPECT_EQ(pfull.stats, ppruned.stats);
      }
    }
  }
  return {raw_width, full_width};
}

TEST(PlanPruningTest, TpcdTermsPrunedMatchFullWidth) {
  tpcd::GeneratorOptions options;
  options.scale_factor = 0.002;
  options.seed = 31;
  Warehouse w = tpcd::MakeExtendedTpcdWarehouse(options);
  tpcd::ApplyPaperChangeWorkload(&w, 0.10, 0.05, 32);
  const auto [raw_width, full_width] = CheckPrunedLowering(w);
  // Q5's last join alone carries 28 columns for the 3 its projection reads.
  EXPECT_LT(raw_width * 2, full_width);
}

TEST(PlanPruningTest, RandomVdagTermsPrunedMatchFullWidth) {
  const uint64_t seed = testutil::PropertySeed(4101);
  SCOPED_TRACE(testutil::SeedTrace(seed));
  for (uint64_t trial = 0; trial < 6; ++trial) {
    tpcd::Rng rng(seed + trial);
    Warehouse w = testutil::MakeLoadedWarehouse(
        testutil::RandomVdag(&rng, 4, 5), 40, seed + trial);
    testutil::ApplyTripleChanges(&w, 0.2, 6, seed + trial);
    const auto [raw_width, full_width] = CheckPrunedLowering(w);
    EXPECT_LE(raw_width, full_width);
  }
}

TEST(PlanCardinalityTest, AnnotationsAreMonotoneUpTheDag) {
  Table a = MakeTriple("A", 100, 6);
  Table b = MakeTriple("B", 50, 7);
  PlanDag dag;
  PlanNodeId scan_a = dag.InternTableScan("A", a, 0, 0);
  PlanNodeId filt = dag.InternFilter(scan_a, ValueAbove("A_v", 50));
  PlanNodeId join = dag.InternHashJoin(filt, dag.InternTableScan("B", b, 0, 0),
                                       JoinKeys{{"A_k"}, {"B_k"}});
  AnnotatePlanCardinality(&dag);

  EXPECT_EQ(dag.node(scan_a).est_output_rows, a.cardinality());
  EXPECT_LT(dag.node(filt).est_output_rows, dag.node(scan_a).est_output_rows);
  EXPECT_GT(dag.node(filt).est_output_rows, 0);
  // Recompute cost accumulates: rebuilding the join costs more than
  // rebuilding either input subtree.
  EXPECT_GT(dag.node(join).est_recompute_cost,
            dag.node(filt).est_recompute_cost);
}

}  // namespace
}  // namespace wuw
