// Micro-benchmarks for the relational substrate: hash join, grouped
// aggregation, delta install, and maintenance-term evaluation on TPC-D
// data.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <optional>

#include "algebra/aggregate.h"
#include "algebra/hash_join.h"
#include "delta/install.h"
#include "storage/column_table.h"
#include "tpcd/change_generator.h"
#include "tpcd/tpcd_schema.h"
#include "tpcd/tpcd_views.h"
#include "view/comp_term.h"
#include "view/recompute.h"

namespace wuw {
namespace {

tpcd::GeneratorOptions Options() {
  tpcd::GeneratorOptions o;
  o.scale_factor = 0.005;
  o.seed = 42;
  return o;
}

const Warehouse& SharedWarehouse() {
  static Warehouse* w = [] {
    auto* wh = new Warehouse(tpcd::MakeTpcdWarehouse(Options(), {"Q3"}));
    return wh;
  }();
  return *w;
}

void BM_HashJoinOrdersLineitem(benchmark::State& state) {
  const Warehouse& w = SharedWarehouse();
  Rows orders = Rows::FromTable(*w.catalog().MustGetTable(tpcd::kOrders));
  Rows lineitem = Rows::FromTable(*w.catalog().MustGetTable(tpcd::kLineitem));
  for (auto _ : state) {
    OperatorStats stats;
    Rows out = HashJoin(orders, lineitem,
                        JoinKeys{{"o_orderkey"}, {"l_orderkey"}}, &stats);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          (orders.size() + lineitem.size()));
}
BENCHMARK(BM_HashJoinOrdersLineitem);

void BM_AggregateLineitemByOrder(benchmark::State& state) {
  const Warehouse& w = SharedWarehouse();
  Rows lineitem = Rows::FromTable(*w.catalog().MustGetTable(tpcd::kLineitem));
  std::vector<AggSpec> aggs = {
      {AggFn::kSum, ScalarExpr::Column("l_extendedprice"), "s"},
      {AggFn::kCount, nullptr, "c"}};
  for (auto _ : state) {
    Rows out = AggregateSigned(lineitem, {"l_orderkey"}, aggs, nullptr);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * lineitem.size());
}
BENCHMARK(BM_AggregateLineitemByOrder);

void BM_InstallDelta(benchmark::State& state) {
  const Warehouse& w = SharedWarehouse();
  const Table& orders = *w.catalog().MustGetTable(tpcd::kOrders);
  DeltaRelation delta = tpcd::MakeDeletionDelta(orders, 0.1, 7);
  for (auto _ : state) {
    state.PauseTiming();
    Table copy(orders.schema());
    orders.ForEach([&](const Tuple& t, int64_t c) { copy.Add(t, c); });
    state.ResumeTiming();
    Install(delta, &copy, nullptr);
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * delta.AbsCardinality());
}
BENCHMARK(BM_InstallDelta);

// Install then snapshot, per layer: installs a 5% churn delta (3% deletes,
// 2% inserts) into a LINEITEM-shaped table, then takes ColumnarSnapshot().
// Arg 1: the table alone holds its image, so Install edits it in place and
// the snapshot only finishes the prefix sums.  Arg 0: a copy (a published
// snapshot, or a live scan) still shares the image at install time, so the
// first edit copies it.  install_ms and snapshot_ms split the time.
void BM_InstallThenSnapshot(benchmark::State& state) {
  const Warehouse& w = SharedWarehouse();
  const Table& lineitem = *w.catalog().MustGetTable(tpcd::kLineitem);
  DeltaRelation delta = tpcd::MakeDeletionDelta(lineitem, 0.03, 17);
  delta.Merge(tpcd::MakeInsertionDelta(
      tpcd::kLineitem, lineitem.cardinality() / 50, lineitem.cardinality(),
      Options()));
  const Tuple first = lineitem.ColumnarSnapshot()->TupleAt(0);
  const bool alone = state.range(0) == 1;
  double install_s = 0, snapshot_s = 0;
  // Outside the loop so the previous iteration's table dies untimed.
  std::optional<Table> table;
  for (auto _ : state) {
    state.PauseTiming();
    // The copy shares lineitem's image and index; under Arg 1 the
    // Add/undo pair copies both, untimed.
    table.emplace(lineitem);
    if (alone) {
      table->Add(first, 1);
      table->Add(first, -1);
    }
    state.ResumeTiming();
    auto t0 = std::chrono::steady_clock::now();
    Install(delta, &*table, nullptr);
    auto t1 = std::chrono::steady_clock::now();
    std::shared_ptr<const ColumnTable> image = table->ColumnarSnapshot();
    auto t2 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(image);
    install_s += std::chrono::duration<double>(t1 - t0).count();
    snapshot_s += std::chrono::duration<double>(t2 - t1).count();
  }
  const double n = static_cast<double>(state.iterations());
  state.counters["install_ms"] = 1e3 * install_s / n;
  state.counters["snapshot_ms"] = 1e3 * snapshot_s / n;
  state.SetLabel(alone ? "alone" : "shared");
  state.SetItemsProcessed(state.iterations() * delta.AbsCardinality());
}
BENCHMARK(BM_InstallThenSnapshot)->Arg(0)->Arg(1);

void BM_CompOneWayQ3(benchmark::State& state) {
  const Warehouse& w = SharedWarehouse();
  const Table& lineitem = *w.catalog().MustGetTable(tpcd::kLineitem);
  DeltaRelation delta = tpcd::MakeDeletionDelta(lineitem, 0.1, 9);
  DeltaProvider provider = [&](const std::string&) { return &delta; };
  const ViewDefinition& def = *w.vdag().definition("Q3");
  for (auto _ : state) {
    CompEvalResult r = EvalComp(def, {tpcd::kLineitem}, w.catalog(), provider,
                                {}, nullptr);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_CompOneWayQ3);

void BM_CompDualStageQ3(benchmark::State& state) {
  const Warehouse& w = SharedWarehouse();
  DeltaRelation dc = tpcd::MakeDeletionDelta(
      *w.catalog().MustGetTable(tpcd::kCustomer), 0.1, 11);
  DeltaRelation dor = tpcd::MakeDeletionDelta(
      *w.catalog().MustGetTable(tpcd::kOrders), 0.1, 12);
  DeltaRelation dl = tpcd::MakeDeletionDelta(
      *w.catalog().MustGetTable(tpcd::kLineitem), 0.1, 13);
  DeltaProvider provider = [&](const std::string& n) -> const DeltaRelation* {
    if (n == tpcd::kCustomer) return &dc;
    if (n == tpcd::kOrders) return &dor;
    return &dl;
  };
  const ViewDefinition& def = *w.vdag().definition("Q3");
  for (auto _ : state) {
    CompEvalResult r =
        EvalComp(def, {tpcd::kCustomer, tpcd::kOrders, tpcd::kLineitem},
                 w.catalog(), provider, {}, nullptr);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_CompDualStageQ3);

// Memory line for the flat open-addressing row index: rebuilds lineitem
// row by row (the Add-heavy path the index serves) and reports the index
// heap bytes total and per distinct row.
void BM_TableIndexFootprint(benchmark::State& state) {
  const Warehouse& w = SharedWarehouse();
  const Table& lineitem = *w.catalog().MustGetTable(tpcd::kLineitem);
  for (auto _ : state) {
    Table copy(lineitem.schema());
    lineitem.ForEach([&](const Tuple& t, int64_t c) { copy.Add(t, c); });
    benchmark::DoNotOptimize(copy);
    state.counters["index_bytes"] = static_cast<double>(copy.IndexBytes());
    state.counters["index_bytes_per_row"] =
        static_cast<double>(copy.IndexBytes()) /
        static_cast<double>(copy.distinct_size());
  }
  state.SetItemsProcessed(state.iterations() * lineitem.distinct_size());
}
BENCHMARK(BM_TableIndexFootprint);

void BM_RecomputeQ3(benchmark::State& state) {
  const Warehouse& w = SharedWarehouse();
  const ViewDefinition& def = *w.vdag().definition("Q3");
  for (auto _ : state) {
    Table t = RecomputeView(def, w.catalog(), nullptr);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_RecomputeQ3);

}  // namespace
}  // namespace wuw

BENCHMARK_MAIN();
