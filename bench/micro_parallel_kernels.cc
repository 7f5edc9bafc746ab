// Micro-benchmarks for the morsel-parallel join and aggregate kernels at
// thread counts {1, 2, 4, 8} and the build/probe shapes of exp1 (Q3:
// LINEITEM probes into an ORDERS build) and exp2 (Q5: a big probe into a
// small dimension build, and the reverse delta shape).
//
// Thread count is the benchmark argument; each count gets its own
// dedicated pool so the gbench JSON separates them cleanly.  On hosts with
// fewer cores than the argument the extra workers time-slice — record the
// host core count next to any numbers (see BENCH_parallel.json).
#include <benchmark/benchmark.h>

#include <map>

#include "algebra/aggregate.h"
#include "algebra/filter.h"
#include "algebra/hash_join.h"
#include "parallel/thread_pool.h"
#include "tpcd/tpcd_schema.h"
#include "tpcd/tpcd_views.h"

namespace wuw {
namespace {

tpcd::GeneratorOptions Options() {
  tpcd::GeneratorOptions o;
  o.scale_factor = 0.02;  // LINEITEM ~120k rows: well past kMinParallelRows
  o.seed = 42;
  return o;
}

const Warehouse& SharedWarehouse() {
  static Warehouse* w =
      new Warehouse(tpcd::MakeTpcdWarehouse(Options(), {"Q3", "Q5"}));
  return *w;
}

/// One pool per benchmarked thread count, built on first use and reused
/// across iterations (pool startup is not what we are measuring).
ThreadPool* PoolFor(int threads) {
  static std::map<int, ThreadPool*>* pools = new std::map<int, ThreadPool*>();
  auto it = pools->find(threads);
  if (it == pools->end()) {
    it = pools->emplace(threads, new ThreadPool(threads)).first;
  }
  return it->second;
}

/// exp1 shape: big probe side (LINEITEM) into a medium build (ORDERS).
void BM_ParallelJoinBigProbe(benchmark::State& state) {
  const Warehouse& w = SharedWarehouse();
  Rows orders = Rows::FromTable(*w.catalog().MustGetTable(tpcd::kOrders));
  Rows lineitem = Rows::FromTable(*w.catalog().MustGetTable(tpcd::kLineitem));
  ThreadPool* pool = PoolFor(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Rows out = HashJoin(lineitem, orders,
                        JoinKeys{{"l_orderkey"}, {"o_orderkey"}}, nullptr,
                        pool);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          (orders.size() + lineitem.size()));
}
BENCHMARK(BM_ParallelJoinBigProbe)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// exp2 shape: big BUILD side (the probe is the smaller input), stressing
/// the partitioned parallel build rather than the probe fan-out.
void BM_ParallelJoinBigBuild(benchmark::State& state) {
  const Warehouse& w = SharedWarehouse();
  Rows orders = Rows::FromTable(*w.catalog().MustGetTable(tpcd::kOrders));
  Rows lineitem = Rows::FromTable(*w.catalog().MustGetTable(tpcd::kLineitem));
  ThreadPool* pool = PoolFor(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Rows out = HashJoin(orders, lineitem,
                        JoinKeys{{"o_orderkey"}, {"l_orderkey"}}, nullptr,
                        pool);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          (orders.size() + lineitem.size()));
}
BENCHMARK(BM_ParallelJoinBigBuild)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// Many small groups (group by order key): merge cost is visible.
void BM_ParallelAggregateManyGroups(benchmark::State& state) {
  const Warehouse& w = SharedWarehouse();
  Rows lineitem = Rows::FromTable(*w.catalog().MustGetTable(tpcd::kLineitem));
  std::vector<AggSpec> aggs = {
      {AggFn::kSum, ScalarExpr::Column("l_extendedprice"), "s"},
      {AggFn::kCount, nullptr, "c"}};
  ThreadPool* pool = PoolFor(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Rows out = AggregateSigned(lineitem, {"l_orderkey"}, aggs, nullptr, pool);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * lineitem.size());
}
BENCHMARK(BM_ParallelAggregateManyGroups)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// Few fat groups (group by return flag): per-partition accumulation
/// dominates, merge is trivial.
void BM_ParallelAggregateFewGroups(benchmark::State& state) {
  const Warehouse& w = SharedWarehouse();
  Rows lineitem = Rows::FromTable(*w.catalog().MustGetTable(tpcd::kLineitem));
  std::vector<AggSpec> aggs = {
      {AggFn::kSum, ScalarExpr::Column("l_extendedprice"), "s"},
      {AggFn::kCount, nullptr, "c"}};
  ThreadPool* pool = PoolFor(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Rows out =
        AggregateSigned(lineitem, {"l_returnflag"}, aggs, nullptr, pool);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * lineitem.size());
}
BENCHMARK(BM_ParallelAggregateFewGroups)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// The generic morsel path on a selective scan.
void BM_ParallelFilter(benchmark::State& state) {
  const Warehouse& w = SharedWarehouse();
  Rows lineitem = Rows::FromTable(*w.catalog().MustGetTable(tpcd::kLineitem));
  ScalarExpr::Ptr pred = ScalarExpr::Compare(
      CompareOp::kLt, ScalarExpr::Column("l_discount"),
      ScalarExpr::Literal(Value::Int64(300)));
  ThreadPool* pool = PoolFor(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Rows out = Filter(lineitem, pred, nullptr, pool);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * lineitem.size());
}
BENCHMARK(BM_ParallelFilter)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace wuw

BENCHMARK_MAIN();
