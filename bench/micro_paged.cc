// Micro-benchmarks for the WUW_MEM_MB paged-storage tier
// (storage/paged_store.h, storage/page.h), fault-point style (see
// micro_fault.cc, micro_obs.cc, micro_window.cc): the acceptance
// criterion is that the DISARMED configuration — no WUW_MEM_MB, no
// EnablePaging — costs nothing measurable: the kernels' spill gate is one
// relaxed atomic load and the catalog accessor hook is one null pointer
// test.  The armed-but-resident hook (a mutex + hash lookup + clock
// stamp, paid per executor touch, never per row) and the full
// hibernate/fault-in image roundtrip — the expensive-but-budget-bound
// half of the seam — are measured alongside so regressions stay visible.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "exec/warehouse.h"
#include "storage/page.h"
#include "storage/paged_store.h"
#include "tpcd/change_generator.h"
#include "tpcd/tpcd_views.h"

namespace wuw {
namespace {

tpcd::GeneratorOptions Options() {
  tpcd::GeneratorOptions o;
  o.scale_factor = 0.002;
  o.seed = 42;
  return o;
}

/// A Q3 warehouse that never arms paging: the zero-cost baseline.
Warehouse& DisarmedWarehouse() {
  static Warehouse* w =
      new Warehouse(tpcd::MakeTpcdWarehouse(Options(), {"Q3"}));
  return *w;
}

/// The same fixture with the extent pager armed at a generous budget, so
/// every access is the armed-but-resident fast path.
Warehouse& ArmedWarehouse() {
  static Warehouse* w = [] {
    auto* wh = new Warehouse(tpcd::MakeTpcdWarehouse(Options(), {"Q3"}));
    paged::PagedOptions options;
    options.budget_bytes = int64_t{1} << 30;
    wh->EnablePaging(options);
    return wh;
  }();
  return *w;
}

// The kernels' spill gate with WUW_MEM_MB unset: one relaxed atomic load,
// paid once per HashJoin/Aggregate call.  This is what tier-1 and every
// paper bench pay — it must stay within a few ns of a no-op.
void BM_OperatorSpillGateDisarmed(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(paged::OperatorSpill());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OperatorSpillGateDisarmed);

// Catalog access with no pager attached: the hook is a null pointer test
// on top of the hash lookup every engine path already paid.
void BM_CatalogAccessDisarmed(benchmark::State& state) {
  Warehouse& w = DisarmedWarehouse();
  const std::string name = w.vdag().BaseViews().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.catalog().MustGetTable(name));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CatalogAccessDisarmed);

// Catalog access with the pager armed and the extent resident: mutex +
// entry lookup + last-used stamp.  Paid per accessor call while armed —
// the price of beyond-RAM readiness when nothing is actually paged out.
void BM_CatalogAccessArmedResident(benchmark::State& state) {
  Warehouse& w = ArmedWarehouse();
  const std::string name = w.vdag().BaseViews().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.catalog().MustGetTable(name));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CatalogAccessArmedResident);

// One full hibernate + fault-in cycle of every extent in the fixture:
// image write (skipped when the extent is unchanged since its last image
// — the steady-state this loop settles into), payload release, then
// CRC-checked multi-page read + dense rebuild on next access.  Paid once
// per (extent, eviction), bounded by the budget — never per row.
void BM_HibernateFaultRoundtrip(benchmark::State& state) {
  Warehouse& w = ArmedWarehouse();
  const std::string name = w.vdag().BaseViews().front();
  int64_t rows = 0;
  for (auto _ : state) {
    w.paged_store()->TestOnlyEvictAll(&w.catalog());
    Table* t = w.catalog().MustGetTable(name);
    benchmark::DoNotOptimize(t);
    rows += t->cardinality();
  }
  state.SetItemsProcessed(rows);
}
BENCHMARK(BM_HibernateFaultRoundtrip)->Unit(benchmark::kMicrosecond);

// The raw image codec: serialize + CRC-frame + write, then read + verify
// + decode, per row — the floor any paged workload's I/O sits on.
void BM_SaveLoadTableImage(benchmark::State& state) {
  Warehouse& w = DisarmedWarehouse();
  const std::string name = w.vdag().BaseViews().front();
  const Table* t = w.catalog().MustGetTable(name);
  const std::string path = "/tmp/wuw_micro_paged.pages";
  int64_t rows = 0;
  for (auto _ : state) {
    std::string error = paged::SaveTableImage(*t, path, 64 << 10);
    paged::TableImage img;
    if (error.empty()) error = paged::LoadTableImage(path, &img);
    if (!error.empty()) {
      state.SkipWithError(error.c_str());
      break;
    }
    benchmark::DoNotOptimize(img.columns.get());
    rows += static_cast<int64_t>(img.columns->num_rows());
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(rows);
}
BENCHMARK(BM_SaveLoadTableImage)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace wuw

BENCHMARK_MAIN();
