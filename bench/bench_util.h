// Shared plumbing for the experiment-reproduction binaries.
//
// Each bench binary regenerates one table/figure of the paper: it builds a
// TPC-D warehouse, applies the experiment's change workload, executes the
// competing strategies on clones, and prints the measured update windows
// in the shape the paper reports.
//
// Environment knobs:
//   WUW_SF        scale factor (default 0.01 ~ 60k LINEITEM rows)
//   WUW_SEED      generator seed (default 42)
//   WUW_CACHE_MB  subplan-cache budget in MB; unset = no cache (the
//                 paper-fidelity eager path), 0 = attached but admits
//                 nothing, negative = unbounded
//   WUW_FAULT     fault-injection spec (fault/fault_injection.h grammar);
//                 unset = all points disarmed at zero cost
//   WUW_IO_FAULT  I/O fault spec (io/fault_env.h grammar) — wraps all
//                 durable I/O in a deterministic FaultEnv; unset = the
//                 plain POSIX env
//   WUW_WINDOW_BUDGET  per-window budget spec (exec/window_budget.h
//                 grammar, e.g. "2000" or "work=2000;deadline_ms=50");
//                 executor runs auto-split into as many windows
//                 as the budget demands (always completing); unset = one
//                 window, zero cost.  FromEnv prints a notice when armed
//                 so split timings are never mistaken for baselines.
#ifndef WUW_BENCH_BENCH_UTIL_H_
#define WUW_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/strategy.h"
#include "exec/executor.h"
#include "exec/warehouse.h"
#include "exec/window_budget.h"
#include "fault/fault_injection.h"
#include "io/fault_env.h"
#include "plan/subplan_cache.h"

namespace wuw {
namespace bench {

struct BenchEnv {
  double scale_factor = 0.01;
  uint64_t seed = 42;
  /// WUW_CACHE_MB, when present.
  bool cache_set = false;
  int64_t cache_mb = 0;
};

inline BenchEnv FromEnv(double default_scale_factor = 0.01) {
  BenchEnv env;
  env.scale_factor = default_scale_factor;
  if (const char* sf = std::getenv("WUW_SF")) env.scale_factor = atof(sf);
  if (const char* seed = std::getenv("WUW_SEED")) {
    env.seed = strtoull(seed, nullptr, 10);
  }
  if (const char* mb = std::getenv("WUW_CACHE_MB")) {
    env.cache_set = true;
    env.cache_mb = strtoll(mb, nullptr, 10);
  }
  // Any experiment can run under injected faults without recompiling
  // (no-op when WUW_FAULT / WUW_IO_FAULT are unset).
  std::string fault_error = fault::ArmFromEnv();
  if (!fault_error.empty()) {
    std::fprintf(stderr, "%s\n", fault_error.c_str());
    std::exit(2);
  }
  std::string io_fault_error = io::InstallIoFaultFromEnv();
  if (!io_fault_error.empty()) {
    std::fprintf(stderr, "%s\n", io_fault_error.c_str());
    std::exit(2);
  }
  if (const WindowBudgetOptions* budget = EnvWindowBudget()) {
    std::printf(
        "  NOTE: WUW_WINDOW_BUDGET armed (work=%lld deadline=%.3fs) — "
        "sequential runs auto-split into budgeted windows; timings below "
        "include pause/resume overhead.\n",
        static_cast<long long>(budget->work_units),
        budget->deadline_seconds);
  }
  return env;
}

/// The WUW_CACHE_MB cache, or null when the knob is unset.  The cache
/// deliberately persists across every run of a bench process: clones of one
/// warehouse state agree on subplan keys, so later strategies/repetitions
/// reuse what earlier ones materialized (the cross-expression sharing the
/// plan layer exists for).
inline std::unique_ptr<SubplanCache> MakeCacheFromEnv(const BenchEnv& env) {
  if (!env.cache_set) return nullptr;
  SubplanCacheOptions options;
  options.byte_budget = env.cache_mb < 0 ? -1 : env.cache_mb << 20;
  return std::make_unique<SubplanCache>(options);
}

inline void PrintHeader(const std::string& title,
                        const std::string& subtitle) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  if (!subtitle.empty()) std::printf("%s\n", subtitle.c_str());
  std::printf("==============================================================\n");
}

/// A bar-chart row mirroring the paper's figures.
inline void PrintBar(const std::string& label, double seconds,
                     double max_seconds, int64_t linear_work) {
  int width = max_seconds > 0
                  ? static_cast<int>(40.0 * seconds / max_seconds)
                  : 0;
  std::string bar(static_cast<size_t>(width), '#');
  std::printf("  %-34s %9.3fs  %-40s work=%lld\n", label.c_str(), seconds,
              bar.c_str(), static_cast<long long>(linear_work));
}

/// Executes `strategy` against a clone of `base` (whose pending deltas are
/// cloned too) and returns the measured update window.  `options` lets a
/// bench attach a shared SubplanCache or flip executor policies.
inline ExecutionReport RunOnClone(const Warehouse& base,
                                  const Strategy& strategy,
                                  const ExecutorOptions& options = {}) {
  Warehouse clone = base.Clone();
  Executor executor(&clone, options);
  return executor.Execute(strategy);
}

/// Repeats RunOnClone `reps` times and keeps the fastest run — the same
/// noise discipline the paper's timed SQL Server runs needed.  Linear work
/// is deterministic across repetitions.
inline ExecutionReport RunOnCloneBest(const Warehouse& base,
                                      const Strategy& strategy, int reps = 3,
                                      const ExecutorOptions& options = {}) {
  ExecutionReport best = RunOnClone(base, strategy, options);
  for (int r = 1; r < reps; ++r) {
    ExecutionReport next = RunOnClone(base, strategy, options);
    if (next.total_seconds < best.total_seconds) best = std::move(next);
  }
  return best;
}

/// Measures several strategies with an untimed warmup pass and
/// round-robin-interleaved repetitions (min per strategy), cancelling the
/// slow drift (heap growth, page faults) that consecutive blocks of runs
/// would fold into whichever strategy ran last.
inline std::vector<ExecutionReport> MeasureInterleaved(
    const Warehouse& base, const std::vector<Strategy>& strategies,
    int reps = 3, const ExecutorOptions& options = {}) {
  std::vector<ExecutionReport> best(strategies.size());
  for (size_t i = 0; i < strategies.size(); ++i) {
    (void)RunOnClone(base, strategies[i], options);  // warmup
  }
  for (int r = 0; r < reps; ++r) {
    for (size_t i = 0; i < strategies.size(); ++i) {
      ExecutionReport next = RunOnClone(base, strategies[i], options);
      if (r == 0 || next.total_seconds < best[i].total_seconds) {
        best[i] = std::move(next);
      }
    }
  }
  return best;
}

/// One summary line for the shared cache attached to a bench's runs, plus
/// the total rows scanned across `reports` (the acceptance metric for the
/// memoization ablation).
inline void PrintCacheSummary(const BenchEnv& env, const SubplanCache* cache,
                              const std::vector<ExecutionReport>& reports) {
  int64_t rows_scanned = 0;
  for (const ExecutionReport& r : reports) {
    rows_scanned += r.totals.rows_scanned;
  }
  std::printf("\n  total rows scanned (reported runs): %lld\n",
              static_cast<long long>(rows_scanned));
  if (cache == nullptr) {
    std::printf("  subplan cache: off (set WUW_CACHE_MB to enable)\n");
    return;
  }
  SubplanCacheStats stats = cache->stats();
  std::printf("  subplan cache (%lld MB budget): %s\n",
              static_cast<long long>(env.cache_mb), stats.ToString().c_str());
}

}  // namespace bench
}  // namespace wuw

#endif  // WUW_BENCH_BENCH_UTIL_H_
