// Update-window benchmark: one process, one workload, one seed.
//
// Generates the TPC-D Figure-4 warehouse (Q3 + Q5 + Q10 over the six base
// views), feeds it a coherent tpcd::SourceChangeStream drawn from --seed, and
// for every batch plans a strategy, runs one update window, and checks the
// committed state against ground truth rebuilt from the stream's source
// mirror.  The harness only calls the engine's public API; every layer is
// timed from outside, around the calls it makes into that layer, plus the
// reports, counters and spans the engine already exposes.
//
// Workloads (see perfbench/README.md for why each exists):
//   nightly     MinWork + sequential Executor, no cache/aux/readers/journal/
//               paging: kernels and Comp terms dominate.
//   served      aux-aware Prune + ParallelizeStrategy + ParallelExecutor,
//               64 MB SubplanCache, aux views, durable journal, snapshot
//               reads with 2 open-loop reader threads.
//   beyond_ram  nightly with the extent pager at half the resident footprint
//               plus operator spills.
//
// --trace 0 prints the end-to-end metrics; --trace 1 arms obs metrics and
// tracing, alternates untraced and traced windows, and prints the per-layer
// metrics.  The last stdout line is always one JSON object
// {"correct", "attempted", "failed", "metrics"}.  Exit status is non-zero on
// any failed window or read.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/correctness.h"
#include "core/min_work.h"
#include "core/prune.h"
#include "exec/executor.h"
#include "exec/parallel_executor.h"
#include "exec/warehouse.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/parallel_strategy.h"
#include "parallel/read_driver.h"
#include "parallel/thread_pool.h"
#include "plan/aux_view.h"
#include "plan/subplan_cache.h"
#include "query/ad_hoc.h"
#include "storage/page.h"
#include "storage/paged_store.h"
#include "tpcd/change_generator.h"
#include "tpcd/tpcd_views.h"
#include "view/comp_term.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace wuw {
namespace perfbench {
namespace {

namespace fs = std::filesystem;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Configuration.

enum class Workload { kNightly, kServed, kBeyondRam };

struct Options {
  Workload workload = Workload::kNightly;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// TPC-D scale factor; 0.03 is a 16 MB resident footprint.
  double sf = 0.03;
  /// Per batch and base table.  Deletes exceed inserts by a point so that
  /// MinWork's desired ordering (by |V'| - |V|) is decided by the change
  /// mix, not by sampling noise: at 3%/3% every view's size change was near
  /// zero, the ordering flipped from batch to batch, and windows swung
  /// between 0.30 and 0.45 s.  Tables shrink about 1% per batch; a run
  /// measures a fixed number of batches, so both sides of a comparison see
  /// the same sizes.
  double delete_fraction = 0.03;
  double insert_fraction = 0.02;
  /// served: open-loop read rate summed over all reader threads; about a
  /// fifth of the readers' quiesced capacity, and 1800 reads in 30 s.
  double read_rate = 60;
  int reader_threads = 2;
  std::string work_dir = ".bench_work";
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  /// Self-test: corrupt one Q5 row after the first measured window; the
  /// correctness gate must report that window as failed.
  bool inject_corruption = false;
};

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kNightly:
      return "nightly";
    case Workload::kServed:
      return "served";
    case Workload::kBeyondRam:
      return "beyond_ram";
  }
  return "?";
}

bool Sequential(Workload w) { return w != Workload::kServed; }

int Nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Pool parallelism, caller included.  Every workload runs its kernels and
/// stages on a 1-thread pool.  On 4 shared cores a wider pool made windows
/// slower (nightly 0.55-0.9 s at 4 threads against 0.37 s at 1) and read
/// latency on served swung by 40% from run to run.
constexpr int kPoolThreads = 1;

/// Complete set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;

/// Fewest windows a run measures, however small --seconds is.
constexpr long kMinWindows = 3;

int ReaderThreads(const Options& o) {
  return o.workload == Workload::kServed ? o.reader_threads : 0;
}

/// Batches measured per second of --seconds.  A run measures a fixed
/// number of windows, so two commits time the same batches of the stream
/// (window cost drifts over a stream's first batches); the rates make a
/// run last about --seconds on a 4-core x86 host.
double WindowsPerSecond(Workload w) {
  switch (w) {
    case Workload::kNightly:
      return 1.0;
    case Workload::kServed:
      return 1.1;
    case Workload::kBeyondRam:
      return 0.3;
  }
  return 1;
}

void RefuseEngineKnobs() {
  // WUW_* knobs arm engine features behind the harness's back (probe
  // threads inside Execute, split windows, aux views, paging, pool size).
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "WUW_", 4) == 0) {
      std::string var(*e);
      Die("refusing to run with engine knob " + var.substr(0, var.find('=')) +
          " set; every feature is armed in-process");
    }
  }
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      o.workload_name = value();
      have_workload = true;
      if (o.workload_name == "nightly") {
        o.workload = Workload::kNightly;
      } else if (o.workload_name == "served") {
        o.workload = Workload::kServed;
      } else if (o.workload_name == "beyond_ram") {
        o.workload = Workload::kBeyondRam;
      } else {
        Die("unknown workload " + o.workload_name);
      }
    } else if (flag == "--seed") {
      o.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value());
    } else if (flag == "--trace") {
      o.trace = value() == "1";
    } else if (flag == "--sf") {
      o.sf = std::stod(value());
    } else if (flag == "--work-dir") {
      o.work_dir = value();
    } else if (flag == "--out-dir") {
      o.out_dir = value();
    } else if (flag == "--git-sha") {
      o.git_sha = value();
    } else if (flag == "--source-digest") {
      o.source_digest = value();
    } else if (flag == "--inject-corruption") {
      o.inject_corruption = true;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!have_workload) Die("--workload is required");
  if (o.seconds <= 0) Die("--seconds must be positive");
  return o;
}

/// The reference kernel: a fixed, engine-independent hash build and probe
/// over heap-allocated groups (200k rows into 100k std::vector groups, then
/// 200k probes), about 40 ms.  It runs right before and right after every
/// window, outside the timed region, and the window is reported in
/// multiples of the mean of the two.  A shared host runs the same code up to
/// 2.5x slower for seconds to minutes at a time; of the kernels tried
/// (random probes from 256 KB to 32 MB, memcpy, sort, std::map of strings,
/// heap-allocating hash groups), this one tracked the engine's slowdowns
/// best, because the engine's hot loops are hash tables of heap-allocated
/// rows as well.
double ReferenceKernelSeconds() {
  const double t0 = Now();
  std::unordered_map<uint64_t, std::vector<int64_t>> groups;
  uint64_t x = 0x9E3779B97F4A7C15ull;  // fixed: every call does equal work
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 200000; ++i) {
    const uint64_t v = next();
    groups[v % 100000].push_back(static_cast<int64_t>(v));
  }
  int64_t sum = 0;
  for (int i = 0; i < 200000; ++i) {
    auto it = groups.find(next() % 120000);
    if (it != groups.end()) sum += it->second.front();
  }
  static volatile int64_t sink;
  sink = sum;
  groups.clear();
  return Now() - t0;
}

// ---------------------------------------------------------------------------
// Small statistics helpers.

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// One numeric field of a /proc/self file ("VmHWM:" in status, in kB;
/// "write_bytes:" in io, in bytes); -1 when unavailable.
int64_t ProcField(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      return std::strtoll(line.c_str() + key.size(), nullptr, 10);
    }
  }
  return -1;
}

int64_t WriteBytes() {
  return std::max<int64_t>(0, ProcField("/proc/self/io", "write_bytes:"));
}

/// Returns free heap pages to the kernel, so that what the previous
/// window's correctness check left in the allocator is gone.
void TrimHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

/// Starts a new resident-memory peak (VmHWM) at the current resident set,
/// which after TrimHeap is live memory only.
void ResetPeakRss() {
  TrimHeap();
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  if (!clear) Die("cannot reset the resident-memory peak");
}

std::map<std::string, int64_t> CounterMap(
    obs::MetricMask classes = obs::kAllMetricsMask) {
  std::map<std::string, int64_t> out;
  for (const auto& [name, value] : obs::SnapshotMetrics(classes).counters) {
    out[name] = value;
  }
  return out;
}

int64_t Get(const std::map<std::string, int64_t>& m, const std::string& k) {
  auto it = m.find(k);
  return it == m.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------------
// Reads (served only): four dashboard SELECTs over the summary tables and
// one base table.

const std::vector<std::string>& DashboardQueries() {
  static const std::vector<std::string> queries = {
      "SELECT o_shippriority, SUM(revenue) AS r FROM Q3 GROUP BY "
      "o_shippriority",
      "SELECT n_name, revenue FROM Q5",
      "SELECT n_name, SUM(revenue) AS r FROM Q10 GROUP BY n_name",
      "SELECT o_orderstatus, SUM(o_shippriority) AS p FROM ORDERS GROUP BY "
      "o_orderstatus",
  };
  return queries;
}

struct ReadLog {
  std::vector<double> latency_ms;  // due -> done
  std::vector<double> wait_ms;     // due -> start
  std::vector<double> exec_ms;     // QueryResult::seconds
  std::vector<double> open_us;     // OpenSnapshot
  double generator_late_max_ms = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t rows = 0;
  std::string first_error;

  void Merge(const ReadLog& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    wait_ms.insert(wait_ms.end(), o.wait_ms.begin(), o.wait_ms.end());
    exec_ms.insert(exec_ms.end(), o.exec_ms.begin(), o.exec_ms.end());
    open_us.insert(open_us.end(), o.open_us.begin(), o.open_us.end());
    generator_late_max_ms =
        std::max(generator_late_max_ms, o.generator_late_max_ms);
    attempted += o.attempted;
    failed += o.failed;
    rows += o.rows;
    if (first_error.empty()) first_error = o.first_error;
  }
};

/// One read: pin a snapshot, run `sql` on it, and check it.  A read fails
/// when the query errors, the pinned snapshot's contents change while it is
/// read (a tear; checked only on armed warehouses, where a writer may run
/// concurrently), or its commit_seq is older than one this reader already
/// saw.  Records latency from `due`.
void ReadOnce(const Warehouse& w, const std::string& sql, double due,
              int64_t* last_commit_seq, ReadLog* log) {
  // Reader work must not leak into the writer's deterministic counters.
  obs::ServeScope serve;
  const double start = Now();
  ++log->attempted;
  double opened = start;
  ReadSnapshot snapshot = [&] {
    obs::TraceSpan span("bench", "OpenSnapshot");
    ReadSnapshot s = w.OpenSnapshot();
    opened = Now();
    return s;
  }();
  const bool armed = snapshot.pinned();
  const uint64_t before = armed ? SnapshotFingerprint(snapshot, 8) : 0;
  QueryResult result;
  {
    obs::TraceSpan span("bench", "ExecuteQuery");
    result = ExecuteQuery(snapshot, sql);
  }
  const double done = Now();
  std::string error = result.error;
  if (error.empty() && armed && SnapshotFingerprint(snapshot, 8) != before) {
    error = "torn read: pinned snapshot changed under the reader";
  }
  if (error.empty() && snapshot.commit_seq() < *last_commit_seq) {
    error = "commit_seq went backwards";
  }
  *last_commit_seq = std::max(*last_commit_seq, snapshot.commit_seq());
  if (!error.empty()) {
    ++log->failed;
    if (log->first_error.empty()) log->first_error = sql + ": " + error;
    return;
  }
  log->latency_ms.push_back((done - due) * 1e3);
  log->wait_ms.push_back((start - due) * 1e3);
  log->exec_ms.push_back(result.seconds * 1e3);
  log->open_us.push_back((opened - start) * 1e6);
  log->rows += static_cast<int64_t>(result.rows.rows.size());
}

/// Open-loop readers: reader i of n issues reads due at
/// start + (i + k*n) / rate, whether or not earlier reads finished, so a
/// stalled reader's queue shows up as latency on the reads after it.
class OpenLoopReaders {
 public:
  OpenLoopReaders(const Warehouse& w, int threads, double rate)
      : warehouse_(w), rate_(rate), start_(Now() + 0.01), logs_(threads) {
    for (int i = 0; i < threads; ++i) {
      threads_.emplace_back([this, i, threads] { Run(i, threads); });
    }
  }
  ~OpenLoopReaders() { Stop(); }
  OpenLoopReaders(const OpenLoopReaders&) = delete;
  OpenLoopReaders& operator=(const OpenLoopReaders&) = delete;

  ReadLog Stop() {
    stop_.store(true);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    ReadLog merged;
    for (const ReadLog& log : logs_) merged.Merge(log);
    return merged;
  }

 private:
  void Run(int index, int threads) {
    ReadLog& log = logs_[static_cast<size_t>(index)];
    int64_t last_seq = 0;
    const auto& queries = DashboardQueries();
    for (int64_t k = 0; !stop_.load(); ++k) {
      const int64_t n = index + k * threads;
      const double due = start_ + static_cast<double>(n) / rate_;
      if (Now() < due) {
        // Idle until due: how late the wake-up lands is the generator's own
        // lateness, not the system's.
        while (!stop_.load() && Now() < due) {
          std::this_thread::sleep_for(std::chrono::microseconds(
              std::max<int64_t>(50, static_cast<int64_t>((due - Now()) * 1e6))));
        }
        if (stop_.load()) break;
        log.generator_late_max_ms =
            std::max(log.generator_late_max_ms, (Now() - due) * 1e3);
      }
      // Each reader cycles through every query, so they carry equal load.
      ReadOnce(warehouse_, queries[static_cast<size_t>(k) % queries.size()],
               due, &last_seq, &log);
    }
  }

  const Warehouse& warehouse_;
  const double rate_;
  const double start_;
  std::atomic<bool> stop_{false};
  std::vector<ReadLog> logs_;
  std::vector<std::thread> threads_;  // last: joins before the logs go
};

// ---------------------------------------------------------------------------
// The rig: one armed warehouse plus its change stream.

using Batch = std::unordered_map<std::string, DeltaRelation>;

struct Rig {
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<Warehouse> warehouse;
  std::unique_ptr<tpcd::SourceChangeStream> stream;
  std::unique_ptr<SubplanCache> cache;
  /// Process-wide spill arming (beyond_ram); destroyed before the pager.
  std::unique_ptr<paged::ScopedOperatorSpill> spill;
  int64_t footprint_bytes = 0;
  int64_t budget_bytes = 0;
};

tpcd::GeneratorOptions Generator(const Options& o) {
  tpcd::GeneratorOptions gen;
  gen.scale_factor = o.sf;
  gen.seed = o.seed;
  return gen;
}

Batch NextBatch(const Options& o, Rig& rig) {
  obs::TraceSpan span("bench", "NextBatch");
  return rig.stream->NextBatch(o.delete_fraction, o.insert_fraction);
}

/// Ground truth from the stream's own mirror of the sources, recomputed
/// from scratch; hidden aux views are skipped by ContentsEqual.
bool MatchesGroundTruth(const Warehouse& w,
                        const tpcd::SourceChangeStream& stream) {
  Warehouse truth(tpcd::BuildTpcdVdag({"Q3", "Q5", "Q10"}));
  for (const std::string& base : truth.vdag().BaseViews()) {
    *truth.base_table(base) = *stream.source().MustGetTable(base);
  }
  truth.RecomputeDerived();
  return w.catalog().ContentsEqual(truth.catalog());
}

// ---------------------------------------------------------------------------
// One update window.

struct WindowSample {
  double window_s = 0;  // hand-over -> commit, wall clock
  double ref_s = 0;     // the reference kernel: mean of a run right before
                        // the window and one right after its commit
  double plan_s = 0;
  double parallelize_s = 0;
  double validate_s = 0;
  double steps_s = 0;  // Σ step seconds (sequential) or Σ stage seconds
  double comp_s = 0;
  double inst_s = 0;
  double touch_s = 0;          // traced sequential only
  double journal_begin_s = 0;  // traced served only
  double commit_s = 0;         // traced only
  int64_t linear_work = 0;
  int64_t change_rows = 0;
  int64_t orderings_examined = 0;
  int64_t stages = 0;
  int64_t faults = 0;
  int64_t evictions = 0;
  int64_t write_bytes = 0;
  int64_t peak_rss_kb = 0;  // VmHWM from hand-over to commit
  bool traced = false;
  std::map<std::string, int64_t> counters;  // traced: counter deltas
  std::string error;
};

struct Plan {
  Strategy strategy;
  int64_t orderings_examined = 0;
};

Plan PlanWindow(const Options& o, Warehouse& w) {
  SizeMap sizes = w.EstimatedSizes();
  Plan plan;
  if (o.workload == Workload::kServed) {
    obs::TraceSpan span("bench", "Prune");
    AuxCostInfo cost = w.aux_views()->BuildCostInfo();
    PruneOptions options;
    options.aux = &cost;
    PruneResult r = Prune(w.vdag(), sizes, options);
    plan.strategy = std::move(r.strategy);
    plan.orderings_examined = r.orderings_examined;
  } else {
    obs::TraceSpan span("bench", "MinWork");
    MinWorkResult r = MinWork(w.vdag(), sizes);
    plan.strategy = std::move(r.strategy);
    plan.orderings_examined = r.used_modified_ordering ? 2 : 1;
  }
  return plan;
}

/// The stepwise equivalent of Executor::Execute (validate, then each
/// expression through ExecuteExpression, then the ResetBatch commit), timed
/// per layer.  The paged touch runs inside ExecuteExpression before its own
/// step timer starts, so touch time = call wall minus the reported seconds.
void ExecuteStepwise(Warehouse& w, ThreadPool* pool, const Strategy& strategy,
                     WindowSample* s) {
  double t = Now();
  CorrectnessResult valid;
  {
    obs::TraceSpan span("bench", "CheckVdagStrategy");
    valid = CheckVdagStrategy(w.vdag(), strategy);
  }
  s->validate_s = Now() - t;
  if (!valid.ok) {
    s->error = "incorrect strategy: " + valid.violation;
    return;
  }
  obs::TraceSpan span("bench", "Execute");
  CompEvalOptions comp_options =
      MakeCompEvalOptions(&w, /*subplan_cache=*/nullptr,
                          /*skip_empty_delta_terms=*/false,
                          /*term_workers=*/1, pool);
  for (const Expression& e : strategy.expressions()) {
    const double call = Now();
    ExpressionReport er = ExecuteExpression(&w, e, comp_options, nullptr);
    const double wall = Now() - call;
    s->touch_s += std::max(0.0, wall - er.seconds);
    (e.is_comp() ? s->comp_s : s->inst_s) += er.seconds;
    s->steps_s += er.seconds;
    s->linear_work += er.linear_work;
  }
  t = Now();
  w.ResetBatch();
  s->commit_s = Now() - t;
}

/// Commit time of a ParallelExecutor run from its own spans: the part of the
/// "parallel-strategy" span after its last stage span (MarkComplete +
/// ResetBatch), and the part before its first (journal Begin).
void SplitParallelSpans(const std::vector<obs::TraceEvent>& events,
                        WindowSample* s) {
  const obs::TraceEvent* strategy = nullptr;
  for (const obs::TraceEvent& e : events) {
    if (std::strcmp(e.category, "exec") == 0 && e.name == "parallel-strategy") {
      strategy = &e;
    }
  }
  if (strategy == nullptr) return;
  const int64_t begin = strategy->start_us;
  const int64_t end = strategy->start_us + strategy->duration_us;
  int64_t first = end;
  int64_t last = begin;
  for (const obs::TraceEvent& e : events) {
    if (e.tid != strategy->tid || e.name.rfind("stage[", 0) != 0) continue;
    if (e.start_us < begin || e.start_us > end) continue;
    first = std::min(first, e.start_us);
    last = std::max(last, e.start_us + e.duration_us);
  }
  if (first > last) return;  // no stages
  s->journal_begin_s = static_cast<double>(first - begin) * 1e-6;
  s->commit_s = static_cast<double>(end - last) * 1e-6;
}

WindowSample RunWindow(const Options& o, Rig& rig, Batch batch, bool traced) {
  Warehouse& w = *rig.warehouse;
  WindowSample s;
  s.traced = traced;
  for (const auto& [base, delta] : batch) s.change_rows += delta.AbsCardinality();
  paged::PagedStore* pager = w.paged_store();
  if (pager != nullptr) {
    // The previous window's correctness check faulted every hibernated
    // extent back in.  Evict back to the budget, so that every window
    // starts with at most the budget resident, not the whole warehouse.
    pager->Touch({}, &w.catalog(), /*evict=*/true);
    if (pager->resident_bytes() > rig.budget_bytes) {
      s.error = "pager holds " + std::to_string(pager->resident_bytes()) +
                " bytes at hand-over, above its budget of " +
                std::to_string(rig.budget_bytes);
      return s;
    }
  }
  const int64_t faults0 = pager != nullptr ? pager->faults() : 0;
  const int64_t evictions0 = pager != nullptr ? pager->evictions() : 0;
  const int64_t write0 = WriteBytes();
  std::map<std::string, int64_t> counters0;
  size_t trace_mark = 0;
  if (traced) {
    obs::ArmMetrics();
    obs::ArmTracing();
    counters0 = CounterMap();
    trace_mark = obs::TraceEventCount();
  }
  // The reference kernel starts from the same trimmed heap as the window.
  TrimHeap();
  const double ref_before = ReferenceKernelSeconds();
  ResetPeakRss();

  // ---- timed region: hand-over to commit ----
  const double t0 = Now();
  for (auto& [base, delta] : batch) w.SetBaseDelta(base, std::move(delta));
  Plan plan = PlanWindow(o, w);
  const double t1 = Now();
  s.plan_s = t1 - t0;
  s.orderings_examined = plan.orderings_examined;
  if (o.workload == Workload::kServed) {
    ParallelStrategy staged;
    {
      obs::TraceSpan span("bench", "ParallelizeStrategy");
      staged = ParallelizeStrategy(w.vdag(), plan.strategy);
    }
    const double t2 = Now();
    s.parallelize_s = t2 - t1;
    CorrectnessResult valid;
    {
      // ParallelExecutor does not validate; a user of it must.
      obs::TraceSpan span("bench", "CheckVdagStrategy");
      valid = CheckVdagStrategy(w.vdag(), staged.Linearize());
    }
    const double t3 = Now();
    s.validate_s = t3 - t2;
    if (!valid.ok) {
      s.error = "incorrect strategy: " + valid.violation;
    } else {
      ParallelExecutorOptions options;
      options.workers = rig.pool->parallelism();
      options.pool = rig.pool.get();
      options.subplan_cache = rig.cache.get();
      options.journal = true;
      ParallelExecutionReport report;
      {
        obs::TraceSpan span("bench", "Execute");
        report = ParallelExecutor(&w, options).Execute(staged);
      }
      s.linear_work = report.total_linear_work;
      s.stages = static_cast<int64_t>(report.stage_seconds.size());
      for (double x : report.stage_seconds) s.steps_s += x;
      for (const ExpressionReport& er : report.per_expression) {
        (er.expression.is_comp() ? s.comp_s : s.inst_s) += er.seconds;
      }
    }
  } else if (traced) {
    ExecuteStepwise(w, rig.pool.get(), plan.strategy, &s);
  } else {
    ExecutorOptions options;
    options.pool = rig.pool.get();
    ExecutionReport report;
    {
      obs::TraceSpan span("bench", "Execute");
      report = Executor(&w, options).Execute(plan.strategy);
    }
    s.linear_work = report.total_linear_work;
    for (const ExpressionReport& er : report.per_expression) {
      (er.expression.is_comp() ? s.comp_s : s.inst_s) += er.seconds;
      s.steps_s += er.seconds;
    }
  }
  s.window_s = Now() - t0;
  // ---- end of timed region ----

  s.peak_rss_kb = ProcField("/proc/self/status", "VmHWM:");
  s.write_bytes = WriteBytes() - write0;
  // A second reference run brackets the window, so that a host slowdown
  // that starts during a long window shows in both.
  TrimHeap();
  s.ref_s = (ref_before + ReferenceKernelSeconds()) / 2;
  if (pager != nullptr) {
    s.faults = pager->faults() - faults0;
    s.evictions = pager->evictions() - evictions0;
  }
  if (traced) {
    std::map<std::string, int64_t> counters1 = CounterMap();
    for (const auto& [name, value] : counters1) {
      s.counters[name] = value - Get(counters0, name);
    }
    if (o.workload == Workload::kServed) {
      SplitParallelSpans(obs::TraceSince(trace_mark), &s);
    }
    obs::DisarmTracing();
    obs::DisarmMetrics();
  }
  return s;
}

/// Traced runs only, on the warm-up batch of the sequential workloads:
/// the step-by-step loop must commit the same state, and the same kWork
/// counters, as Executor::Execute.  exec.strategies and exec.steps are
/// bumped by Execute's own loop, which the step-by-step loop replaces, so
/// they are compared against the step count instead.
void CheckStepwiseEquivalence(const Options& o, Rig& rig, Batch batch) {
  Warehouse& w = *rig.warehouse;
  for (auto& [base, delta] : batch) w.SetBaseDelta(base, std::move(delta));
  Plan plan = PlanWindow(o, w);
  const int64_t steps =
      static_cast<int64_t>(plan.strategy.expressions().size());
  Warehouse reference = w.Clone();
  obs::ArmMetrics();
  obs::ResetMetrics();
  ExecutorOptions options;
  options.pool = rig.pool.get();
  Executor(&reference, options).Execute(plan.strategy);
  const obs::MetricMask work = obs::Mask(obs::MetricClass::kWork);
  std::map<std::string, int64_t> executed = CounterMap(work);
  obs::ResetMetrics();
  WindowSample s;
  ExecuteStepwise(w, rig.pool.get(), plan.strategy, &s);
  std::map<std::string, int64_t> stepped = CounterMap(work);
  obs::ResetMetrics();
  obs::DisarmMetrics();
  if (!s.error.empty()) Die("step-by-step loop: " + s.error);
  if (Get(executed, "exec.strategies") != 1 ||
      Get(executed, "exec.steps") != steps) {
    Die("Executor::Execute step accounting differs from the strategy length");
  }
  executed.erase("exec.strategies");
  executed.erase("exec.steps");
  if (executed != stepped) {
    Die("step-by-step loop's kWork counters differ from Executor::Execute's");
  }
  if (!reference.catalog().ContentsEqual(w.catalog())) {
    Die("step-by-step loop committed a different state than Executor::Execute");
  }
  std::printf("step-by-step loop == Executor::Execute: same state, %zu kWork "
              "counters equal\n",
              stepped.size());
}

std::unique_ptr<Rig> BuildRig(const Options& o, int rep, double* setup_s,
                              WindowSample* warmup) {
  const double t0 = Now();
  auto rig = std::make_unique<Rig>();
  rig->pool = std::make_unique<ThreadPool>(kPoolThreads);
  const tpcd::GeneratorOptions gen = Generator(o);
  {
    obs::TraceSpan span("bench", "MakeTpcdWarehouse");
    rig->warehouse = std::make_unique<Warehouse>(
        tpcd::MakeTpcdWarehouse(gen, {"Q3", "Q5", "Q10"}));
  }
  Warehouse& w = *rig->warehouse;
  rig->stream = std::make_unique<tpcd::SourceChangeStream>(w, gen);
  for (const std::string& name : w.catalog().table_names()) {
    rig->footprint_bytes +=
        paged::ApproxTableBytes(*w.catalog().MustGetTable(name));
  }
  const std::string dir =
      o.work_dir + "/" + WorkloadName(o.workload) + "-" + std::to_string(rep);
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) Die("cannot create work directory " + dir);

  if (o.workload == Workload::kServed) {
    rig->cache = std::make_unique<SubplanCache>(
        SubplanCacheOptions{int64_t{64} << 20});
    // Promote after one hot window, so the warm-up window absorbs the
    // promotions and measured windows run with aux views in place.
    AuxViewOptions aux;
    aux.min_windows = 1;
    aux.min_uses = 1;
    w.EnableAuxViews(aux);
    w.EnableSnapshotReads();
    std::string error = w.journal().AttachDurable(nullptr, dir + "/journal");
    if (!error.empty()) Die("journal: " + error);
  } else if (o.workload == Workload::kBeyondRam) {
    paged::PagedOptions paging;
    rig->budget_bytes = std::max<int64_t>(1, rig->footprint_bytes / 2);
    paging.budget_bytes = rig->budget_bytes;
    paging.dir = dir + "/pages";
    rig->spill = std::make_unique<paged::ScopedOperatorSpill>(paging);
    w.EnablePaging(paging);
  }

  Batch batch = NextBatch(o, *rig);
  if (o.trace && Sequential(o.workload)) {
    CheckStepwiseEquivalence(o, *rig, std::move(batch));
    *warmup = WindowSample();
  } else {
    *warmup = RunWindow(o, *rig, std::move(batch), /*traced=*/false);
  }
  *setup_s = Now() - t0;
  return rig;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string samples;  // human-readable base
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

void PrintStamp(const Options& o) {
  std::printf(
      "stamp {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"git_sha\": %s, \"source_digest\": %s, "
      "\"build_type\": %s, \"nproc\": %d, \"pool_threads\": %d, "
      "\"reader_threads\": %d, \"sf\": %s, \"delete_fraction\": %s, "
      "\"insert_fraction\": %s, \"features\": {\"planner\": %s, "
      "\"executor\": %s, \"subplan_cache_mb\": %d, \"aux_views\": %s, "
      "\"journal\": %s, \"snapshot_reads\": %s, \"read_rate_per_s\": %s, "
      "\"paging_budget\": %s, \"operator_spill\": %s}}\n",
      JsonString(o.workload_name).c_str(),
      static_cast<unsigned long long>(o.seed), JsonNumber(o.seconds).c_str(),
      o.trace ? 1 : 0, JsonString(o.git_sha).c_str(),
      JsonString(o.source_digest).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), Nproc(), kPoolThreads,
      ReaderThreads(o), JsonNumber(o.sf).c_str(),
      JsonNumber(o.delete_fraction).c_str(),
      JsonNumber(o.insert_fraction).c_str(),
      o.workload == Workload::kServed ? "\"Prune(aux-aware)\""
                                      : "\"MinWork\"",
      o.workload == Workload::kServed ? "\"ParallelExecutor\""
                                      : "\"Executor\"",
      o.workload == Workload::kServed ? 64 : 0,
      o.workload == Workload::kServed ? "true" : "false",
      o.workload == Workload::kServed ? "\"durable\"" : "\"off\"",
      o.workload == Workload::kServed ? "true" : "false",
      JsonNumber(o.workload == Workload::kServed ? o.read_rate : 0).c_str(),
      o.workload == Workload::kBeyondRam ? "\"footprint/2\"" : "\"off\"",
      o.workload == Workload::kBeyondRam ? "true" : "false");
}

void PrintResult(const std::vector<Metric>& metrics, bool correct,
                 int64_t attempted, int64_t failed) {
  for (const Metric& m : metrics) {
    std::printf("metric %-34s %16.6f %-8s (%s)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics[i].name) + ": {\"value\": " +
            JsonNumber(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string N(size_t n, const char* what) {
  return "n=" + std::to_string(n) + " " + what;
}

/// Read latency, from due time to done.  Only served has readers, and an
/// end-to-end metric is printed for every workload and must never read 0,
/// so read latency is a per-layer metric (0 with n=0 elsewhere) and, on
/// served, a text line of the untraced run.
std::vector<Metric> ReadMetrics(const ReadLog& reads) {
  const std::string n =
      N(reads.latency_ms.size(), "open-loop reads beside the writer");
  return {{"read_ms.p50", Median(reads.latency_ms), "ms", n},
          {"read_ms.p99", Quantile(reads.latency_ms, 0.99), "ms", n}};
}

/// Wall-clock window metrics in seconds.  On a shared host they swing with
/// the host's speed (up to 2.5x), so they are unbounded: text lines of the
/// untraced run and per-layer metrics of the traced one.
std::vector<Metric> WallMetrics(
    const std::vector<const WindowSample*>& windows) {
  std::vector<double> window_s;
  std::vector<double> ref_ms;
  double total_s = 0;
  double rows = 0;
  for (const WindowSample* s : windows) {
    window_s.push_back(s->window_s);
    ref_ms.push_back(s->ref_s * 1e3);
    total_s += s->window_s;
    rows += static_cast<double>(s->change_rows);
  }
  const std::string n = N(windows.size(), "untraced windows");
  return {
      {"window_s.p50", Median(window_s), "s", n},
      {"change_rows_per_s", Ratio(rows, total_s), "rows/s",
       n + ", " + JsonNumber(rows) + " change rows"},
      {"bench.ref_kernel_ms.p50", Median(ref_ms), "ms",
       n + "; mean of the reference runs around each"},
  };
}

std::vector<Metric> EndToEndMetrics(const std::vector<WindowSample>& windows,
                                    const std::vector<double>& setups) {
  std::vector<double> window_ref;
  double work = 0;
  int64_t peak_rss_kb = 0;
  for (const WindowSample& s : windows) {
    window_ref.push_back(Ratio(s.window_s, s.ref_s));
    work += static_cast<double>(s.linear_work);
    peak_rss_kb = std::max(peak_rss_kb, s.peak_rss_kb);
  }
  const size_t n = windows.size();
  return {
      {"window_ref.p50", Median(window_ref), "x",
       N(n, "windows") + "; each window's wall time over the mean of the "
                         "reference kernel runs right before and after it"},
      {"linear_work_per_window", Ratio(work, static_cast<double>(n)), "rows",
       N(n, "windows")},
      {"setup_s", Median(setups), "s", N(setups.size(), "set-ups")},
      {"peak_rss_mb", static_cast<double>(peak_rss_kb) / 1024.0, "MB",
       N(n, "windows") + ", largest VmHWM from hand-over to commit"},
  };
}

std::vector<Metric> PerLayerMetrics(const Options& o,
                                    const std::vector<WindowSample>& windows,
                                    const ReadLog& reads) {
  std::vector<const WindowSample*> traced;
  std::vector<const WindowSample*> untraced;
  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  for (const WindowSample& s : windows) {
    (s.traced ? traced_s : untraced_s).push_back(s.window_s);
    (s.traced ? traced : untraced).push_back(&s);
  }
  const double n = static_cast<double>(traced.size());
  auto mean = [&](auto field) {
    double sum = 0;
    for (const WindowSample* s : traced) sum += static_cast<double>(field(*s));
    return Ratio(sum, n);
  };
  auto counter = [&](const char* name) {
    return mean([&](const WindowSample& s) { return Get(s.counters, name); });
  };
  const double window = mean([](const WindowSample& s) { return s.window_s; });
  const double plan = mean([](const WindowSample& s) { return s.plan_s; });
  const double parallelize =
      mean([](const WindowSample& s) { return s.parallelize_s; });
  const double validate =
      mean([](const WindowSample& s) { return s.validate_s; });
  const double steps = mean([](const WindowSample& s) { return s.steps_s; });
  const double comp = mean([](const WindowSample& s) { return s.comp_s; });
  const double inst = mean([](const WindowSample& s) { return s.inst_s; });
  const double touch = mean([](const WindowSample& s) { return s.touch_s; });
  const double journal_begin =
      mean([](const WindowSample& s) { return s.journal_begin_s; });
  const double commit = mean([](const WindowSample& s) { return s.commit_s; });
  // The window partition.  Sequential: the steps are comp + inst.  Served:
  // stages run expressions concurrently, so the stage wall stands in for
  // them (per-expression comp/inst seconds overlap and are reported apart).
  const double accounted =
      plan + parallelize + validate + touch + journal_begin + commit +
      (Sequential(o.workload) ? comp + inst : steps);
  const double unaccounted = window - accounted;
  double change_rows = 0;
  double write_bytes = 0;
  for (const WindowSample* s : traced) {
    change_rows += static_cast<double>(s->change_rows);
    write_bytes += static_cast<double>(s->write_bytes);
  }
  const double hits = counter("cache.hits");
  const double misses = counter("cache.misses");
  const std::string tw = N(traced.size(), "traced windows, mean");
  const std::string rd = N(reads.latency_ms.size(), "reads");
  std::vector<Metric> m = {
      {"traced_window_s", window, "s", tw},
      {"unaccounted_s", unaccounted, "s", tw + "; window minus the partition"},
      {"core.plan_s", plan, "s", tw},
      {"core.parallelize_s", parallelize, "s", tw},
      {"core.validate_s", validate, "s", tw},
      {"core.orderings_examined",
       mean([](const WindowSample& s) { return s.orderings_examined; }),
       "count", tw},
      {"exec.comp_s", comp, "s", tw},
      {"exec.outside_steps_s", window - plan - steps, "s",
       tw + "; window minus plan minus step seconds"},
      {"exec.commit_s", commit, "s", tw},
      {"delta.inst_s", inst, "s", tw},
      {"delta.rows_installed", counter("exec.rows_installed"), "rows", tw},
      {"view.comp_terms", counter("comp.terms"), "count", tw},
      {"view.terms_skipped", counter("comp.terms_skipped"), "count", tw},
      {"view.linear_operand_work", counter("comp.linear_operand_work"),
       "rows", tw},
      {"plan.cache_hit_ratio", Ratio(hits, hits + misses), "ratio",
       tw + "; base = cache_hits + cache_misses"},
      {"plan.cache_hits", hits, "count", tw},
      {"plan.cache_misses", misses, "count", tw},
      {"plan.cache_cost_saved_rows", counter("cache.cost_saved"), "rows", tw},
      {"plan.nodes_executed", counter("plan.nodes_executed"), "count", tw},
      {"plan.aux_promotions", counter("aux.promotions"), "count", tw},
      {"plan.aux_refreshes", counter("aux.refreshes"), "count", tw},
      {"plan.aux_term_substitutions", counter("aux.term_substitutions"),
       "count", tw},
      {"algebra.rows_scanned", counter("engine.rows_scanned"), "rows", tw},
      {"algebra.hash_probes", counter("engine.hash_probes"), "count", tw},
      {"algebra.hash_build_rows", counter("engine.hash_build_rows"), "rows",
       tw},
      {"algebra.vec_rows", counter("engine.vec.rows"), "rows", tw},
      {"algebra.row_value_ops",
       counter("engine.row.value_hashes") + counter("engine.row.value_cmps") +
           counter("engine.row.expr_evals"),
       "count", tw + "; engine.row.* summed"},
      {"algebra.spilled_partitions", counter("paged.spilled_partitions"),
       "count", tw},
      {"storage.paged_faults",
       mean([](const WindowSample& s) { return s.faults; }), "count", tw},
      {"storage.paged_evictions",
       mean([](const WindowSample& s) { return s.evictions; }), "count", tw},
      {"storage.paged_touch_s", touch, "s", tw},
      {"storage.cow_detaches", counter("warehouse.cow_detaches"), "count", tw},
      {"storage.snapshot_open_us", Median(reads.open_us), "us",
       rd + ", median"},
      {"io.write_bytes_per_change_row", Ratio(write_bytes, change_rows),
       "B/row", tw + "; /proc/self/io write_bytes"},
      {"io.journal_begin_s", journal_begin, "s", tw},
      {"io.journal_entries", counter("journal.entries"), "count", tw},
      {"io.retries", counter("io.retries"), "count", tw},
      {"parallel.stages", counter("exec.stages"), "count", tw},
      {"parallel.stage_s", Sequential(o.workload) ? 0.0 : steps, "s", tw},
      {"parallel.fanout_ratio",
       Ratio(counter("pool.fanned_out_tasks"), counter("pool.parallel_regions")),
       "ratio", tw + "; fanned-out tasks per parallel region"},
      {"query.exec_ms.p50", Median(reads.exec_ms), "ms", rd},
      {"query.rows_read",
       Ratio(static_cast<double>(reads.rows),
             static_cast<double>(reads.latency_ms.size())),
       "rows", rd + ", mean per read"},
      {"bench.read_wait_ms.p99", Quantile(reads.wait_ms, 0.99), "ms", rd},
      {"bench.generator_late_ms.max", reads.generator_late_max_ms, "ms", rd},
      {"obs.trace_overhead_frac",
       Ratio(Median(traced_s), Median(untraced_s)) - 1.0, "ratio",
       N(traced_s.size(), "traced") + " vs " +
           N(untraced_s.size(), "untraced windows, p50")},
  };
  for (Metric& r : ReadMetrics(reads)) m.push_back(std::move(r));
  for (Metric& r : WallMetrics(untraced)) m.push_back(std::move(r));
  std::printf(
      "accounting: traced window %.6f s = plan %.6f + parallelize %.6f + "
      "validate %.6f + %s %.6f + touch %.6f + journal_begin %.6f + "
      "commit %.6f + unaccounted %.6f (%.2f%%)\n",
      window, plan, parallelize, validate,
      Sequential(o.workload) ? "comp+inst" : "stages",
      Sequential(o.workload) ? comp + inst : steps, touch, journal_begin,
      commit, unaccounted, 100.0 * Ratio(unaccounted, window));
  return m;
}

int Main(int argc, char** argv) {
  RefuseEngineKnobs();
  Options o = ParseArgs(argc, argv);
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    Die(std::string("refusing a non-Release build (") + PERFBENCH_BUILD_TYPE +
        "); configure with -DCMAKE_BUILD_TYPE=Release");
  }
#if !defined(NDEBUG)
  Die("refusing a build with assertions enabled");
#endif
  PrintStamp(o);
  std::fflush(stdout);
  std::error_code ec;
  fs::create_directories(o.out_dir, ec);
  const double run_start = Now();

  if (o.trace) {
    // Traced runs span every public call from set-up on; metrics are armed
    // only around traced windows (and the equivalence check).
    obs::ArmTracing();
  }
  int64_t windows_attempted = 0;
  int64_t windows_failed = 0;
  std::string first_failure;
  auto check = [&](const WindowSample& s, Rig& rig) {
    ++windows_attempted;
    std::string why = s.error;
    if (why.empty() && !MatchesGroundTruth(*rig.warehouse, *rig.stream)) {
      why = "committed state differs from ground truth";
    }
    if (!why.empty()) {
      ++windows_failed;
      if (first_failure.empty()) first_failure = why;
      return false;
    }
    return true;
  };

  std::vector<double> setups;
  std::unique_ptr<Rig> rig;
  const int reps = o.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    rig.reset();  // one armed warehouse (and spill arming) at a time
    double setup_s = 0;
    WindowSample warmup;
    rig = BuildRig(o, rep, &setup_s, &warmup);
    setups.push_back(setup_s);
    check(warmup, *rig);
  }
  if (o.trace) obs::DisarmTracing();
  std::printf("setup: %zu set-ups, footprint %lld bytes%s\n", setups.size(),
              static_cast<long long>(rig->footprint_bytes),
              rig->budget_bytes > 0
                  ? (", paging budget " + std::to_string(rig->budget_bytes) +
                     " bytes")
                        .c_str()
                  : "");
  std::fflush(stdout);

  std::vector<WindowSample> windows;
  ReadLog reads;
  std::unique_ptr<OpenLoopReaders> readers;
  if (ReaderThreads(o) > 0) {
    readers = std::make_unique<OpenLoopReaders>(*rig->warehouse,
                                                ReaderThreads(o), o.read_rate);
  }
  // No time cap: every run measures the same windows, or fails.
  const size_t target_windows = static_cast<size_t>(std::max(
      kMinWindows, std::lround(o.seconds * WindowsPerSecond(o.workload))));
  while (windows_failed == 0 && windows.size() < target_windows) {
    // Traced runs alternate untraced and traced windows; the pair of
    // medians gives the tracing overhead.  RunWindow disarms at its end.
    const bool traced = o.trace && windows.size() % 2 == 1;
    if (traced) obs::ArmTracing();
    Batch batch = NextBatch(o, *rig);
    WindowSample s = RunWindow(o, *rig, std::move(batch), traced);
    if (o.inject_corruption && windows.empty()) {
      // Self-test: one extra copy of a Q5 row behind the engine's back.
      Table* q5 = rig->warehouse->TestOnlyExtentNoVersionBump("Q5");
      if (!q5->dense_rows().empty()) {
        q5->Add(Tuple(q5->dense_rows().front().first), 1);
      }
    }
    check(s, *rig);
    windows.push_back(std::move(s));
  }
  if (readers != nullptr) {
    reads.Merge(readers->Stop());
    readers.reset();
  }

  if (o.trace) {
    std::vector<obs::TraceEvent> events = obs::DrainTrace();
    const std::string path = o.out_dir + "/trace-" + o.workload_name + "-" +
                             std::to_string(o.seed) + ".json";
    std::ofstream(path) << obs::ChromeTraceJson(events);
    std::printf("trace: %zu spans written to %s\n", events.size(),
                path.c_str());
  }
  rig.reset();
  fs::remove_all(o.work_dir, ec);

  const int64_t attempted = windows_attempted + reads.attempted;
  const int64_t failed = windows_failed + reads.failed;
  std::printf("windows: %lld attempted, %lld failed (window_fail_frac %.6f)\n",
              static_cast<long long>(windows_attempted),
              static_cast<long long>(windows_failed),
              Ratio(static_cast<double>(windows_failed),
                    static_cast<double>(windows_attempted)));
  std::printf("reads: %lld attempted, %lld failed (read_fail_frac %.6f)\n",
              static_cast<long long>(reads.attempted),
              static_cast<long long>(reads.failed),
              Ratio(static_cast<double>(reads.failed),
                    static_cast<double>(reads.attempted)));
  std::printf("window_s samples:");
  for (const WindowSample& s : windows) {
    std::printf(" %.4f%s", s.window_s, s.traced ? "*" : "");
  }
  std::printf("%s\n", o.trace ? "  (* traced)" : "");
  if (!first_failure.empty()) {
    std::printf("FAILED window: %s\n", first_failure.c_str());
  }
  if (!reads.first_error.empty()) {
    std::printf("FAILED read: %s\n", reads.first_error.c_str());
  }
  std::printf("run: %.3f s wall\n", Now() - run_start);
  if (!o.trace) {
    std::vector<const WindowSample*> all;
    for (const WindowSample& s : windows) all.push_back(&s);
    std::vector<Metric> text = WallMetrics(all);
    if (ReaderThreads(o) > 0) {
      for (Metric& r : ReadMetrics(reads)) text.push_back(std::move(r));
    }
    for (const Metric& r : text) {
      std::printf("%s %.6f %s (%s)\n", r.name.c_str(), r.value, r.unit.c_str(),
                  r.samples.c_str());
    }
  }
  PrintResult(o.trace ? PerLayerMetrics(o, windows, reads)
                      : EndToEndMetrics(windows, setups),
              failed == 0, attempted, failed);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace wuw

int main(int argc, char** argv) { return wuw::perfbench::Main(argc, argv); }
