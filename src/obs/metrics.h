// Central counter registry — the deterministic half of the observability
// layer (src/obs).
//
// The engine's measurements were historically scattered across ad-hoc
// structs (OperatorStats in the kernels, SubplanCacheStats, ThreadPoolStats,
// fault hit totals, journal sizes).  This registry absorbs them behind one
// snapshot API: every instrumented site increments a named process-wide
// Counter, and SnapshotMetrics() returns a sorted, comparable view.
//
// Determinism contract (property-tested by obs_invariance_property_test):
// each counter declares a MetricClass stating which knobs its value is
// invariant to.  kWork counters are bit-identical for a given (warehouse
// state, strategy, executor) at every WUW_THREADS value and every subplan
// cache budget — the same discipline as the pool-size-independence
// invariant in DESIGN.md.  Only kTime gauges may carry wall time.
//
// Disarmed cost follows the fault-point pattern (fault/fault_injection.h):
// the WUW_METRIC_ADD macro is one relaxed atomic load and a predictable
// branch when metrics are disarmed, and compiles out entirely under
// WUW_DISABLE_OBS, so the paper-fidelity benches are unaffected.
//
// The `WUW_METRICS=<path>` environment knob arms the registry at startup
// and writes the deterministic snapshot (kWork|kEngine) to <path> at
// process exit; a path ending in '/' writes <dir>metrics-<pid>.txt so
// parallel test runners do not collide.  CI diffs two consecutive runs'
// files for equality.
#ifndef WUW_OBS_METRICS_H_
#define WUW_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace wuw {
namespace obs {

/// Determinism class of a counter: which knobs the value is invariant to.
enum class MetricClass : uint8_t {
  /// Analytic work accounting and step/term/plan-shape counts.
  /// Bit-identical for a given (state, strategy, executor) at every
  /// WUW_THREADS value and every cache budget (including no cache).
  kWork = 1 << 0,
  /// Measured operator volumes (rows scanned/produced, probes, cache
  /// hits/misses).  Bit-identical at every WUW_THREADS value for a fixed
  /// cache configuration under the sequential executor; legitimately
  /// depends on the cache budget (a hit short-circuits operator work) and
  /// may vary with scheduling under stage-parallel execution.
  kEngine = 1 << 1,
  /// Scheduling shape (pool fan-out, worker tasks, fault hits): may vary
  /// with thread count and run-to-run interleaving.
  kSched = 1 << 2,
  /// Wall-time gauges (microseconds): always free to vary.
  kTime = 1 << 3,
  /// Serving-side volumes (snapshots opened, reader sessions/queries/rows).
  /// Reader traffic is asynchronous to maintenance, so these are never
  /// deterministic — and, symmetrically, reader threads must not pollute
  /// the deterministic classes: a ServeScope on the reader thread redirects
  /// every non-kServe WUW_METRIC_ADD to a no-op (see below), which is what
  /// keeps kWork|kEngine snapshots bit-identical with readers attached.
  kServe = 1 << 4,
};

/// Bitmask over MetricClass values for snapshot filtering.
using MetricMask = uint8_t;

inline constexpr MetricMask Mask(MetricClass c) {
  return static_cast<MetricMask>(c);
}
inline constexpr MetricMask operator|(MetricClass a, MetricClass b) {
  return static_cast<MetricMask>(Mask(a) | Mask(b));
}

/// The classes whose snapshot must be bit-identical between two runs of
/// the same workload under the same configuration (what WUW_METRICS dumps
/// and what CI diffs).
inline constexpr MetricMask kDeterministicMask =
    MetricClass::kWork | MetricClass::kEngine;
inline constexpr MetricMask kAllMetricsMask = 0x1F;

/// A named, monotonically-written process counter.  Obtained once via
/// GetCounter (interned by name; never destroyed) and incremented with
/// relaxed atomics — concurrent writers only ever produce commutative
/// sums, so totals are scheduling-independent.
class Counter {
 public:
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  MetricClass metric_class() const { return class_; }

 private:
  friend class RegistryAccess;
  Counter(std::string name, MetricClass c)
      : name_(std::move(name)), class_(c) {}

  std::string name_;
  MetricClass class_;
  std::atomic<int64_t> value_{0};
};

/// Returns the process-wide counter registered under `name`, creating it
/// on first use.  The class is fixed at first registration; re-registering
/// the same name with a different class aborts (contract violation).
Counter* GetCounter(const std::string& name, MetricClass c);

/// Arms / disarms counter collection.  Disarmed, every WUW_METRIC_ADD is
/// one relaxed load; values freeze at whatever they held.
void ArmMetrics();
void DisarmMetrics();
bool MetricsArmed();

/// Zeroes every registered counter (registrations survive).  Tests call
/// this between compared runs so snapshots cover exactly one run.
void ResetMetrics();

/// A comparable view of the registry: (name, value) sorted by name,
/// zero-valued counters excluded so registration order never shows.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, int64_t>> counters;

  bool operator==(const MetricsSnapshot& other) const {
    return counters == other.counters;
  }
  bool operator!=(const MetricsSnapshot& other) const {
    return !(*this == other);
  }
  /// One "name value" line per counter, aligned; stable across runs for
  /// identical snapshots (what WUW_METRICS writes).
  std::string ToString() const;
};

/// Snapshot of every non-zero counter whose class is in `classes`.
MetricsSnapshot SnapshotMetrics(MetricMask classes = kDeterministicMask);

/// If WUW_METRICS is set: arms metrics and registers an exit hook that
/// writes SnapshotMetrics(kDeterministicMask) to the named file.  Called
/// automatically at static-init time (every binary honors the knob); safe
/// to call again.
void ArmMetricsFromEnv();

namespace internal {

/// Fast disarmed gate, read relaxed by WUW_METRIC_ADD.
extern std::atomic<int> g_metrics_armed;

/// True while the current thread executes reader-session work (ServeScope
/// below); checked only on the armed path of WUW_METRIC_ADD.
extern thread_local bool g_in_serve_scope;

}  // namespace internal

/// RAII marker wrapped around reader-session bodies (parallel/read_driver):
/// inside the scope, counters of every class except kServe are dropped on
/// this thread, so concurrent readers cannot perturb the deterministic
/// kWork|kEngine snapshot the maintenance run produces.  kServe counters
/// (serve.*) keep counting — they are the reader-side telemetry.
class ServeScope {
 public:
  ServeScope() : prev_(internal::g_in_serve_scope) {
    internal::g_in_serve_scope = true;
  }
  ~ServeScope() { internal::g_in_serve_scope = prev_; }
  ServeScope(const ServeScope&) = delete;
  ServeScope& operator=(const ServeScope&) = delete;

 private:
  bool prev_;
};

}  // namespace obs
}  // namespace wuw

/// Increments the counter registered under `name` (a string literal) by
/// `delta` when metrics are armed.  The counter is resolved once per call
/// site, and only on the first armed pass — the disarmed path never takes
/// the registry lock.  Disarmed cost: one relaxed atomic load and a
/// predictable branch.
#if defined(WUW_DISABLE_OBS)
#define WUW_METRIC_ADD(name, cls, delta) ((void)0)
#else
#define WUW_METRIC_ADD(name, cls, delta)                                  \
  do {                                                                    \
    if (::wuw::obs::internal::g_metrics_armed.load(                       \
            std::memory_order_relaxed) != 0) {                            \
      /* Reader threads drop non-serve counters (class is a literal, so   \
         the comparison folds away at compile time per call site). */     \
      if ((cls) == ::wuw::obs::MetricClass::kServe ||                     \
          !::wuw::obs::internal::g_in_serve_scope) {                      \
        static ::wuw::obs::Counter* const wuw_metric_counter =            \
            ::wuw::obs::GetCounter(name, cls);                            \
        wuw_metric_counter->Add(delta);                                   \
      }                                                                   \
    }                                                                     \
  } while (0)
#endif

#endif  // WUW_OBS_METRICS_H_
