// Multi-session synthetic read workload — the serving side of
// zero-downtime reads (storage/read_snapshot.h).
//
// Three entry points, all built on snapshot handles and the shared
// work-stealing pool:
//
//   RunReadSessions   — runs N reader sessions to completion on the pool
//                       (each opens a snapshot, checks read stability,
//                       optionally executes ad-hoc SQL) and reports
//                       violations.  The bench/throughput primitive.
//   ReadDriver        — runs RunReadSessions batches on a background
//                       thread until Stop(), so tests race thousands of
//                       readers against a live MaintenancePolicy.
//   ReaderProbeScope  — the WUW_READERS tier-1 hook: the executor loop
//                       wraps every strategy run in one, attaching
//                       EnvReaders() probe threads that continuously verify
//                       snapshot stability while the strategy installs
//                       deltas.
//                       Unset knob = no threads, no work, no allocation.
//
// Every session body runs under obs::ServeScope, so reader-side work never
// perturbs the deterministic kWork|kEngine counter snapshot; reader
// telemetry lands in the kServe class (serve.*).
#ifndef WUW_PARALLEL_READ_DRIVER_H_
#define WUW_PARALLEL_READ_DRIVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/warehouse.h"
#include "storage/read_snapshot.h"

namespace wuw {

class ThreadPool;

/// Shape of one synthetic read workload.
struct ReadSessionOptions {
  /// Reader sessions to run (each is one pool task; thousands are fine —
  /// the pool caps concurrency at its parallelism).
  int sessions = 256;
  /// Ad-hoc SELECTs cycled across sessions; empty = fingerprint scans only.
  std::vector<std::string> queries;
  /// Stability probes per session: the pinned snapshot is fingerprinted
  /// this many times and every repeat must match the first (>= 2 to detect
  /// torn reads).
  int scans_per_session = 2;
  /// Rows per table folded into each fingerprint (caps session cost).
  size_t fingerprint_rows = 256;
  /// Pool to schedule on; null = ThreadPool::Global().
  ThreadPool* pool = nullptr;
};

/// Outcome of a read workload.  ok() is the invariant the concurrency
/// battery asserts: no torn read, no time travel, no failed query.
struct ReadSessionReport {
  int64_t sessions = 0;
  int64_t queries = 0;
  int64_t rows_read = 0;
  /// Fingerprint changed between two scans of one pinned snapshot.
  int64_t torn_reads = 0;
  /// A later-opened snapshot carried a smaller commit_seq (readers must
  /// never travel backwards in time).
  int64_t epoch_regressions = 0;
  int64_t query_errors = 0;
  /// Commit-seq range observed across all sessions.
  int64_t min_commit_seq = 0;
  int64_t max_commit_seq = 0;
  double seconds = 0;

  bool ok() const {
    return torn_reads == 0 && epoch_regressions == 0 && query_errors == 0;
  }
  ReadSessionReport& operator+=(const ReadSessionReport& other);
};

/// Runs `options.sessions` reader sessions to completion on the pool and
/// returns the aggregate report.  Safe concurrent with maintenance when
/// the warehouse has snapshot reads armed; on a disarmed warehouse it is
/// the quiesced baseline (live catalog, no maintenance may run).
ReadSessionReport RunReadSessions(const Warehouse& warehouse,
                                  const ReadSessionOptions& options);

/// Digest of a snapshot's visible contents: cardinalities and the first
/// `max_rows_per_table` rows of each table's image, in dense order.  Two
/// fingerprints of one pinned snapshot must always match — the torn-read
/// detector.
uint64_t SnapshotFingerprint(const ReadSnapshot& snapshot,
                             size_t max_rows_per_table);

/// Runs read-session batches on a background thread until Stop(), for
/// racing readers against a live maintenance loop.  The warehouse must
/// outlive the driver and have snapshot reads armed.
class ReadDriver {
 public:
  ReadDriver();
  ~ReadDriver();  // stops and joins if still running
  ReadDriver(const ReadDriver&) = delete;
  ReadDriver& operator=(const ReadDriver&) = delete;

  void Start(const Warehouse& warehouse, ReadSessionOptions options);
  /// Stops, joins, and returns the accumulated report.  The report always
  /// covers at least one complete session batch: the first batch ignores
  /// the stop flag, so even an immediate Stop() measures real sessions.
  ReadSessionReport Stop();
  bool running() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// RAII probe the executor loop attaches around every strategy run: when
/// WUW_READERS=N is set (and the warehouse is armed), N plain threads loop
/// {open snapshot, fingerprint twice, compare, check commit_seq monotone}
/// until the run finishes; the destructor joins them and aborts on any
/// violation.  Disarmed (unset knob, nested run, disarmed warehouse) the
/// scope is empty — one integer compare, no threads.
class ReaderProbeScope {
 public:
  explicit ReaderProbeScope(const Warehouse* warehouse);
  ~ReaderProbeScope();
  ReaderProbeScope(const ReaderProbeScope&) = delete;
  ReaderProbeScope& operator=(const ReaderProbeScope&) = delete;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace wuw

#endif  // WUW_PARALLEL_READ_DRIVER_H_
