#include "parallel/read_driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

#include "common/check.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "query/ad_hoc.h"
#include "storage/column_table.h"

namespace wuw {

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Shared mutable tallies for one workload run; every field is commutative
/// so totals are scheduling-independent.
struct SessionTallies {
  std::atomic<int64_t> sessions{0};
  std::atomic<int64_t> queries{0};
  std::atomic<int64_t> rows_read{0};
  std::atomic<int64_t> torn_reads{0};
  std::atomic<int64_t> epoch_regressions{0};
  std::atomic<int64_t> query_errors{0};
  std::atomic<int64_t> min_seq{INT64_MAX};
  std::atomic<int64_t> max_seq{INT64_MIN};

  void NoteSeq(int64_t seq) {
    int64_t cur = min_seq.load(std::memory_order_relaxed);
    while (seq < cur &&
           !min_seq.compare_exchange_weak(cur, seq,
                                          std::memory_order_relaxed)) {
    }
    cur = max_seq.load(std::memory_order_relaxed);
    while (seq > cur &&
           !max_seq.compare_exchange_weak(cur, seq,
                                          std::memory_order_relaxed)) {
    }
  }
};

/// One reader session: pin a snapshot, prove it holds still under repeated
/// scans, answer this session's queries from it, and verify a re-opened
/// snapshot never went backwards in commit time.
void RunOneSession(const Warehouse& warehouse,
                   const ReadSessionOptions& options, size_t session_index,
                   SessionTallies* tallies) {
  obs::ServeScope serve;  // reader work must not touch kWork/kEngine
  WUW_METRIC_ADD("serve.sessions", obs::MetricClass::kServe, 1);
  ReadSnapshot snapshot = warehouse.OpenSnapshot();
  tallies->NoteSeq(snapshot.commit_seq());

  const uint64_t first =
      SnapshotFingerprint(snapshot, options.fingerprint_rows);
  for (int scan = 1; scan < options.scans_per_session; ++scan) {
    if (SnapshotFingerprint(snapshot, options.fingerprint_rows) != first) {
      tallies->torn_reads.fetch_add(1, std::memory_order_relaxed);
    }
  }

  if (!options.queries.empty()) {
    const std::string& sql =
        options.queries[session_index % options.queries.size()];
    QueryResult result = ExecuteQuery(snapshot, sql);
    tallies->queries.fetch_add(1, std::memory_order_relaxed);
    WUW_METRIC_ADD("serve.queries", obs::MetricClass::kServe, 1);
    if (!result.ok()) {
      tallies->query_errors.fetch_add(1, std::memory_order_relaxed);
    } else {
      int64_t rows = static_cast<int64_t>(result.rows.rows.size());
      tallies->rows_read.fetch_add(rows, std::memory_order_relaxed);
      WUW_METRIC_ADD("serve.rows_read", obs::MetricClass::kServe, rows);
    }
    // The pinned snapshot must be unmoved by everything the query did.
    if (SnapshotFingerprint(snapshot, options.fingerprint_rows) != first) {
      tallies->torn_reads.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // A fresh handle may see a newer commit, never an older one.
  ReadSnapshot reopened = warehouse.OpenSnapshot();
  if (reopened.commit_seq() < snapshot.commit_seq()) {
    tallies->epoch_regressions.fetch_add(1, std::memory_order_relaxed);
  }
  tallies->sessions.fetch_add(1, std::memory_order_relaxed);
}

ReadSessionReport RunReadSessionsImpl(const Warehouse& warehouse,
                                      const ReadSessionOptions& options,
                                      const std::atomic<bool>* stop) {
  WUW_CHECK(options.sessions >= 0, "negative session count");
  WUW_CHECK(options.scans_per_session >= 1, "need at least one scan");
  ThreadPool* pool =
      options.pool != nullptr ? options.pool : &ThreadPool::Global();
  SessionTallies tallies;
  double start = Now();
  pool->ParallelTasks(
      static_cast<size_t>(options.sessions), /*max_workers=*/0,
      [&](size_t i) {
        if (stop != nullptr && stop->load(std::memory_order_relaxed)) return;
        RunOneSession(warehouse, options, i, &tallies);
      });
  ReadSessionReport report;
  report.sessions = tallies.sessions.load();
  report.queries = tallies.queries.load();
  report.rows_read = tallies.rows_read.load();
  report.torn_reads = tallies.torn_reads.load();
  report.epoch_regressions = tallies.epoch_regressions.load();
  report.query_errors = tallies.query_errors.load();
  int64_t min_seq = tallies.min_seq.load();
  int64_t max_seq = tallies.max_seq.load();
  report.min_commit_seq = min_seq == INT64_MAX ? 0 : min_seq;
  report.max_commit_seq = max_seq == INT64_MIN ? 0 : max_seq;
  report.seconds = Now() - start;
  return report;
}

}  // namespace

ReadSessionReport& ReadSessionReport::operator+=(
    const ReadSessionReport& other) {
  // An empty report (no sessions) is the identity; otherwise widen the
  // commit-seq range.
  if (other.sessions == 0 && other.queries == 0) {
    seconds += other.seconds;
    return *this;
  }
  if (sessions == 0 && queries == 0) {
    double kept = seconds;
    *this = other;
    seconds += kept;
    return *this;
  }
  sessions += other.sessions;
  queries += other.queries;
  rows_read += other.rows_read;
  torn_reads += other.torn_reads;
  epoch_regressions += other.epoch_regressions;
  query_errors += other.query_errors;
  min_commit_seq = std::min(min_commit_seq, other.min_commit_seq);
  max_commit_seq = std::max(max_commit_seq, other.max_commit_seq);
  seconds += other.seconds;
  return *this;
}

ReadSessionReport RunReadSessions(const Warehouse& warehouse,
                                  const ReadSessionOptions& options) {
  return RunReadSessionsImpl(warehouse, options, /*stop=*/nullptr);
}

uint64_t SnapshotFingerprint(const ReadSnapshot& snapshot,
                             size_t max_rows_per_table) {
  // FNV-1a over per-table digests; order-sensitive within the dense-row
  // prefix, which is exactly what "the pinned rows did not move" needs.
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const std::string& name : snapshot.table_names()) {
    const Table* table = snapshot.table(name);
    mix(std::hash<std::string>{}(name));
    mix(static_cast<uint64_t>(table->cardinality()));
    mix(static_cast<uint64_t>(table->distinct_size()));
    std::shared_ptr<const ColumnTable> image = table->ColumnarSnapshot();
    const size_t n = std::min(image->num_rows(), max_rows_per_table);
    for (size_t i = 0; i < n; ++i) {
      mix(image->RowHash(i));
      mix(static_cast<uint64_t>(image->mult()[i]));
    }
  }
  return h;
}

struct ReadDriver::Impl {
  std::thread thread;
  std::atomic<bool> stop{false};
  ReadSessionReport report;  // written by thread, read after join
};

ReadDriver::ReadDriver() = default;

ReadDriver::~ReadDriver() {
  if (running()) Stop();
}

void ReadDriver::Start(const Warehouse& warehouse,
                       ReadSessionOptions options) {
  WUW_CHECK(impl_ == nullptr, "ReadDriver already started");
  impl_ = std::make_unique<Impl>();
  Impl* impl = impl_.get();
  impl->thread = std::thread([&warehouse, options, impl] {
    // The first batch ignores the stop flag so a Start/Stop pair always
    // measures at least one complete session batch, however short the
    // maintenance window between them.
    impl->report += RunReadSessionsImpl(warehouse, options, /*stop=*/nullptr);
    while (!impl->stop.load(std::memory_order_relaxed)) {
      impl->report +=
          RunReadSessionsImpl(warehouse, options, &impl->stop);
    }
  });
}

ReadSessionReport ReadDriver::Stop() {
  WUW_CHECK(impl_ != nullptr, "ReadDriver not started");
  impl_->stop.store(true, std::memory_order_relaxed);
  impl_->thread.join();
  ReadSessionReport report = impl_->report;
  impl_.reset();
  return report;
}

bool ReadDriver::running() const { return impl_ != nullptr; }

namespace {

/// Depth guard: only the outermost strategy run spawns probes (OracleSizes
/// runs a nested Execute on a clone; probing it would probe recursively).
thread_local int g_probe_depth = 0;

}  // namespace

struct ReaderProbeScope::Impl {
  std::vector<std::thread> threads;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> violations{0};
  std::atomic<int64_t> probes{0};
};

ReaderProbeScope::ReaderProbeScope(const Warehouse* warehouse) {
  const int readers = EnvReaders();
  if (readers <= 0 || warehouse == nullptr ||
      !warehouse->snapshot_reads_armed() || g_probe_depth > 0) {
    ++g_probe_depth;
    return;
  }
  ++g_probe_depth;
  impl_ = std::make_unique<Impl>();
  Impl* impl = impl_.get();
  impl->threads.reserve(static_cast<size_t>(readers));
  for (int i = 0; i < readers; ++i) {
    impl->threads.emplace_back([warehouse, impl] {
      obs::ServeScope serve;
      int64_t last_seq = -1;
      while (!impl->stop.load(std::memory_order_relaxed)) {
        ReadSnapshot snapshot = warehouse->OpenSnapshot();
        if (snapshot.commit_seq() < last_seq) {
          impl->violations.fetch_add(1, std::memory_order_relaxed);
        }
        last_seq = snapshot.commit_seq();
        const uint64_t a = SnapshotFingerprint(snapshot, /*max rows=*/64);
        const uint64_t b = SnapshotFingerprint(snapshot, /*max rows=*/64);
        if (a != b) {
          impl->violations.fetch_add(1, std::memory_order_relaxed);
        }
        impl->probes.fetch_add(1, std::memory_order_relaxed);
        // Keep probes continuous but cheap — the strategy under test owns
        // the machine; probes only need to overlap every install window.
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  }
}

ReaderProbeScope::~ReaderProbeScope() {
  --g_probe_depth;
  if (impl_ == nullptr) return;
  impl_->stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : impl_->threads) t.join();
  WUW_METRIC_ADD("serve.probe_snapshots", obs::MetricClass::kServe,
                 impl_->probes.load());
  WUW_CHECK(impl_->violations.load() == 0,
            "reader probe observed a torn or time-travelling snapshot");
}

}  // namespace wuw
