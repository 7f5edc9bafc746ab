// Shared work-stealing thread pool: the single source of threads for both
// parallelism levels the executors expose.
//
// Stage-level parallelism (Executor's staged runs), term-level
// parallelism (CompEvalOptions::term_workers), and the morsel-driven
// operator kernels (algebra/) all schedule onto one pool instead of each
// spawning their own threads, so nesting them cannot oversubscribe the
// machine.  The pool is sized by the WUW_THREADS env knob (default:
// hardware_concurrency).
//
// Scheduling model: a parallel "region" (ParallelFor / ParallelTasks)
// splits its iteration space into chunks claimed from a shared atomic
// cursor — idle workers steal the next unclaimed chunk, which is what
// load-balances skewed morsels.  The calling thread always participates
// inline, and while waiting for its region it helps execute other queued
// regions, so nested regions (a stage worker running a Comp whose join
// kernels fan out morsels) can never deadlock on pool capacity.
//
// Determinism contract: the pool schedules WHERE work runs, never WHAT it
// computes.  Every kernel built on top buffers per-chunk output and merges
// it in chunk order, so results are byte-identical at every pool size
// including 1 (see the threading-model section of DESIGN.md).
#ifndef WUW_PARALLEL_THREAD_POOL_H_
#define WUW_PARALLEL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wuw {

class CancelToken;

/// Cumulative scheduling counters (process lifetime for Global()).
struct ThreadPoolStats {
  /// Regions that fanned out to pool workers.
  int64_t parallel_regions = 0;
  /// Regions run entirely on the calling thread (pool size 1, or fewer
  /// chunks than it takes to be worth fanning out).
  int64_t inline_regions = 0;
  /// Worker-loop tasks executed off the calling thread (pool workers plus
  /// helping waiters).
  int64_t pool_tasks = 0;
};

class ThreadPool {
 public:
  /// Spawns `parallelism - 1` background workers (the caller of every
  /// region is the remaining worker).  parallelism <= 1 spawns nothing and
  /// every region runs inline on the calling thread — bit-for-bit the
  /// sequential execution.
  explicit ThreadPool(int parallelism);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int parallelism() const { return parallelism_; }

  /// The process-wide pool, sized by EnvParallelism() on first use and
  /// never destroyed (safe at any exit order).
  static ThreadPool& Global();

  /// WUW_THREADS when set to a positive integer, else
  /// hardware_concurrency() (minimum 1).
  static int EnvParallelism();

  /// Runs body(begin, end) over [0, n) in chunks of `grain`, claimed by up
  /// to parallelism() workers (caller included).  Blocks until every chunk
  /// ran.  The first exception thrown by any chunk stops the remaining
  /// unclaimed chunks and is rethrown here.  A non-null `cancel` token is
  /// checked before each chunk claim (one relaxed load while disarmed —
  /// see exec/window_budget.h); a fired token cancels the region through
  /// the same first-exception path, so in-flight chunks drain cleanly
  /// before WindowCancelledError is rethrown at the barrier.
  void ParallelFor(size_t n, size_t grain,
                   const std::function<void(size_t, size_t)>& body,
                   const CancelToken* cancel = nullptr);

  /// Runs body(i) for i in [0, count) on at most `max_workers` workers
  /// (0 = no extra cap beyond parallelism()).  Same blocking / exception /
  /// cancellation contract as ParallelFor.
  void ParallelTasks(size_t count, int max_workers,
                     const std::function<void(size_t)>& body,
                     const CancelToken* cancel = nullptr);

  ThreadPoolStats stats() const;

 private:
  struct Region;

  /// Shared implementation: submits runner tasks, participates inline,
  /// helps on other queued tasks while waiting, rethrows the region's
  /// first exception.
  void RunRegion(Region* region, int max_workers);
  void WorkerLoop();

  int parallelism_;
  mutable std::mutex mu_;
  /// Signalled on task submission AND task completion: workers wait for
  /// the former, region callers for either (completion ends their wait,
  /// submission gives them something to help with).
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
  std::atomic<int64_t> parallel_regions_{0};
  std::atomic<int64_t> inline_regions_{0};
  std::atomic<int64_t> pool_tasks_{0};
};

/// Rows per claimed chunk in the morsel-driven kernel loops: small enough
/// to steal-balance skew, large enough that the claim (one fetch_add) is
/// noise.
inline constexpr size_t kMorselRows = 2048;

/// Inputs below this many rows take the sequential kernel path even on a
/// wide pool — fan-out overhead beats the win on tiny inputs, and the
/// sequential path is the reference implementation.
inline constexpr size_t kMinParallelRows = 8192;

/// The kernels' gate for taking their morsel path.
inline bool ShouldParallelize(const ThreadPool* pool, size_t rows) {
  return pool != nullptr && pool->parallelism() > 1 && rows >= kMinParallelRows;
}

}  // namespace wuw

#endif  // WUW_PARALLEL_THREAD_POOL_H_
