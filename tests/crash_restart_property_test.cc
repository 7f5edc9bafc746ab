// Process-kill restart recovery: the crash-anywhere half of the
// durability story.  For every fault point a maintenance window actually
// reaches — executor steps, durable journal appends, paged I/O, snapshot
// saves including mid-rename — a forked victim process is killed AT that
// point with a `mode=abort` plan (_exit(2), no unwinding, no destructors),
// with a FaultEnv applying power-cut semantics to the on-disk state on the
// way down (unsynced tails torn at sector granularity, uncommitted
// renames rolled back).  A fresh process then reopens the warehouse from
// nothing but the durable directory — CURRENT pointer, checkpoint
// snapshot, incremental journal — finishes the window, and must land
// bit-identically on the recompute ground truth.
//
// Three processes per kill, all forked from a parent that does NO
// warehouse work (so no thread ever exists at fork time):
//   * the count child enumerates reachable (point, hits) pairs;
//   * the victim child checkpoints, arms the abort plan, runs the window,
//     and on survival commits a second checkpoint;
//   * the verify child reads CURRENT and either trusts the committed
//     ckpt_1 or restores ckpt_0 + replays the journal tail.
// Swept across MinWork / Prune / dual-stage-parallel strategies, subplan
// cache budgets, and the tiny-budget paged tier.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/min_work.h"
#include "core/prune.h"
#include "core/strategy_space.h"
#include "exec/executor.h"
#include "exec/recovery.h"
#include "fault/fault_injection.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "io/snapshot.h"
#include "plan/subplan_cache.h"
#include "storage/paged_store.h"
#include "test_util.h"

namespace wuw {
namespace {

using fault::FaultPlan;
using fault::Trigger;

constexpr int64_t kNoCache = -2;
constexpr int64_t kTightCache = 16 << 10;

/// Forked-child exit codes (gtest assertions don't cross _exit).
constexpr int kOk = 0;
constexpr int kDiverged = 1;
constexpr int kKilled = 2;  // what a firing mode=abort trigger exits with
constexpr int kSetupError = 3;

/// Keeps each sweep's fork count sane: high-count points are
/// stride-sampled down to about this many hit indices (first and last
/// always included).
constexpr int64_t kMaxKillsPerPoint = 2;

std::vector<int64_t> SampleHits(int64_t total) {
  std::vector<int64_t> hits;
  if (total <= 0) return hits;
  int64_t stride = std::max<int64_t>(1, total / kMaxKillsPerPoint);
  for (int64_t k = 1; k <= total; k += stride) hits.push_back(k);
  if (hits.back() != total) hits.push_back(total);
  return hits;
}

struct CrashConfig {
  const char* name;
  uint64_t seed;
  int strategy;  // 0 = MinWork, 1 = Prune, 2 = dual-stage
  int64_t cache_budget = kNoCache;
  bool parallel = false;
  bool paged = false;
};

/// Everything a child rebuilds from the config seed.  Construction is
/// deterministic, so every forked process agrees on the pre-window state,
/// the strategy, and the ground truth without any cross-process plumbing.
struct Fixture {
  Vdag vdag;
  Warehouse warehouse;
  Catalog truth;
  Strategy strategy;
};

Fixture MakeFixture(const CrashConfig& cfg) {
  Vdag vdag = testutil::MakeFig10Vdag();
  Warehouse w = testutil::MakeLoadedWarehouse(vdag, 40, cfg.seed);
  testutil::ApplyTripleChanges(&w, 0.25, 8, cfg.seed + 4);
  Catalog truth = testutil::GroundTruthAfterChanges(w);
  SizeMap sizes = w.EstimatedSizes();
  Strategy s;
  switch (cfg.strategy) {
    case 0:
      s = MinWork(vdag, sizes).strategy;
      break;
    case 1:
      s = Prune(vdag, sizes).strategy;
      break;
    default:
      s = MakeDualStageVdagStrategy(vdag);
      break;
  }
  return Fixture{std::move(vdag), std::move(w), std::move(truth),
                 std::move(s)};
}

std::unique_ptr<SubplanCache> MakeCache(int64_t budget) {
  if (budget == kNoCache) return nullptr;
  return std::make_unique<SubplanCache>(SubplanCacheOptions{budget});
}

paged::PagedOptions TinyPagedOptions(const std::string& dir) {
  paged::PagedOptions options;
  options.budget_bytes = 1;  // evict everything evictable at every touch
  options.page_bytes = 512;
  options.partitions = 4;
  options.spill_bytes = 64;
  options.pool_bytes = 1024;
  options.dir = dir + "/paged";
  return options;
}

void ArmPaging(const CrashConfig& cfg, const std::string& dir, Warehouse* w) {
  if (!cfg.paged) return;
  paged::PagedOptions options = TinyPagedOptions(dir);
  io::Env::Default()->CreateDir(options.dir);
  w->EnablePaging(options);
}

/// Runs the window on `fx.warehouse` exactly as the victim does.  Returns
/// "" on success.
std::string RunWindow(const CrashConfig& cfg, const std::string& dir,
                      Fixture* fx, SubplanCache* cache) {
  std::optional<paged::ScopedOperatorSpill> spill;
  if (cfg.paged) spill.emplace(TinyPagedOptions(dir));
  if (cfg.parallel) {
    ParallelStrategy staged = ParallelizeStrategy(fx->vdag, fx->strategy);
    ExecutorOptions options;
    options.workers = 3;
    options.term_workers = 2;
    options.journal = true;
    options.subplan_cache = cache;
    Executor(&fx->warehouse, options).Execute(staged);
  } else {
    ExecutorOptions options;
    options.journal = true;
    options.subplan_cache = cache;
    Executor(&fx->warehouse, options).Execute(fx->strategy);
  }
  return "";
}

int Fail(const char* role, const std::string& why) {
  std::fprintf(stderr, "crash_restart %s: %s\n", role, why.c_str());
  return kSetupError;
}

/// Checkpoints the pre-window state and commits the CURRENT pointer —
/// the durable foundation every kill must be recoverable from.  Runs
/// unarmed and through the real env in every child.
std::string WriteBaseCheckpoint(const Fixture& fx, const std::string& dir) {
  io::Env* env = io::Env::Default();
  std::string error;
  if (!SaveWarehouse(fx.warehouse, dir + "/ckpt_0", &error)) return error;
  if (!io::AtomicWriteFile(env, dir + "/CURRENT", "ckpt_0", &error)) {
    return error;
  }
  return "";
}

/// Count child: enumerates the (point, hits) pairs the armed span of the
/// victim actually reaches, and writes them to `counts_path` as
/// "<point> <total>" lines.
int RunCount(const CrashConfig& cfg, const std::string& dir,
             const std::string& counts_path) {
  Fixture fx = MakeFixture(cfg);
  std::string error = WriteBaseCheckpoint(fx, dir);
  if (!error.empty()) return Fail("count", error);
  error = fx.warehouse.journal().AttachDurable(nullptr, dir + "/journal.wuw");
  if (!error.empty()) return Fail("count", error);
  ArmPaging(cfg, dir, &fx.warehouse);
  auto cache = MakeCache(cfg.cache_budget);

  FaultPlan count;
  count.count_only = true;
  fault::Arm(count);
  error = RunWindow(cfg, dir, &fx, cache.get());
  if (!error.empty()) return Fail("count", error);
  if (!SaveWarehouse(fx.warehouse, dir + "/ckpt_1", &error)) {
    return Fail("count", error);
  }
  if (!io::AtomicWriteFile(io::GetEnv(), dir + "/CURRENT", "ckpt_1",
                           &error)) {
    return Fail("count", error);
  }
  // Capture BEFORE the convergence check: with paging armed, ContentsEqual
  // faults hibernated extents back in, and those hits are not part of the
  // span the victim arms.
  std::vector<std::pair<std::string, int64_t>> counts = fault::HitCounts();
  fault::Disarm();
  if (!fx.warehouse.catalog().ContentsEqual(fx.truth)) {
    return Fail("count", "count pass diverged from ground truth");
  }
  std::ostringstream out;
  for (const auto& [point, total] : counts) {
    out << point << " " << total << "\n";
  }
  if (!io::AtomicWriteFile(io::Env::Default(), counts_path, out.str(),
                           &error)) {
    return Fail("count", error);
  }
  return kOk;
}

/// Victim child: checkpoints, installs the FaultEnv, arms the abort plan,
/// runs the window.  Killed at the trigger → _exit(kKilled) with power-cut
/// disk state; survival commits ckpt_1 + CURRENT (still armed — a kill
/// during the checkpoint save or the CURRENT rename is part of the sweep).
int RunVictim(const CrashConfig& cfg, const std::string& dir,
              const std::string& point, int64_t hit) {
  Fixture fx = MakeFixture(cfg);
  std::string error = WriteBaseCheckpoint(fx, dir);
  if (!error.empty()) return Fail("victim", error);

  // Leaked: the abort hook must stay valid until _exit.
  io::IoFaultOptions fault_options;  // pure crash simulation, no injection
  auto* fenv = new io::FaultEnv(fault_options, io::Env::Default());
  io::SetEnv(fenv);

  error = fx.warehouse.journal().AttachDurable(nullptr, dir + "/journal.wuw");
  if (!error.empty()) return Fail("victim", error);
  ArmPaging(cfg, dir, &fx.warehouse);
  auto cache = MakeCache(cfg.cache_budget);

  FaultPlan plan;
  plan.triggers.push_back(Trigger{point, hit, 1.0});
  plan.abort_mode = true;
  fault::Arm(plan);
  error = RunWindow(cfg, dir, &fx, cache.get());
  if (!error.empty()) return Fail("victim", error);
  if (!SaveWarehouse(fx.warehouse, dir + "/ckpt_1", &error)) {
    return Fail("victim", error);
  }
  if (!io::AtomicWriteFile(io::GetEnv(), dir + "/CURRENT", "ckpt_1",
                           &error)) {
    return Fail("victim", error);
  }
  fault::Disarm();
  return kOk;
}

/// Verify child: a fresh process with nothing but the durable directory.
/// CURRENT names the newest committed checkpoint; ckpt_1 is post-window
/// (direct check), ckpt_0 is pre-window (journal replay, or a fresh run
/// when the kill predates any usable journal).
int RunVerify(const CrashConfig& cfg, const std::string& dir) {
  Fixture fx = MakeFixture(cfg);
  io::Env* env = io::Env::Default();
  std::string current;
  std::string error = env->ReadFileToString(dir + "/CURRENT", &current);
  if (!error.empty()) return Fail("verify", "CURRENT unreadable: " + error);
  if (current != "ckpt_0" && current != "ckpt_1") {
    return Fail("verify", "CURRENT names neither checkpoint: " + current);
  }
  Warehouse restored(Vdag{});
  if (!LoadWarehouse(dir + "/" + current, &restored, &error)) {
    return Fail("verify", current + " unloadable: " + error);
  }
  if (current == "ckpt_1") {
    // The post-window checkpoint committed before the kill (or the victim
    // survived): it must already be the ground truth.
    return restored.catalog().ContentsEqual(fx.truth) ? kOk : kDiverged;
  }
  // Pre-window restore: replay whatever prefix of the journal survived,
  // execute the missing steps.  LoadJournal's torn-tail rule absorbs a cut
  // mid-append; a kill before the fsynced header committed (or before
  // Begin ever ran) leaves no usable journal and the window re-runs whole.
  bool replayed = false;
  if (env->FileExists(dir + "/journal.wuw")) {
    StrategyJournal journal;
    if (LoadJournal(dir + "/journal.wuw", &journal, &error) &&
        journal.begun()) {
      ExecutionReport report = ResumeStrategy(journal, &restored);
      if (report.window_result != WindowResult::kCompleted) {
        return Fail("verify", "resume did not complete");
      }
      replayed = true;
    }
  }
  if (!replayed) {
    ExecutorOptions options;
    Executor(&restored, options).Execute(fx.strategy);
  }
  return restored.catalog().ContentsEqual(fx.truth) ? kOk : kDiverged;
}

/// Forks `child` and returns its exit code (-1 on abnormal death).  The
/// parent NEVER runs warehouse code, so no thread exists at fork time and
/// the children are free to spin up executor/kernel pools.
int InChild(const std::function<int()>& child) {
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t pid = fork();
  if (pid < 0) return -1;
  if (pid == 0) _exit(child());
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string FreshDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "wuw_crash_" +
                    std::to_string(::getpid()) + "_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<std::pair<std::string, int64_t>> LoadCounts(
    const std::string& path) {
  std::vector<std::pair<std::string, int64_t>> counts;
  std::string contents;
  if (!io::Env::Default()->ReadFileToString(path, &contents).empty()) {
    return counts;
  }
  std::istringstream in(contents);
  std::string point;
  int64_t total = 0;
  while (in >> point >> total) counts.emplace_back(point, total);
  return counts;
}

void RunCrashSweep(const CrashConfig& cfg) {
  SCOPED_TRACE(cfg.name);
  const uint64_t seed = testutil::PropertySeed(cfg.seed);
  CrashConfig seeded = cfg;
  seeded.seed = seed;
  SCOPED_TRACE(testutil::SeedTrace(seed));

  const std::string count_dir = FreshDir(std::string(cfg.name) + "_count");
  const std::string counts_path = count_dir + "/counts.txt";
  ASSERT_EQ(InChild([&] { return RunCount(seeded, count_dir, counts_path); }),
            kOk);
  std::vector<std::pair<std::string, int64_t>> counts =
      LoadCounts(counts_path);
  ASSERT_FALSE(counts.empty()) << "no fault points reached?";
  std::filesystem::remove_all(count_dir);

  int kill_index = 0;
  for (const auto& [point, total] : counts) {
    for (int64_t k : SampleHits(total)) {
      SCOPED_TRACE(point + " hit " + std::to_string(k));
      const std::string dir =
          FreshDir(std::string(cfg.name) + "_" + std::to_string(kill_index++));
      int victim = InChild(
          [&, p = point] { return RunVictim(seeded, dir, p, k); });
      if (seeded.parallel) {
        // Worker scheduling can shift per-point hit totals between runs: a
        // non-firing trigger means the victim completed and committed.
        ASSERT_TRUE(victim == kKilled || victim == kOk)
            << "victim exit " << victim;
      } else {
        // Sequential execution is deterministic: the count pass proved hit
        // k exists inside the armed span, so the abort must fire.
        ASSERT_EQ(victim, kKilled);
      }
      ASSERT_EQ(InChild([&] { return RunVerify(seeded, dir); }), kOk);
      std::filesystem::remove_all(dir);
    }
  }
}

TEST(CrashRestartPropertyTest, MinWorkSequentialKillRestartConverges) {
  RunCrashSweep(CrashConfig{"minwork_seq", 211, /*strategy=*/0});
}

TEST(CrashRestartPropertyTest, PruneTightCacheKillRestartConverges) {
  RunCrashSweep(
      CrashConfig{"prune_cache", 223, /*strategy=*/1, kTightCache});
}

TEST(CrashRestartPropertyTest, DualStageParallelKillRestartConverges) {
  RunCrashSweep(CrashConfig{"dual_parallel", 227, /*strategy=*/2, kNoCache,
                            /*parallel=*/true});
}

TEST(CrashRestartPropertyTest, PagedTierKillRestartConverges) {
  RunCrashSweep(CrashConfig{"minwork_paged", 229, /*strategy=*/0, kNoCache,
                            /*parallel=*/false, /*paged=*/true});
}

}  // namespace
}  // namespace wuw
