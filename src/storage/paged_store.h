// Beyond-RAM extents: the WUW_MEM_MB paging layer over the Catalog.
//
// A PagedStore keeps the warehouse's *resident set* of extents under a
// byte budget.  Extents that fall out of the working set hibernate to
// CRC-framed page images of their columnar form (storage/page.h,
// temp+rename durability); touching a hibernated extent faults it back in
// transparently through the Catalog accessor hooks (Catalog::SetPager).
// Fault-in restores the columnar image, in the hibernated dense-row order,
// plus the row index over it that the restore's duplicate check fills —
// the table's one form (storage/table.h), so scans and installs go on as
// if it had never left.  Rows, row order, OperatorStats, and every kWork
// counter are bit-identical to the always-resident engine at ANY budget
// (paged_differential_property_test proves it).
//
// Determinism model (mirrors the threading model, DESIGN.md):
//   * Eviction decisions happen only at executor touch points — one per
//     stage, on the coordinating thread before fan-out (a sequential
//     strategy's stages are single steps) — never from worker threads
//     (workers touch with evict=false: fault-in only).  LRU state is a
//     pure function of the strategy, so `paged.faults`/`paged.evictions`
//     are identical at every WUW_THREADS value.
//   * Snapshot interaction: a published (pinned) extent slot has
//     use_count > 1 and is never hibernated — pinned read snapshots keep
//     their pages resident by construction.  The first write after a
//     publish COW-detaches to a fresh slot (use_count 1), which pages
//     normally.
//   * Hibernate order: write image, then release the payload — a kill at
//     `paged.io.write` leaves the extent resident and intact.  Fault-in
//     decodes the whole image before mutating the table, restores the
//     exact mutation_count, and never bumps extent_version (contents are
//     unchanged, so subplan-cache scan keys stay valid exactly as in a
//     resident run).  A corrupt, torn or other-version image raises
//     std::runtime_error — an I/O failure, not an abort.
//   * Sizes: eviction charges ApproxTableBytes, read off the image a
//     column at a time.
//   * All page I/O rides the io::Env seam (storage/page.h): image saves
//     get the full fsync+rename+dirsync discipline, transient read EIO
//     (WUW_IO_FAULT read_eio=) is absorbed by PageFile's bounded retry
//     (kEngine `io.retries`), and the crash harness
//     (crash_restart_property_test) kills processes mid-hibernate /
//     mid-fault-in and reopens from the image directory.
//
// Unset WUW_MEM_MB = zero behavior change: the catalog hook is a null
// pointer check and the kernels' spill gate is one relaxed atomic load
// (bench/micro_paged keeps this honest).
#ifndef WUW_STORAGE_PAGED_STORE_H_
#define WUW_STORAGE_PAGED_STORE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/catalog.h"
#include "storage/page.h"

namespace wuw {
namespace paged {

/// Configuration of the paged tier (extent paging + operator spills).
struct PagedOptions {
  /// Extent residency budget in bytes (required, > 0).  Extents beyond it
  /// hibernate to page images, least-recently-touched first.
  int64_t budget_bytes = 0;
  /// On-disk page size for images and spill files.
  size_t page_bytes = 64 << 10;
  /// Grace-spill fan-out (power of two in [1, 256]).
  size_t partitions = 8;
  /// Input size (analytic bytes) above which the join/aggregation kernels
  /// build no resident hash table over it: a join whose build side is
  /// larger hashes its probe side instead when that fits, and
  /// grace-partitions through a spill only when both sides are larger;
  /// 0 derives budget/4.
  int64_t spill_bytes = 0;
  /// Byte budget of each operator's private BufferPool; 0 derives
  /// max(4 pages, budget/4).
  int64_t pool_bytes = 0;
  /// Spill directory; "" = the system temp directory.
  std::string dir;
};

/// Operator spill threshold with the budget/4 default applied.
int64_t ResolvedSpillBytes(const PagedOptions& options);
/// Operator pool budget with the max(4 pages, budget/4) default applied.
int64_t ResolvedPoolBytes(const PagedOptions& options);

/// Parses a WUW_MEM_MB spec.  Grammar (';'-separated clauses):
///   <N>               shorthand for mb=<N>
///   mb=<N>            extent residency budget, mebibytes
///   bytes=<N>         ... in bytes (test granularity)
///   page_bytes=<N>    on-disk page size (default 64 KiB)
///   partitions=<N>    grace-spill fan-out, power of two (default 8)
///   spill_bytes=<N>   operator spill threshold (default budget/4)
///   pool_bytes=<N>    per-operator pool budget (default derived)
///   dir=<path>        spill directory (default system temp)
/// Example: "512" or "bytes=65536;page_bytes=4096".  Returns "" on
/// success, else a description of the error (user-facing input path: no
/// aborts).
std::string ParsePagedSpec(const std::string& spec, PagedOptions* out);

/// The process-wide WUW_MEM_MB options: parsed once on first use.
/// Returns nullptr when the knob is unset; a malformed spec warns once on
/// stderr and reads as unset.
const PagedOptions* EnvPaged();

/// The kernels' spill gate: non-null iff operator spills are armed
/// (WUW_MEM_MB, or a ScopedOperatorSpill in-process).  One relaxed atomic
/// load — the fault-point discipline.
const PagedOptions* OperatorSpill();

/// RAII in-process arming of the operator spill paths (tests/benches).
/// Not thread-safe against concurrent arming — arm before spawning work.
class ScopedOperatorSpill {
 public:
  explicit ScopedOperatorSpill(const PagedOptions& options);
  ~ScopedOperatorSpill();

  ScopedOperatorSpill(const ScopedOperatorSpill&) = delete;
  ScopedOperatorSpill& operator=(const ScopedOperatorSpill&) = delete;

 private:
  PagedOptions options_;
  const PagedOptions* prev_;
};

/// The extent pager.  Owned by a Warehouse (Warehouse::EnablePaging) and
/// attached to its Catalog; thread-safe (the accessor hook is called from
/// worker threads).
class PagedStore {
 public:
  explicit PagedStore(PagedOptions options);
  /// Removes the image directory.  Never throws.
  ~PagedStore();

  PagedStore(const PagedStore&) = delete;
  PagedStore& operator=(const PagedStore&) = delete;

  const PagedOptions& options() const { return options_; }
  const std::string& dir() const { return dir_; }

  /// Tracks `name` (idempotent).  Registration order breaks LRU ties, so
  /// callers register in a deterministic order (catalog creation order).
  void Register(const std::string& name);

  /// Catalog accessor hook: faults `table` back in if hibernated and
  /// stamps its last-used clock.  Unregistered names auto-register (the
  /// deterministic safety net for extents created mid-run).
  void OnAccess(const std::string& name, Table* table);

  /// Executor touch point: faults `names` in through the catalog hooks,
  /// then (when `evict`) advances the LRU clock and hibernates
  /// least-recently-used unpinned extents until the resident set fits the
  /// budget.  Extents named here, hibernated entries, and published slots
  /// (use_count > 1) are never victims.
  void Touch(const std::vector<std::string>& names, Catalog* catalog,
             bool evict);

  /// Test/bench hook: hibernates every evictable extent regardless of
  /// budget (pinned and just-touched extents stay).
  void TestOnlyEvictAll(Catalog* catalog);

  bool IsHibernated(const std::string& name) const;
  int64_t faults() const { return faults_.load(std::memory_order_relaxed); }
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Analytic bytes of the resident tracked set (as of the last touch).
  int64_t resident_bytes() const;

 private:
  struct Entry {
    int64_t reg_order = 0;
    uint64_t last_used = 0;
    bool hibernated = false;
    bool has_image = false;
    /// Table::mutation_count when the image was written; a differing live
    /// count means the image is stale and must be rewritten on hibernate.
    int64_t image_mutations = -1;
    /// Cached ApproxTableBytes keyed by mutation count.
    int64_t approx_bytes = 0;
    int64_t bytes_mutations = -1;
    std::string path;
  };

  /// Both require mu_ held.
  void RegisterLocked(const std::string& name);
  void FaultInLocked(const std::string& name, Entry* entry, Table* table);
  void HibernateLocked(const std::string& name, Entry* entry, Table* table);
  void EvictLocked(Catalog* catalog, bool ignore_budget);

  mutable std::mutex mu_;
  PagedOptions options_;
  std::string dir_;
  /// LRU clock: advanced by evicting touches only, so worker fault-ins
  /// never perturb eviction order.
  uint64_t seq_ = 1;
  std::unordered_map<std::string, Entry> entries_;
  std::vector<std::string> order_;
  std::atomic<int64_t> faults_{0};
  std::atomic<int64_t> evictions_{0};
};

}  // namespace paged
}  // namespace wuw

#endif  // WUW_STORAGE_PAGED_STORE_H_
