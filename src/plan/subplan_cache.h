// A bounded, instrumented memo of materialized subplan results.
//
// The cache maps plan-node fingerprints (see plan/plan_node.h — scan keys
// embed extent versions and the batch epoch, so entries self-invalidate) to
// shared, immutable Rows.  It is the mechanism behind cross-term and
// cross-expression sharing: once one maintenance term has materialized
// σ(orders) ⋈ lineitem, every other term — in the same Comp, a later
// expression of the same stage, or another strategy run against a clone of
// the same warehouse state — reuses the bytes instead of the scans.
//
// It holds only results that save work (Mistry et al.: materialize a
// shared subexpression only when reuse beats its cost):
//  - Leaf scans never enter it.  A scan is an O(1) shared handle on the
//    extent or delta, so caching one saves nothing and would charge the
//    whole operand against the budget (PlanExecutor bypasses leaves).
//  - Results of an older batch epoch are released.  Every key embeds the
//    epoch of its leaves, so once a newer epoch arrives (AdvanceEpoch) no
//    older entry can hit again; the first Comp of the new epoch drops them
//    all instead of letting them hold budget until eviction.  Dropping an
//    entry only turns a would-be hit into a miss, never changes a result.
//
// Eviction is cost-aware: under byte pressure the cache drops the entries
// that are cheapest to recompute per byte retained (est_recompute_cost /
// bytes, ascending), breaking ties by least recent use.  A zero budget
// admits nothing (handy for forcing the cache-off path through cache-on
// code); a negative budget means unbounded.
#ifndef WUW_PLAN_SUBPLAN_CACHE_H_
#define WUW_PLAN_SUBPLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/rows.h"

namespace wuw {

struct SubplanCacheOptions {
  /// Maximum resident bytes (approximate; see ApproxRowsBytes).  0 admits
  /// nothing; negative means unbounded.
  int64_t byte_budget = 256ll << 20;
};

/// Counters surfaced through ExecutionReport.  Monotone over the cache's
/// lifetime.
struct SubplanCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;
  /// Entries refused at insert (zero budget, or larger than the budget).
  int64_t rejected = 0;
  int64_t bytes_in_use = 0;
  int64_t bytes_evicted = 0;
  /// Entries dropped because a newer batch epoch made them unreachable
  /// (AdvanceEpoch), and their bytes.
  int64_t released = 0;
  int64_t bytes_released = 0;
  /// Summed est_recompute_cost of every hit — the rows the cache's
  /// consumers did NOT have to touch.  The advisor-facing benefit signal
  /// (and the "cache.cost_saved" kEngine counter: budget-dependent, so it
  /// can never be kWork).
  double cost_saved = 0;

  std::string ToString() const;
};

/// Rough resident size of a Rows batch as its tuples would occupy it,
/// read off the batch's columnar image (every cacheable plan node attaches
/// one; a row-only batch converts once, and the image stays with it).
/// Aborts on a batch with no columnar form, which no kernel emits.
int64_t ApproxRowsBytes(const Rows& rows);

/// Thread-safe fingerprint -> Rows memo with byte-budgeted, cost-aware LRU
/// eviction.  Values are shared_ptr<const Rows>: consumers may hold results
/// across evictions.
class SubplanCache {
 public:
  explicit SubplanCache(SubplanCacheOptions options = {})
      : options_(options) {}

  /// Returns the cached result for `fingerprint`, or nullptr (counted as a
  /// miss).  A hit refreshes recency.
  std::shared_ptr<const Rows> Lookup(const std::string& fingerprint);

  /// Inserts `rows` under `fingerprint`, evicting cheapest-per-byte entries
  /// until it fits.  `recompute_cost` is the estimated rows touched to
  /// rebuild the result (plan annotation); higher-cost entries survive
  /// pressure longer.  No-op if the key is already present.
  void Insert(const std::string& fingerprint, std::shared_ptr<const Rows> rows,
              double recompute_cost);

  /// Tells the cache the batch epoch of the Comp about to run.  The first
  /// call with an epoch newer than any seen before releases every entry:
  /// each was keyed at an older epoch, so none can hit again.  An equal or
  /// older epoch changes nothing, so clones of one state share entries.
  void AdvanceEpoch(int64_t epoch);

  /// Fingerprints of the resident entries, in no particular order.
  std::vector<std::string> Fingerprints() const;

  SubplanCacheStats stats() const;
  int64_t byte_budget() const { return options_.byte_budget; }

 private:
  struct Entry {
    std::shared_ptr<const Rows> rows;
    int64_t bytes = 0;
    double recompute_cost = 0;
    /// Position in lru_ (front = most recently used).
    std::list<std::string>::iterator lru_pos;
  };

  /// Evicts until at least `needed` bytes fit under the budget.  Caller
  /// holds mu_.
  void EvictFor(int64_t needed);

  SubplanCacheOptions options_;
  mutable std::mutex mu_;
  /// Newest batch epoch seen by AdvanceEpoch.
  int64_t epoch_ = 0;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;
  SubplanCacheStats stats_;
};

}  // namespace wuw

#endif  // WUW_PLAN_SUBPLAN_CACHE_H_
