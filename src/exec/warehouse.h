// The warehouse runtime: a VDAG, its materialized extents, and the pending
// update batch.
//
// Lifecycle per update window:
//   1. SetBaseDelta(...) for each changed base view (changes "arrive").
//   2. Pick a strategy (MinWork / Prune / hand-written), usually from
//      EstimatedSizes() or OracleSizes().
//   3. Executor(&warehouse).Execute(strategy) runs it and clears the batch.
#ifndef WUW_EXEC_WAREHOUSE_H_
#define WUW_EXEC_WAREHOUSE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/expression.h"
#include "core/size_estimator.h"
#include "core/work_metric.h"
#include "delta/delta_relation.h"
#include "exec/journal.h"
#include "graph/vdag.h"
#include "plan/aux_view.h"
#include "storage/catalog.h"
#include "storage/paged_store.h"
#include "storage/read_snapshot.h"
#include "view/maintenance.h"

namespace wuw {

/// A fully materialized warehouse instance.
class Warehouse {
 public:
  explicit Warehouse(Vdag vdag);
  ~Warehouse();

  Warehouse(Warehouse&&) noexcept;
  Warehouse& operator=(Warehouse&&) noexcept;

  const Vdag& vdag() const { return vdag_; }
  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  /// Direct access to a base view's extent for initial loading.
  Table* base_table(const std::string& name);

  /// Arms epoch-versioned snapshot reads on this warehouse and publishes
  /// the current state as the first committed snapshot.  Armed, every
  /// commit point (ResetBatch at strategy completion, RecomputeDerived)
  /// publishes atomically, and mutators copy-on-write-detach published
  /// extents first.  Idempotent; also driven by the WUW_READERS env knob
  /// at construction.  Must be called before concurrent readers attach
  /// (arming itself is not thread-safe — by construction it happens while
  /// the warehouse is still single-threaded).
  void EnableSnapshotReads();
  bool snapshot_reads_armed() const { return snapshots_ != nullptr; }

  /// Opens a consistent read handle.  Armed: one shared_ptr copy (under a
  /// mutex held for just that copy) pinning the
  /// last published SnapshotState — safe concurrent with any maintenance,
  /// pause, resume, or kill; the handle never observes a half-installed
  /// window.  Disarmed: a zero-cost live view of the catalog (the old
  /// quiesced-reads regime).
  ReadSnapshot OpenSnapshot() const;

  /// The commit point: atomically publishes the current catalog as the
  /// newest snapshot (no-op while disarmed).  Called from ResetBatch() —
  /// i.e. only when a strategy RUN COMPLETES; paused windows never publish,
  /// so readers see the pre-window state until the final resume lands —
  /// and from RecomputeDerived()/EnableSnapshotReads().  Also the
  /// version-bump audit point: in debug builds, a view mutated since the
  /// last publish without a NoteExtentChanged aborts here.
  void PublishSnapshot();

  /// Mutable extent access — THE choke point every production mutation
  /// path goes through (base_table, RecomputeDerived, Install in both
  /// executors, recovery replay).  Armed, the first mutation of a
  /// published extent detaches a private copy first (the published
  /// SnapshotState keeps the old version alive for its readers); disarmed
  /// it is exactly MustGetTable.  Callers still bump the version via
  /// NoteExtentChanged as before.
  Table* MutableExtent(const std::string& name);

  /// Views mutated since the last publish whose extent_version was NOT
  /// bumped — the contract violation PublishSnapshot aborts on in debug
  /// builds.  Exposed (release-safe, non-aborting) so the regression suite
  /// can prove the audit catches TestOnlyExtentNoVersionBump mutations on
  /// the snapshot path.  Empty while disarmed.
  std::vector<std::string> SnapshotAuditViolations() const;

  /// (Re)materializes every derived view bottom-up from the current base
  /// extents, refreshing the join-cardinality statistics.
  void RecomputeDerived();

  /// Arms the auxiliary-view advisor (plan/aux_view.h): executed Comps are
  /// tallied, and each commit (ResetBatch) refreshes stale
  /// materializations, promotes hot join prefixes to hidden "__aux_<n>"
  /// views registered in the VDAG, and restamps the substitution bindings.
  /// Idempotent (later calls only update the options); also driven by the
  /// WUW_AUX_VIEWS env knob at construction.  Disarmed, aux_views() is
  /// null and every hook in the engine is one pointer test — bit-identical
  /// behavior to a build without this layer.
  void EnableAuxViews(AuxViewOptions options);

  /// The advisor/binding registry; nullptr while disarmed.
  AuxViewRegistry* aux_views() { return aux_.get(); }
  const AuxViewRegistry* aux_views() const { return aux_.get(); }

  /// Aux flavor of SnapshotAuditViolations: bound aux extents mutated
  /// since their last commit stamp without a NoteExtentChanged bump.
  /// Release-safe; ResetBatch aborts on a non-empty result in debug
  /// builds.  Empty while disarmed.
  std::vector<std::string> AuxAuditViolations() const;

  /// Arms beyond-RAM extent paging (storage/paged_store.h): creates the
  /// pager, attaches it to the catalog's accessor hooks, and registers
  /// every extent in creation order.  Idempotent (later calls keep the
  /// existing pager); also driven by the WUW_MEM_MB env knob at
  /// construction.  Disarmed, paged_store() is null and every hook in the
  /// engine is one pointer test — bit-identical behavior to a build
  /// without this layer.
  void EnablePaging(const paged::PagedOptions& options);

  /// The extent pager; nullptr while disarmed.
  paged::PagedStore* paged_store() { return paged_.get(); }
  const paged::PagedStore* paged_store() const { return paged_.get(); }

  /// Executor touch point (no-op while paging is disarmed): faults the
  /// expression's extent need-set in — a Comp's definition sources, an
  /// Inst's target — and, when `evict` (callers driving steps one at a
  /// time; the executor loop uses PagedTouchStage), advances the LRU clock and
  /// hibernates least-recently-touched extents until the resident set fits
  /// the budget.  Term workers call with evict=false, so eviction
  /// decisions never depend on WUW_THREADS.
  void PagedTouchExpression(const Expression& e, bool evict);

  /// The executor loop's touch point: one evicting touch over the union
  /// of the stage's need-sets, on the coordinating thread before the
  /// stage's workers start.
  void PagedTouchStage(const std::vector<Expression>& stage);

  /// Registers the incoming changes of a base view for the next update
  /// window.  Replaces any delta already pending for that view.
  void SetBaseDelta(const std::string& name, DeltaRelation delta);

  /// Merges another batch into the pending delta (deferred maintenance:
  /// changes from several periods accumulate before one update window).
  void MergeBaseDelta(const std::string& name, const DeltaRelation& delta);

  /// The pending delta of a base view (empty delta if none was set).
  const DeltaRelation& base_delta(const std::string& name) const;

  /// The per-view raw-delta accumulator used during strategy execution.
  DeltaAccumulator* accumulator(const std::string& name);

  /// Clears pending base deltas and accumulators (Executor calls this
  /// after a successful run).
  void ResetBatch();

  /// Analytic size statistics for the pending batch (Section 5.5's
  /// "standard result size estimation"): exact for base views, first-order
  /// model for derived views.
  SizeMap EstimatedSizes() const;

  /// Statistics-based estimation: runs an ANALYZE pass (per-column
  /// distinct counts and ranges over every extent and pending delta) and
  /// feeds the System-R cardinality model (stats/delta_estimator.h).
  /// Slower than EstimatedSizes() but far tighter on filtered/insert-heavy
  /// batches.
  SizeMap EstimatedSizesWithStats() const;

  /// Exact size statistics, obtained by executing a throwaway dual-stage
  /// update on a cloned warehouse and measuring every finalized delta.
  /// Expensive; used by tests and calibration.
  SizeMap OracleSizes() const;

  /// Deep copy (tables, pending deltas); accumulators start fresh.  Version
  /// counters are copied too, so clones of one state agree on subplan-cache
  /// keys (see extent_version below) and may share a cache.
  Warehouse Clone() const;

  /// Pre-aggregation join cardinality recorded at the last recompute.
  int64_t join_rows(const std::string& view) const;

  /// Monotone per-view extent mutation counter, embedded in subplan-cache
  /// scan keys: any install / recompute / direct load bumps it, so a cached
  /// scan result can never be served over a rewritten extent.
  int64_t extent_version(const std::string& name) const;

  /// Records that `name`'s extent was mutated (Executor calls this after
  /// installing a delta).
  void NoteExtentChanged(const std::string& name);

  /// Monotone change-batch counter: bumped whenever the pending batch
  /// gains, merges, or clears deltas.  Keys delta-scan cache entries.
  int64_t batch_epoch() const { return batch_epoch_; }

  /// The redo journal of the current (or last) strategy run against this
  /// warehouse.  Executors write it when their `journal` option is set;
  /// ResumeStrategy (exec/recovery.h) reads it to finish an interrupted
  /// run.  Not cloned: a clone is a fresh state with no run history.
  StrategyJournal& journal() { return *journal_; }
  const StrategyJournal& journal() const { return *journal_; }

  /// TEST-ONLY: mutable extent access that deliberately skips the
  /// NoteExtentChanged version bump.  Exists so tests can prove that an
  /// unversioned mutation leaves stale version-keyed subplan-cache entries
  /// servable; production code must use base_table()/NoteExtentChanged.
  Table* TestOnlyExtentNoVersionBump(const std::string& name) {
    return catalog_.MustGetTable(name);
  }

 private:
  struct SnapshotPublisher;

  /// The aux-view commit hook, run by ResetBatch before the snapshot
  /// publishes: refresh stale materializations, audit version bumps
  /// (debug), close the advisor window + materialize promotions, restamp
  /// bindings.  Deterministic, so a recovery's final ResetBatch reruns it
  /// to the same state.
  void AuxCommit();

  /// Declares the KeyIndexes def's Comp terms probe (vec::IndexJoin), from
  /// the join keys lowering uses (JoinStepKeys): each join step's right
  /// keys on that step's source, and the first step's left keys on its
  /// left operand — source 0, or with an aux prefix of `prefix_len`
  /// sources (plan/aux_view.h) the aux extent `prefix_view`.  Declaring
  /// changes no extent's rows, so a published extent takes it in place.
  void DeclareJoinIndexes(const ViewDefinition& def, size_t prefix_len = 0,
                          const std::string& prefix_view = "");

  Vdag vdag_;
  Catalog catalog_;
  std::unordered_map<std::string, DeltaRelation> base_deltas_;
  std::unordered_map<std::string, std::unique_ptr<DeltaAccumulator>>
      accumulators_;
  std::unordered_map<std::string, int64_t> join_rows_;
  std::unordered_map<std::string, int64_t> extent_versions_;
  int64_t batch_epoch_ = 0;
  /// Schema-typed empty deltas handed out for base views with no pending
  /// changes.
  std::unordered_map<std::string, DeltaRelation> empty_deltas_;
  /// unique_ptr keeps Warehouse movable (the journal holds a mutex).
  std::unique_ptr<StrategyJournal> journal_ =
      std::make_unique<StrategyJournal>();
  /// Snapshot-read state (atomic publish slot + COW clean flags + audit
  /// baseline); null while disarmed — the zero-cost-when-unset gate.
  std::unique_ptr<SnapshotPublisher> snapshots_;
  /// Auxiliary-view advisor + bindings (WUW_AUX_VIEWS); null while
  /// disarmed — same zero-cost-when-unset gate.
  std::unique_ptr<AuxViewRegistry> aux_;
  /// Extent pager (WUW_MEM_MB); null while disarmed.  unique_ptr keeps the
  /// pager's address stable across Warehouse moves (the catalog holds a
  /// raw pointer to it).
  std::unique_ptr<paged::PagedStore> paged_;
};

}  // namespace wuw

#endif  // WUW_EXEC_WAREHOUSE_H_
