// Per-view maintenance state during a strategy execution.
//
// "We assume that the changes computed by the various Comp expressions for
// V are gathered in delta relation δV, and eventually installed together by
// Inst(V)" (Section 3.1).  DeltaAccumulator is that gathering point: Comp
// results accumulate as raw rows; the first consumer of δV (a parent's Comp
// or Inst(V)) triggers finalization, after which further Comp accumulation
// is a contract violation (correct strategies never do it — conditions
// C4/C5/C8 — and the executor enforces it).
#ifndef WUW_VIEW_MAINTENANCE_H_
#define WUW_VIEW_MAINTENANCE_H_

#include <memory>
#include <mutex>

#include "algebra/operator_stats.h"
#include "algebra/rows.h"
#include "delta/delta_relation.h"
#include "storage/table.h"
#include "view/view_definition.h"

namespace wuw {

/// Accumulates the raw delta of one derived view across its Comp
/// expressions and finalizes it into an installable DeltaRelation.
///
/// Thread-safe: concurrent Comp expressions of one view (a parallel
/// dual-stage stage) may Accumulate concurrently, and concurrent parents
/// may race to Finalize; an internal mutex serializes both.
class DeltaAccumulator {
 public:
  DeltaAccumulator(std::shared_ptr<const ViewDefinition> def, Schema raw_schema,
                   Schema output_schema);

  /// Absorbs the raw delta of one Comp expression.  Aborts if δV was
  /// already finalized (strategy ordering violation).
  void Accumulate(Rows raw);

  /// Returns the finalized view-level delta, computing it on first use
  /// against `current` (the view's pre-install extent).
  const DeltaRelation& Finalize(const Table& current, OperatorStats* stats);

  /// Recovery path (exec/recovery.h): installs a journaled finalized delta
  /// directly.  After an interrupted run's Inst(V) is replayed, V's extent
  /// is post-install, so recomputing δV from raw rows would finalize
  /// against the wrong extent — the journal supplies the original value
  /// instead.  Aborts if δV was already finalized.
  void RestoreFinalized(DeltaRelation final_delta);

  bool finalized() const { return finalized_; }

  /// Schema of the raw rows Accumulate takes.
  const Schema& raw_schema() const { return raw_schema_; }

  /// Number of raw rows gathered so far (diagnostics).
  int64_t raw_size() const { return static_cast<int64_t>(raw_.size()); }

  /// Clears all state for the next update batch.
  void Reset();

 private:
  std::shared_ptr<const ViewDefinition> def_;
  std::mutex mutex_;
  Schema raw_schema_;
  Schema output_schema_;
  Rows raw_;
  bool finalized_ = false;
  DeltaRelation final_;
};

}  // namespace wuw

#endif  // WUW_VIEW_MAINTENANCE_H_
