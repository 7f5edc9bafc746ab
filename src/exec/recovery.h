// Interrupted-strategy recovery: finish an update window that died
// mid-run.
//
// Recovery model (see exec/journal.h): the pre-window warehouse state is
// durable — an in-memory Warehouse::Clone taken before the run, or an
// io/snapshot directory written by SaveWarehouse (which persists base
// extents and the pending change batch; LoadWarehouse rematerializes the
// derived views, which is exact because the pre-window state is
// consistent).  Everything the interrupted run did in place is suspect: a
// fault may have torn an extent mid-install or left δV half-accumulated.
// ResumeStrategy therefore starts from the restored pre-window state,
// replays the journaled (completed) steps from their logged effects —
// no join work is redone — and executes only the steps the run never
// completed.  The result is bit-identical to an uninterrupted run: any
// C1-C8-correct strategy still lands on the recompute ground truth
// (the kill-at-every-step property suites assert exactly this).
#ifndef WUW_EXEC_RECOVERY_H_
#define WUW_EXEC_RECOVERY_H_

#include "exec/executor.h"
#include "exec/journal.h"
#include "exec/warehouse.h"

namespace wuw {

/// Finishes the interrupted run described by `journal` on `warehouse`.
/// Under kReplayRestored the caller must have restored `warehouse` to the
/// pre-window state (a clone taken before the original Execute, or
/// LoadWarehouse of a pre-window snapshot — the pending batch must be
/// present either way); journaled steps replay from their logged effects.
/// Under kContinueInPlace `warehouse` is the paused run's live state and
/// journaled steps are simply skipped.  Missing steps execute one per
/// stage through the executor loop and the batch is consumed like a normal
/// run; the report covers those live steps, and `steps_replayed` counts
/// the journaled ones.  `options.validate` and
/// `options.simplify_empty_deltas` are ignored (the original run already
/// did both); `options.journal` re-journals into `warehouse`, so a resumed
/// run that dies again is itself resumable.  `options.budget` bounds the
/// resumed window exactly like Executor::Execute, except that every
/// resumed window completes at least one missing step, so chained windows
/// always terminate: on exhaustion the report says kPaused and the
/// (re-)journal is the next window's handle.
inline ExecutionReport ResumeStrategy(
    const StrategyJournal& journal, Warehouse* warehouse,
    ExecutorOptions options = {},
    ResumeMode mode = ResumeMode::kReplayRestored) {
  return Executor(warehouse, options).Resume(journal, mode);
}

}  // namespace wuw

#endif  // WUW_EXEC_RECOVERY_H_
