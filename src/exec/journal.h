// Strategy-execution journaling: the redo log behind interrupted-window
// recovery.
//
// A journaled executor records, after each *completed* Comp/Inst step, the
// step's durable effect: the raw delta rows a Comp accumulated, or the
// finalized delta an Inst applied to its extent.  Because a correct
// strategy is deterministic given the pre-window state, the journal plus
// that state (a Warehouse::Clone or an io/snapshot directory) is enough to
// reconstruct the exact mid-window state without re-running any join work
// — ResumeStrategy (exec/recovery.h) replays the logged effects and then
// executes only the steps the interrupted run never completed.
//
// A step is "completed" iff its entry is in the journal.  A fault anywhere
// inside a step — mid-join, mid-install, between install and the version
// bump — leaves the step unrecorded, and recovery's snapshot restore
// discards whatever partial state the torn step left behind.
#ifndef WUW_EXEC_JOURNAL_H_
#define WUW_EXEC_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "algebra/rows.h"
#include "core/strategy.h"
#include "delta/delta_relation.h"
#include "io/env.h"

namespace wuw {

/// The durable effect of one completed strategy step.
struct JournalEntry {
  /// Index of the step in the journaled strategy (a parallel run journals
  /// against its linearization, so indices are globally ordered there too).
  int64_t step = 0;
  Expression expression;
  /// Comp steps: the raw delta rows this step accumulated into δV.
  Rows comp_raw;
  /// Inst steps: the finalized delta applied to the extent — for derived
  /// views this is also δV's finalized value, restored into the
  /// accumulator on replay so later consumers see the original delta.
  DeltaRelation installed;
  /// Target view's extent version after the step (diagnostics; versions
  /// are only comparable when recovery starts from an in-memory clone).
  int64_t extent_version_after = 0;
};

/// Append-only, thread-safe journal of one strategy run.  Owned by the
/// Warehouse being updated; the executor writes it when
/// ExecutorOptions::journal is set (or a limiting budget forces it on).
class StrategyJournal {
 public:
  /// Starts a new run: records the strategy (post-simplification — the
  /// exact expression sequence being executed) and clears prior entries.
  void Begin(const Strategy& strategy, int64_t batch_epoch);

  /// Appends the record of a completed step.
  void Record(JournalEntry entry);

  /// Marks the run as having finished every step.
  void MarkComplete();

  /// True once Begin was called (an interrupted run stays begun).
  bool begun() const;
  /// True iff the journaled run finished every step.
  bool complete() const;

  const Strategy& strategy() const;
  int64_t batch_epoch() const;

  /// Number of completed steps.
  int64_t size() const;

  bool IsStepComplete(int64_t step) const;

  /// Completed entries sorted by step index (a parallel stage may have
  /// completed steps out of order around the torn one).
  std::vector<JournalEntry> EntriesInStepOrder() const;

  void Clear();

  // -- Incremental durability ------------------------------------------------
  //
  // An attached durable sink makes the journal survive a process kill, not
  // just an in-process unwind: Begin rewrites `path` with the fsynced
  // header (and commits the dirent with a parent-directory fsync), every
  // Record appends one fsynced frame, MarkComplete appends the completion
  // marker — the on-disk file is, at every instant, a loadable prefix of
  // the run (LoadJournal's torn-tail rule absorbs a cut mid-frame).
  // Executors need no changes: the write-through rides the existing
  // Begin/Record calls.

  /// Attaches the durable sink (env null = the current io::GetEnv()).  If
  /// a run is already in flight, its current state is written out
  /// immediately.  Returns "" or the first I/O error (also latched in
  /// durable_error()).
  std::string AttachDurable(io::Env* env, std::string path);

  /// Closes the sink; the file stays on disk.
  void DetachDurable();

  /// First durable-append failure, "" while healthy.  Fail-stop: after an
  /// error the sink is closed and later records are memory-only — the
  /// on-disk journal remains a valid (shorter) prefix, which recovery
  /// handles exactly like a torn tail.
  std::string durable_error() const;

 private:
  void DurableBeginLocked();
  void DurableAppendLocked(const JournalEntry& entry);
  void DurableCompleteLocked();

  mutable std::mutex mu_;
  bool begun_ = false;
  bool complete_ = false;
  Strategy strategy_;
  int64_t batch_epoch_ = 0;
  std::vector<JournalEntry> entries_;

  io::Env* durable_env_ = nullptr;
  std::string durable_path_;
  std::unique_ptr<io::WritableFile> durable_file_;
  std::string durable_error_;
};

// ---------------------------------------------------------------------------
// On-disk durability.
//
// Layout: a header frame (magic "WUWJRNL1", format version, batch epoch,
// and the journaled strategy) followed by one frame per record — entry
// records in Record order, then an optional completion marker.  Every
// frame is [u32 length][payload][u32 crc32(payload)], little-endian
// fixed-width integers throughout, so a reader can verify each record
// independently.
//
// Torn-tail tolerance: a write that dies mid-journal leaves a truncated or
// garbage tail.  Deserialization accepts the longest valid prefix of
// records — exactly the right recovery semantics, since dropping a suffix
// of completed-step records only makes ResumeStrategy re-execute those
// steps.  Damage inside the header (without which nothing is trustworthy)
// is a hard error instead.

/// Serializes the journal (requires begun()).
std::string SerializeJournal(const StrategyJournal& journal);

/// Decodes `bytes` into `*out` (Clear + Begin + Record...).  Returns false
/// and fills *error iff the header is damaged.  Damage in the record
/// stream truncates to the longest valid record prefix and still returns
/// true, setting `*torn` (optional) when anything was dropped.
bool DeserializeJournal(const std::string& bytes, StrategyJournal* out,
                        std::string* error, bool* torn = nullptr);

/// Atomically persists the journal to `path` through the current io::Env
/// with the full crash discipline (write → fsync → rename → fsync parent
/// dir — io::AtomicWriteFile), so a crash at any instant leaves the old
/// journal or the new one, never a mix.  Returns false and fills *error on
/// I/O failure.
bool SaveJournal(const StrategyJournal& journal, const std::string& path,
                 std::string* error);

/// Reads `path` and deserializes it (same torn-tail semantics as
/// DeserializeJournal).
bool LoadJournal(const std::string& path, StrategyJournal* out,
                 std::string* error, bool* torn = nullptr);

}  // namespace wuw

#endif  // WUW_EXEC_JOURNAL_H_
