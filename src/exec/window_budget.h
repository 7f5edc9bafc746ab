// Enforcing the update window: work/deadline budgets and cooperative
// cancellation.
//
// The paper's premise is that maintenance must finish inside a *limited*
// update window.  A WindowBudget makes that limit a first-class, enforced
// object with two independent axes:
//
//   * a deterministic WORK budget in linear-work units (the paper's cost
//     metric, charged from each completed step's analytic work) — pauses
//     land on exact step boundaries and reproduce bit-identically across
//     runs, pool sizes, and cache budgets;
//   * an optional wall-clock DEADLINE — inherently nondeterministic, it
//     cooperatively cancels mid-step through the CancelToken below; the
//     abandoned step's read-only work is redone on resume.
//
// A CancelToken follows the fault-point discipline (fault/fault_injection.h):
// a check site on a disarmed token costs one relaxed atomic load and a
// predictable branch, so the cancellation plumbing threaded through the
// executors, the plan layer, and the morsel kernels is free in the
// paper-fidelity configuration.  A firing check throws
// WindowCancelledError; the stack unwinds to the executor's step loop,
// which — because every check site sits BEFORE the step's first mutation —
// abandons the step cleanly: the warehouse still holds only journaled,
// fully-installed steps, and in-flight sibling morsels drain through the
// thread pool's normal first-exception path.
//
// An exhausted budget makes the executor return WindowResult::kPaused; the
// warehouse's StrategyJournal is the resumable handle (ResumeStrategy with
// ResumeMode::kContinueInPlace finishes the run in a later window).  The
// invariant, mirroring fault recovery's: pause at ANY work budget + resume
// == the uninterrupted run, bit-identical (window_budget_property_test).
//
// The `WUW_WINDOW_BUDGET` env knob (see ParseWindowBudgetSpec) arms a
// budget on any bench or test binary: every executor run (sequential,
// staged or resumed) transparently splits into budget-sized windows at
// stage barriers and carries the paused run into the next one, so the
// whole tier-1 suite doubles as a pause/resume exercise.
#ifndef WUW_EXEC_WINDOW_BUDGET_H_
#define WUW_EXEC_WINDOW_BUDGET_H_

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace wuw {

/// How an executor's window ended.
enum class WindowResult {
  /// Every step ran; the batch was consumed.
  kCompleted,
  /// The budget exhausted first.  Completed steps are journaled; the
  /// warehouse's StrategyJournal is the resumable handle.
  kPaused,
};

/// Thrown by CancelToken::Check when cancellation fired.  Unwinds to the
/// nearest step/stage boundary, abandoning the in-flight step cleanly.
class WindowCancelledError : public std::runtime_error {
 public:
  explicit WindowCancelledError(const std::string& why)
      : std::runtime_error("window cancelled: " + why) {}
};

/// Cooperative cancellation flag, checked at step, plan-node, term, and
/// morsel boundaries.  Disarmed (default) state costs one relaxed atomic
/// load per Check — the fault-point discipline — so tokens can be threaded
/// everywhere and cost nothing until a deadline or an explicit cancel arms
/// them.
class CancelToken {
 public:
  /// Fast path: returns immediately on a disarmed token (one relaxed
  /// load).  Armed: evaluates the deadline / check countdown and throws
  /// WindowCancelledError once cancellation fires.
  void Check() const {
    if (state_.load(std::memory_order_relaxed) == kDisarmed) return;
    SlowCheck();
  }

  /// Non-throwing variant: true iff cancellation has fired (evaluating the
  /// deadline / countdown like Check).  Same disarmed fast path.
  bool Poll() const {
    if (state_.load(std::memory_order_relaxed) == kDisarmed) return false;
    return SlowPoll();
  }

  /// Cancels immediately: every subsequent Check throws, Poll returns true.
  void RequestCancel();

  /// Arms a wall-clock deadline `seconds` from now (steady clock).
  void ArmDeadline(double seconds);

  /// Test hook: fire on the (n+1)th subsequent Check/Poll (n == 0 fires on
  /// the next one).  Deterministic on a sequential execution; under a pool
  /// the firing site is scheduling-dependent, which is exactly the
  /// robustness the cancel-anywhere property tests want to explore.
  void CancelAfterChecks(int64_t n);

  /// Back to the disarmed zero-cost state.
  void Reset();

  /// True iff cancellation already fired (no deadline/countdown
  /// evaluation — a pure state read).
  bool cancelled() const {
    return state_.load(std::memory_order_acquire) == kCancelled;
  }

 private:
  enum : int { kDisarmed = 0, kArmed = 1, kCancelled = 2 };

  [[noreturn]] void ThrowCancelled() const;
  void SlowCheck() const;
  bool SlowPoll() const;

  /// kDisarmed until a deadline/countdown/cancel arms the token; writes are
  /// release so the fields below are visible to relaxed-load checkers that
  /// take the slow path.
  mutable std::atomic<int> state_{kDisarmed};
  /// Steady-clock deadline in ns since epoch; 0 = none.
  std::atomic<int64_t> deadline_ns_{0};
  /// Remaining Check/Poll calls before firing; -1 = no countdown.
  mutable std::atomic<int64_t> checks_left_{-1};
  /// Why cancellation fired: 0 explicit, 1 deadline, 2 countdown.
  mutable std::atomic<int> why_{0};
};

/// Configuration of one window's budget.
struct WindowBudgetOptions {
  /// Linear-work units the window may spend; work is charged from
  /// completed steps' analytic linear work, so the pause boundary is
  /// deterministic.  Negative = unlimited; 0 pauses before the first step.
  int64_t work_units = -1;
  /// Wall-clock deadline per window in seconds; <= 0 = none.
  double deadline_seconds = 0;

  /// True iff this budget can ever pause a run.
  bool limited() const { return work_units >= 0 || deadline_seconds > 0; }
};

/// One update window's enforcement state: deterministic work accounting
/// plus the CancelToken the deadline (or an external caller) fires
/// through.  Single-writer: only the executing thread charges work; the
/// token is the thread-safe part.
class WindowBudget {
 public:
  explicit WindowBudget(WindowBudgetOptions options = {})
      : options_(options) {}

  /// Starts a (new or carried-over) window: zeroes the work spent, resets
  /// the token, and arms the deadline if one is configured.
  void OpenWindow();

  /// Charges a completed step's linear work against the window.
  void ChargeWork(int64_t units) { work_spent_ += units; }

  int64_t work_spent() const { return work_spent_; }

  /// Deterministic axis only: has the work budget run out?
  bool work_exhausted() const {
    return options_.work_units >= 0 && work_spent_ >= options_.work_units;
  }

  /// Should the executor pause at this step boundary?  True when the work
  /// budget is exhausted or the token has fired (deadline passed /
  /// explicit cancel).
  bool ShouldPause() { return work_exhausted() || token_.Poll(); }

  /// The token to thread through cancellation check sites.
  CancelToken* token() { return &token_; }

  const WindowBudgetOptions& options() const { return options_; }
  bool limited() const { return options_.limited(); }

 private:
  WindowBudgetOptions options_;
  int64_t work_spent_ = 0;
  CancelToken token_;
};

/// Parses a WUW_WINDOW_BUDGET spec.  Grammar (';'-separated clauses):
///   <N>                 shorthand for work=<N>
///   work=<N>            work budget in linear-work units per window
///   deadline_ms=<M>     wall-clock deadline per window, milliseconds
///   deadline_s=<S>      ... in (fractional) seconds
/// Example: "2000" or "work=5000;deadline_ms=50".  Returns an empty string
/// on success, else a description of the error (user-facing input path:
/// no aborts).
std::string ParseWindowBudgetSpec(const std::string& spec,
                                  WindowBudgetOptions* out);

/// The process-wide WUW_WINDOW_BUDGET options: parsed once on first use.
/// Returns nullptr when the knob is unset; a malformed spec warns once on
/// stderr and reads as unset (benches surface the error loudly via
/// ParseWindowBudgetSpec instead).
const WindowBudgetOptions* EnvWindowBudget();

}  // namespace wuw

#endif  // WUW_EXEC_WINDOW_BUDGET_H_
