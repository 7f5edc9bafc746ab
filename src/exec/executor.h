// The strategy executor: runs a VDAG update strategy against a Warehouse,
// mutating its state and measuring the update window.
//
// The executor is the stand-in for the paper's commercial RDBMS executing
// the per-expression stored procedures: each Comp/Inst is one call, the
// wall time of the whole sequence is the update window, and the measured
// per-expression statistics let benchmarks compare against the linear work
// metric's predictions.
//
// Every run is a sequence of stages (Section 9): the expressions of one
// stage do not conflict, so they run concurrently on the shared pool, and
// stages are separated by barriers.  A sequential Strategy is the special
// case of one expression per stage, a ParallelStrategy brings its own
// stages, and resuming an interrupted run executes the journaled strategy
// with the completed steps marked done.  All three share one loop, so
// validation, budgets, journaling, pausing, and commit mean the same thing
// for each.
//
// Shared state accessed concurrently inside a stage: table extents
// (read-only within a stage for any reader, by construction), base deltas
// (read-only), and delta accumulators (internally locked — two Comps of
// one view may accumulate concurrently, and two parents may race to
// finalize a child's delta).
#ifndef WUW_EXEC_EXECUTOR_H_
#define WUW_EXEC_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/operator_stats.h"
#include "core/strategy.h"
#include "exec/journal.h"
#include "exec/warehouse.h"
#include "exec/window_budget.h"
#include "obs/plan_observation.h"
#include "parallel/parallel_strategy.h"
#include "plan/subplan_cache.h"

namespace wuw {

class ThreadPool;

struct ExecutorOptions {
  /// Check C1-C8 before executing; abort on violation.  A resumed run
  /// skips the check: its journal holds the strategy the original run
  /// already validated.
  bool validate = true;
  /// Footnote 5 extension: skip maintenance terms whose deltas are empty.
  bool skip_empty_delta_terms = false;
  /// Footnote 5 at strategy level: before running, drop the expressions
  /// that only touch views with provably empty deltas (see
  /// core/simplify.h).  Validation then uses the empty-delta closure.
  /// Ignored on resume, whose journal already holds the simplified run.
  bool simplify_empty_deltas = false;
  /// Record each view's finalized (|δV|, net) in the report — used by the
  /// oracle size estimator.
  bool capture_delta_stats = false;
  /// Optional shared-subplan memo (not owned).  Null keeps the paper's
  /// eager term-at-a-time execution.  When set, maintenance terms reuse
  /// materialized intermediates across terms and expressions; keys embed
  /// the warehouse's extent versions and batch epoch, so a cache may
  /// outlive a run and be shared across clones executing C1-C8-correct
  /// strategies over the same state (see plan/subplan_cache.h).  The cache
  /// locks internally, so a stage's workers share it safely.
  SubplanCache* subplan_cache = nullptr;
  /// Record each completed step's durable effect into the warehouse's
  /// StrategyJournal, indexed by the strategy's linearization, making an
  /// interrupted run resumable via ResumeStrategy (exec/recovery.h).  A
  /// step that dies mid-stage stops the stage; steps other workers
  /// completed stay journaled (they are mutually non-conflicting, so
  /// replay order within the stage is irrelevant).
  bool journal = false;
  /// Shared thread pool for stage workers, term workers, AND the
  /// morsel-parallel kernels — one pool for all three levels, so nesting
  /// them cannot oversubscribe.  Null resolves to ThreadPool::Global()
  /// (sized by WUW_THREADS) at Execute time; pass an explicit
  /// ThreadPool(1) to force fully sequential execution regardless of the
  /// env.  Results and OperatorStats are identical at every pool size
  /// (see parallel/thread_pool.h).
  ThreadPool* pool = nullptr;
  /// Pool slots one stage's expressions may claim.  A sequential Strategy
  /// runs one expression per stage, so only staged runs use more than one.
  int workers = 4;
  /// Intra-expression parallelism: pool slots per Comp for its independent
  /// maintenance terms (see CompEvalOptions::term_workers).  Lets a lone
  /// dual-stage Comp(V, all-sources) — 2^n-1 terms — use the pool even
  /// when its stage has few expressions.
  int term_workers = 1;
  /// EXPLAIN sink (not owned): receives each Comp expression's plan DAG
  /// with estimated vs measured per-node rows.  Forces sequential term
  /// evaluation inside EvalComp and one expression at a time per stage, so
  /// observations arrive in step order (results are identical either
  /// way); see obs/plan_observation.h.  Null records nothing.
  obs::PlanObserver* plan_observer = nullptr;
  /// Update-window budget (not owned; see exec/window_budget.h).  Work is
  /// charged at stage barriers, so work budgets pause there; a deadline
  /// additionally cancels in-flight expressions at their next check site,
  /// tearing the stage (steps that already completed stay journaled and
  /// reported).  A limiting budget forces journaling on and makes the run
  /// return WindowResult::kPaused when it exhausts — the warehouse's
  /// journal is then the resumable handle (ResumeStrategy,
  /// ResumeMode::kContinueInPlace finishes the run in a later window).  An
  /// unlimited budget is pure accounting and changes nothing.  Null and
  /// with WUW_WINDOW_BUDGET set, the run instead splits into budget-sized
  /// windows internally and always completes.
  WindowBudget* budget = nullptr;
};

/// How a resumed run treats the journaled (completed) steps.
enum class ResumeMode {
  /// The warehouse was restored to the pre-window state (clone or
  /// io/snapshot): replay each journaled step's logged effect, then
  /// execute the rest.  The recovery-after-a-crash mode.
  kReplayRestored,
  /// The warehouse is the live one a budget-paused run left behind: every
  /// journaled step's effect is already installed, so nothing replays —
  /// completed steps are only marked off (and re-journaled) and the
  /// missing steps execute.  The next-update-window mode: pausing never
  /// tore state (checks precede mutations), so in-place continuation is
  /// exact.
  kContinueInPlace,
};

/// Measurements for one executed expression.
struct ExpressionReport {
  Expression expression;
  double seconds = 0;
  /// Run-time counterpart of the linear work metric: Σ over terms of
  /// operand sizes (Comp), or |δV| (Inst).
  int64_t linear_work = 0;
  OperatorStats stats;
};

/// Measurements for one strategy run.
struct ExecutionReport {
  /// Wall time across all stages (Σ stage_seconds).
  double total_seconds = 0;
  int64_t total_linear_work = 0;
  /// Operator counters summed over expressions; includes the run's
  /// subplan-cache hit/miss counts.  Each expression's counters accumulate
  /// in its own slot while its stage runs and merge at the stage barrier,
  /// so totals never depend on the pool size.
  OperatorStats totals;
  /// Executed steps in stage order, then index within the stage.
  std::vector<ExpressionReport> per_expression;
  /// Wall time of each executed stage, barrier to barrier (a sequential
  /// Strategy runs one expression per stage).
  std::vector<double> stage_seconds;
  /// view -> (|δV| abs, net); filled when capture_delta_stats is set.
  std::unordered_map<std::string, std::pair<int64_t, int64_t>> delta_stats;
  /// Snapshot of the attached SubplanCache at run end (lifetime-cumulative
  /// counters — the cache may span runs); zeros when none was attached.
  SubplanCacheStats subplan_cache;
  /// kPaused iff a limiting ExecutorOptions::budget exhausted before the
  /// last step: only the reported steps ran (all journaled, none
  /// half-installed), the batch is still pending, and the warehouse's
  /// StrategyJournal is the handle a later window resumes from.
  WindowResult window_result = WindowResult::kCompleted;
  /// Steps this run executed (== per_expression.size()), including the
  /// completed steps of a stage a deadline tore.
  int64_t steps_completed = 0;
  /// Resumed runs only: journaled steps replayed from their logged effects
  /// (no join work redone), or under kContinueInPlace marked already done.
  int64_t steps_replayed = 0;
  /// Update windows the run spanned: 1 normally, more when the
  /// WUW_WINDOW_BUDGET env knob split the run (env mode always completes).
  int64_t windows = 1;
  /// ResumeMode::kReplayRestored only: non-empty when the journal does not
  /// fit this warehouse (an entry logged an effect with another schema than
  /// its view's, or names no extent here).  Then nothing ran: the
  /// warehouse, its pending batch and its journal are untouched, and
  /// windows is 0.
  std::string resume_error;

  std::string ToString() const;
};

/// Executes one expression against the warehouse: the step kernel of the
/// executor loop, also usable on its own to drive a strategy step by step.
/// For Inst expressions, `delta_stats` (optional) receives the installed
/// delta's (|δV|, net).  When `journal` is non-null the step's durable
/// effect is recorded under index `step` after it completes (see
/// exec/journal.h).  `paged_evict` feeds the WUW_MEM_MB touch point
/// (Warehouse::PagedTouchExpression): the executor loop passes false,
/// because its coordinating thread already ran the evicting touch for the
/// whole stage and worker-side eviction would make paging depend on
/// WUW_THREADS; a caller driving steps itself keeps the default.
ExpressionReport ExecuteExpression(Warehouse* warehouse, const Expression& e,
                                   const struct CompEvalOptions& comp_options,
                                   std::pair<int64_t, int64_t>* delta_stats,
                                   StrategyJournal* journal = nullptr,
                                   int64_t step = 0, bool paged_evict = true);

/// The CompEvalOptions an executor derives from its options + warehouse,
/// so every run keys subplan-cache entries identically (batch epoch +
/// extent versions).
struct CompEvalOptions MakeCompEvalOptions(
    Warehouse* warehouse, SubplanCache* subplan_cache,
    bool skip_empty_delta_terms, int term_workers = 1,
    ThreadPool* pool = nullptr, obs::PlanObserver* plan_observer = nullptr,
    const CancelToken* cancel = nullptr);

/// Executes strategies against one warehouse.
class Executor {
 public:
  explicit Executor(Warehouse* warehouse, ExecutorOptions options = {});

  /// Runs `strategy` one expression per stage, consuming the pending
  /// update batch.  The warehouse afterwards reflects the new database
  /// state.
  ExecutionReport Execute(const Strategy& strategy);

  /// Runs `strategy`'s stages, each fanned out over the pool.  The final
  /// state equals what the sequential run of its linearization produces.
  ExecutionReport Execute(const ParallelStrategy& strategy);

  /// Finishes the interrupted run `journal` describes, one step per stage;
  /// see ResumeStrategy (exec/recovery.h) for the contract.
  ExecutionReport Resume(const StrategyJournal& journal, ResumeMode mode);

 private:
  /// The steps a resumed run starts from.
  struct Resumed {
    std::vector<JournalEntry> done;
    bool replay = false;  // kReplayRestored: apply each entry's effect
  };

  /// The one strategy loop behind all three entry points.
  ExecutionReport Run(ParallelStrategy plan, bool staged,
                      const Resumed* resumed);

  Warehouse* warehouse_;
  ExecutorOptions options_;
};

}  // namespace wuw

#endif  // WUW_EXEC_EXECUTOR_H_
