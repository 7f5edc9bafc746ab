#include "exec/executor.h"

#include <chrono>
#include <optional>
#include <set>
#include <utility>

#include "common/check.h"
#include "core/correctness.h"
#include "core/simplify.h"
#include "delta/install.h"
#include "fault/fault_injection.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/read_driver.h"
#include "parallel/thread_pool.h"
#include "plan/aux_view.h"
#include "view/comp_term.h"

namespace wuw {

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One stage per expression: the staged form of a sequential strategy.
ParallelStrategy Singletons(const Strategy& strategy) {
  ParallelStrategy out;
  out.stages.reserve(strategy.size());
  for (const Expression& e : strategy.expressions()) out.stages.push_back({e});
  return out;
}

// True when a journaled step's logged effect has the schema its view takes:
// the accumulator's raw schema for a Comp, the extent's for an Inst.
bool FitsView(const JournalEntry& entry, Warehouse* warehouse) {
  const Expression& e = entry.expression;
  const Table* extent = warehouse->catalog().GetTable(e.view);
  if (extent == nullptr) return false;
  if (e.is_comp()) {
    return entry.comp_raw.schema ==
           warehouse->accumulator(e.view)->raw_schema();
  }
  return entry.installed.schema() == extent->schema();
}

// Replays one journaled step's durable effect onto `warehouse`.  No join
// work runs: a Comp re-accumulates the logged raw rows, an Inst re-applies
// the logged finalized delta.  Execution is deterministic, so the replayed
// effects are bit-identical to the originals.
void ReplayEntry(const JournalEntry& entry, Warehouse* warehouse) {
  const Expression& e = entry.expression;
  if (e.is_comp()) {
    Rows raw = entry.comp_raw;  // COW tuples: cheap copy
    warehouse->accumulator(e.view)->Accumulate(std::move(raw));
    // Re-tally so the advisor sees the same window an uninterrupted run
    // would have.
    if (AuxViewRegistry* aux = warehouse->aux_views()) {
      aux->TallyComp(*warehouse->vdag().definition(e.view), e.over);
    }
    return;
  }
  Table* table = warehouse->MutableExtent(e.view);
  Install(entry.installed, table, /*stats=*/nullptr);
  warehouse->NoteExtentChanged(e.view);
  if (!warehouse->vdag().IsBaseView(e.view)) {
    // The logged delta is the finalized δV the original run installed and
    // later consumers read.  Pin it: finalizing lazily from the replayed
    // raw rows would run against the post-install extent and duplicate the
    // refresh (the window C3/C8 relied on is gone once Inst(V) lands).
    warehouse->accumulator(e.view)->RestoreFinalized(entry.installed);
  }
}

}  // namespace

std::string ExecutionReport::ToString() const {
  char line[256];
  std::string out;
  for (const ExpressionReport& r : per_expression) {
    std::snprintf(line, sizeof(line), "  %-50s %9.4fs  work=%lld\n",
                  r.expression.ToString().c_str(), r.seconds,
                  static_cast<long long>(r.linear_work));
    out += line;
  }
  std::snprintf(line, sizeof(line), "  total: %.4fs  linear work=%lld\n",
                total_seconds, static_cast<long long>(total_linear_work));
  out += line;
  if (window_result == WindowResult::kPaused) {
    std::snprintf(line, sizeof(line),
                  "  PAUSED after %lld steps (window budget exhausted; "
                  "journal holds the resumable handle)\n",
                  static_cast<long long>(steps_completed));
    out += line;
  } else if (windows > 1) {
    std::snprintf(line, sizeof(line), "  split across %lld windows\n",
                  static_cast<long long>(windows));
    out += line;
  }
  if (totals.subplan_cache_hits + totals.subplan_cache_misses > 0) {
    std::snprintf(line, sizeof(line), "  subplan cache: %s\n",
                  subplan_cache.ToString().c_str());
    out += line;
  }
  return out;
}

Executor::Executor(Warehouse* warehouse, ExecutorOptions options)
    : warehouse_(warehouse), options_(options) {
  WUW_CHECK(warehouse_ != nullptr, "Executor needs a warehouse");
  WUW_CHECK(options_.workers >= 1, "need at least one worker");
}

ExpressionReport ExecuteExpression(Warehouse* warehouse, const Expression& e,
                                   const CompEvalOptions& comp_options,
                                   std::pair<int64_t, int64_t>* delta_stats,
                                   StrategyJournal* journal, int64_t step,
                                   bool paged_evict) {
  const Vdag& vdag = warehouse->vdag();
  ExpressionReport er;
  er.expression = e;
  obs::TraceSpan span("exec", [&] { return e.ToString(); });
  WUW_METRIC_ADD("exec.expressions", obs::MetricClass::kWork, 1);
  // WUW_MEM_MB: fault this step's extent need-set in and (single-threaded
  // paths) hibernate over-budget extents before the step reads anything.
  // Disarmed = one pointer test.
  warehouse->PagedTouchExpression(e, paged_evict);
  double start = Now();

  // Deltas of derived views finalize lazily on first use, against the
  // view's pre-install extent (C3/C8 guarantee the window exists).
  OperatorStats* finalize_stats = &er.stats;
  DeltaProvider provider =
      [&](const std::string& name) -> const DeltaRelation* {
    if (vdag.IsBaseView(name)) return &warehouse->base_delta(name);
    return &warehouse->accumulator(name)->Finalize(
        *warehouse->catalog().MustGetTable(name), finalize_stats);
  };

  if (e.is_comp()) {
    // Stamp the expression/step onto plan observations on the way out (only
    // ExecuteExpression knows both).
    CompEvalOptions local_options = comp_options;
    obs::PlanObserver stamped;
    if (comp_options.observer != nullptr) {
      stamped.on_comp = [&](obs::CompPlanObservation o) {
        o.expression = e.ToString();
        o.step = step + 1;
        if (comp_options.observer->on_comp != nullptr) {
          comp_options.observer->on_comp(std::move(o));
        }
      };
      local_options.observer = &stamped;
    }
    CompEvalResult result =
        EvalComp(*vdag.definition(e.view), e.over, warehouse->catalog(),
                 provider, local_options, &er.stats);
    // Advisor signal: structural (term shapes only), so a journal replay of
    // this Comp re-tallies exactly what the live run did.
    if (AuxViewRegistry* aux = warehouse->aux_views()) {
      aux->TallyComp(*vdag.definition(e.view), e.over);
    }
    // A kill here loses the computed delta before δV absorbed any of it.
    WUW_FAULT_POINT("executor.comp.accumulate");
    JournalEntry entry;
    if (journal != nullptr) {
      entry.step = step;
      entry.expression = e;
      entry.comp_raw = result.raw_delta;  // COW tuples: cheap copy
    }
    warehouse->accumulator(e.view)->Accumulate(std::move(result.raw_delta));
    er.linear_work = result.linear_operand_work;
    if (journal != nullptr) {
      // A kill here leaves δV mutated but the step unrecorded; recovery
      // restores from the pre-window state, so the orphan effect is lost
      // with the rest of the torn run.
      WUW_FAULT_POINT("executor.journal.record");
      journal->Record(std::move(entry));
    }
  } else {
    // MutableExtent, not MustGetTable: with snapshot reads armed the first
    // install after a publish detaches a private copy, so pinned readers
    // keep the pre-window extent.
    Table* table = warehouse->MutableExtent(e.view);
    const DeltaRelation* delta;
    if (vdag.IsBaseView(e.view)) {
      delta = &warehouse->base_delta(e.view);
    } else {
      delta = &warehouse->accumulator(e.view)->Finalize(*table, &er.stats);
    }
    if (delta_stats != nullptr) {
      *delta_stats = {delta->AbsCardinality(), delta->NetCardinality()};
    }
    WUW_FAULT_POINT("executor.inst.install");
    Install(*delta, table, &er.stats);
    warehouse->NoteExtentChanged(e.view);
    er.linear_work = delta->AbsCardinality();
    WUW_METRIC_ADD("exec.installs", obs::MetricClass::kWork, 1);
    WUW_METRIC_ADD("exec.rows_installed", obs::MetricClass::kWork,
                   delta->AbsCardinality());
    if (journal != nullptr) {
      WUW_FAULT_POINT("executor.journal.record");
      JournalEntry entry;
      entry.step = step;
      entry.expression = e;
      entry.installed = *delta;
      entry.extent_version_after = warehouse->extent_version(e.view);
      journal->Record(std::move(entry));
    }
  }

  er.seconds = Now() - start;
  WUW_METRIC_ADD("exec.linear_work", obs::MetricClass::kWork, er.linear_work);
  // Absorb the expression's OperatorStats into the registry: this is the
  // one choke point every step goes through (sequential, staged, resumed,
  // or driven step by step), so engine.* totals always mean the same
  // thing.
  WUW_METRIC_ADD("engine.rows_scanned", obs::MetricClass::kEngine,
                 er.stats.rows_scanned);
  WUW_METRIC_ADD("engine.rows_produced", obs::MetricClass::kEngine,
                 er.stats.rows_produced);
  WUW_METRIC_ADD("engine.hash_probes", obs::MetricClass::kEngine,
                 er.stats.hash_probes);
  WUW_METRIC_ADD("engine.hash_build_rows", obs::MetricClass::kEngine,
                 er.stats.hash_build_rows);
  WUW_METRIC_ADD("exec.expression_us", obs::MetricClass::kTime,
                 static_cast<int64_t>(er.seconds * 1e6));
  return er;
}

CompEvalOptions MakeCompEvalOptions(Warehouse* warehouse,
                                    SubplanCache* subplan_cache,
                                    bool skip_empty_delta_terms,
                                    int term_workers, ThreadPool* pool,
                                    obs::PlanObserver* plan_observer,
                                    const CancelToken* cancel) {
  CompEvalOptions comp_options;
  comp_options.skip_empty_delta_terms = skip_empty_delta_terms;
  comp_options.term_workers = term_workers;
  comp_options.pool = pool;
  comp_options.subplan_cache = subplan_cache;
  comp_options.observer = plan_observer;
  comp_options.cancel = cancel;
  if (subplan_cache != nullptr) {
    // The epoch is fixed for the whole run (deltas were set before Execute
    // and clear only at ResetBatch); extent versions advance as installs
    // land, re-keying later scans of the rewritten extents.
    comp_options.batch_epoch = warehouse->batch_epoch();
    comp_options.extent_version = [warehouse](const std::string& name) {
      return warehouse->extent_version(name);
    };
  }
  if (warehouse->aux_views() != nullptr) {
    // Aux substitution needs the same version plumbing cache keys use;
    // wire it even without a cache so stamps stay verifiable.
    comp_options.aux_bindings = warehouse->aux_views()->snapshot();
    if (comp_options.aux_bindings != nullptr &&
        comp_options.extent_version == nullptr) {
      comp_options.batch_epoch = warehouse->batch_epoch();
      comp_options.extent_version = [warehouse](const std::string& name) {
        return warehouse->extent_version(name);
      };
    }
  }
  return comp_options;
}

ExecutionReport Executor::Execute(const Strategy& strategy) {
  return Run(Singletons(strategy), /*staged=*/false, /*resumed=*/nullptr);
}

ExecutionReport Executor::Execute(const ParallelStrategy& strategy) {
  return Run(strategy, /*staged=*/true, /*resumed=*/nullptr);
}

ExecutionReport Executor::Resume(const StrategyJournal& journal,
                                 ResumeMode mode) {
  WUW_CHECK(journal.begun(), "cannot resume: journal has no run recorded");
  // Copy everything out of the source journal first: the caller may pass
  // warehouse->journal() itself, which re-journaling overwrites.
  Resumed resumed{journal.EntriesInStepOrder(),
                  mode == ResumeMode::kReplayRestored};
  if (resumed.replay) {
    // Check every entry before replaying any: a journal of some other
    // warehouse must not be half applied.
    for (const JournalEntry& entry : resumed.done) {
      if (FitsView(entry, warehouse_)) continue;
      ExecutionReport refused;
      refused.windows = 0;
      refused.resume_error =
          "journal step " + std::to_string(entry.step) + " (" +
          entry.expression.ToString() +
          ") logged an effect with another schema than its view's";
      return refused;
    }
  }
  return Run(Singletons(journal.strategy()), /*staged=*/false, &resumed);
}

ExecutionReport Executor::Run(ParallelStrategy plan, bool staged,
                              const Resumed* resumed) {
  const Vdag& vdag = warehouse_->vdag();
  if (resumed == nullptr) {
    // A resumed run's journal already holds the simplified strategy the
    // original run validated.
    std::set<std::string> empty_views;
    if (options_.simplify_empty_deltas) {
      std::set<std::string> empty_bases;
      for (const std::string& base : vdag.BaseViews()) {
        if (warehouse_->base_delta(base).empty()) empty_bases.insert(base);
      }
      empty_views = EmptyDeltaClosure(vdag, empty_bases);
      // Simplification drops or narrows single expressions, so it commutes
      // with staging.
      ParallelStrategy simplified;
      for (const std::vector<Expression>& stage : plan.stages) {
        Strategy kept = SimplifyForEmptyDeltas(Strategy(stage), empty_views);
        if (!kept.empty()) simplified.stages.push_back(kept.expressions());
      }
      plan = std::move(simplified);
    }
    if (options_.validate) {
      CorrectnessResult r =
          CheckVdagStrategy(vdag, plan.Linearize(), empty_views);
      WUW_CHECK(r.ok, ("refusing to execute incorrect strategy: " +
                       r.violation).c_str());
    }
  }

  obs::TraceSpan strategy_span(
      "exec", resumed != nullptr ? "resume-strategy"
              : staged           ? "parallel-strategy"
                                 : "strategy");
  if (resumed == nullptr) {
    WUW_METRIC_ADD("exec.strategies", obs::MetricClass::kWork, 1);
  }
  // WUW_READERS: concurrent snapshot probes ride along for the whole run
  // (replay, pauses and installs included), verifying readers only ever
  // see the last committed state.  Unset = empty scope.
  ReaderProbeScope reader_probes(warehouse_);
  ExecutionReport report;
  ThreadPool* pool =
      options_.pool != nullptr ? options_.pool : &ThreadPool::Global();

  // Budget resolution: an explicit ExecutorOptions::budget pauses and
  // returns kPaused to the caller; the WUW_WINDOW_BUDGET env knob instead
  // splits the run into budget-sized windows transparently (auto-resume),
  // so every bench and test exercises the window machinery yet always
  // completes.
  const WindowBudgetOptions* env =
      options_.budget == nullptr ? EnvWindowBudget() : nullptr;
  WindowBudget env_budget(env != nullptr ? *env : WindowBudgetOptions{});
  WindowBudget* budget = env != nullptr ? &env_budget : options_.budget;
  const bool auto_resume = env != nullptr;
  const bool limited = budget != nullptr && budget->limited();
  if (budget != nullptr) budget->OpenWindow();

  CompEvalOptions comp_options = MakeCompEvalOptions(
      warehouse_, options_.subplan_cache, options_.skip_empty_delta_terms,
      options_.term_workers, pool, options_.plan_observer,
      budget != nullptr ? budget->token() : nullptr);
  // Plan observations must arrive in step order.
  const int workers = options_.plan_observer != nullptr ? 1 : options_.workers;

  const Strategy linear = plan.Linearize();
  StrategyJournal* journal = nullptr;
  if (options_.journal || limited) {
    // Journal the simplified linearization: that is the exact expression
    // sequence a resume must finish.  A limiting budget forces journaling
    // on — the journal is the paused run's resumable handle.
    journal = &warehouse_->journal();
    journal->Begin(linear, warehouse_->batch_epoch());
  }

  // Steps already done.  A stage that tore mid-flight can leave a
  // non-contiguous set (step 3 journaled, step 2 torn); in-stage
  // expressions are mutually non-conflicting, so finishing an earlier
  // sibling after a later one is order-irrelevant.
  std::vector<char> completed(linear.size(), 0);
  if (resumed != nullptr) {
    for (const JournalEntry& entry : resumed->done) {
      // A death mid-replay is recoverable like any other: replay mutated
      // the restored state, so recovery restarts from the pre-window state.
      WUW_FAULT_POINT("recovery.replay.step");
      WUW_CHECK(entry.step >= 0 &&
                    entry.step < static_cast<int64_t>(linear.size()),
                "journal step out of strategy range");
      WUW_CHECK(completed[entry.step] == 0, "duplicate journal step");
      completed[entry.step] = 1;
      if (resumed->replay) ReplayEntry(entry, warehouse_);
      if (journal != nullptr) {
        JournalEntry copy = entry;
        if (entry.expression.is_inst()) {
          // The restored warehouse's version counters need not match the
          // dead run's (LoadWarehouse restarts them); re-log what is true.
          copy.extent_version_after =
              warehouse_->extent_version(entry.expression.view);
        }
        journal->Record(std::move(copy));
      }
    }
    report.steps_replayed = static_cast<int64_t>(resumed->done.size());
    WUW_METRIC_ADD("resume.steps_replayed", obs::MetricClass::kWork,
                   report.steps_replayed);
  }

  int64_t window_steps = 0;  // steps completed in the current window
  int stage_cancels = 0;     // consecutive deadline tears of this stage
  // Auto-resume: carry the run into a fresh window.
  auto carry_over = [&](bool deadline) {
    if (deadline) {
      WUW_METRIC_ADD("window.deadline_paused", obs::MetricClass::kSched, 1);
      WUW_METRIC_ADD("window.deadline_resumed", obs::MetricClass::kSched, 1);
    } else {
      WUW_METRIC_ADD("window.paused", obs::MetricClass::kEngine, 1);
      WUW_METRIC_ADD("window.resumed", obs::MetricClass::kEngine, 1);
    }
    obs::TraceSpan carry("exec", "window-carryover");
    budget->OpenWindow();
    ++report.windows;
    window_steps = 0;
  };
  bool paused = false;
  int64_t step_base = 0;
  for (const std::vector<Expression>& stage : plan.stages) {
    const int64_t base = step_base;
    step_base += static_cast<int64_t>(stage.size());
    // Each pass runs the stage's missing steps; a pass repeats only when a
    // deadline tore the stage and the run auto-resumes.
    while (!paused) {
      std::vector<int64_t> todo;
      for (int64_t step = base; step < step_base; ++step) {
        if (completed[step] == 0) todo.push_back(step);
      }
      if (todo.empty()) break;
      if (limited && budget->ShouldPause()) {
        // A resumed window completes at least one missing step, so chained
        // windows always terminate; an auto-split window that has not
        // completed a step yet (one stage bigger than the whole window)
        // overruns rather than livelocks.
        if (!auto_resume && (resumed == nullptr || window_steps > 0)) {
          paused = true;
          break;
        }
        if (auto_resume && window_steps > 0) {
          carry_over(/*deadline=*/!budget->work_exhausted());
        }
      }
      std::optional<obs::TraceSpan> stage_span;
      if (staged) {
        WUW_FAULT_POINT("parallel.stage.begin");
        stage_span.emplace("exec", [&] {
          return "stage[" + std::to_string(stage.size()) + "]";
        });
        WUW_METRIC_ADD("exec.stages", obs::MetricClass::kWork, 1);
      }
      if (resumed == nullptr) {
        WUW_METRIC_ADD("exec.steps", obs::MetricClass::kWork,
                       static_cast<int64_t>(todo.size()));
      }
      const double stage_start = Now();
      // WUW_MEM_MB: one evicting touch over the union of the stage's extent
      // need-sets, on this thread before fan-out — workers run with
      // paged_evict=false, so eviction decisions (and therefore
      // paged.faults/paged.evictions) never depend on WUW_THREADS.
      warehouse_->PagedTouchStage(stage);
      // COW-detach the stage's install targets BEFORE fanning out: a detach
      // swaps the catalog's shared_ptr slot, and a worker doing that would
      // race with sibling workers' catalog reads (source scans, stats).
      // MutableExtent is idempotent per publish, so the detach set and the
      // kWork `warehouse.cow_detaches` count match detaching lazily.
      for (const Expression& e : stage) {
        if (e.is_inst()) warehouse_->MutableExtent(e.view);
      }
      // After two consecutive tears (a deadline shorter than the stage
      // itself), the retry runs with checks disabled so the run still
      // terminates; only auto-resume mode ever retries.
      CompEvalOptions uncancellable;
      const CompEvalOptions* opts = &comp_options;
      if (stage_cancels >= 2) {
        uncancellable = comp_options;
        uncancellable.cancel = nullptr;
        opts = &uncancellable;
      }
      std::vector<ExpressionReport> slots(todo.size());
      std::vector<std::pair<int64_t, int64_t>> slot_deltas(todo.size());
      bool torn = false;
      // Expressions are claimed from the shared pool (a 1-expression stage
      // runs inline).  Injected-fault plumbing: the first dying expression
      // stops the unclaimed rest and the barrier rethrows — the whole run
      // "dies" the way a one-process update window would.
      try {
        pool->ParallelTasks(todo.size(), workers, [&](size_t i) {
          WUW_FAULT_POINT("executor.step.begin");
          const Expression& e = stage[todo[i] - base];
          slots[i] = ExecuteExpression(
              warehouse_, e, *opts,
              options_.capture_delta_stats && e.is_inst() ? &slot_deltas[i]
                                                          : nullptr,
              journal, todo[i], /*paged_evict=*/false);
          completed[todo[i]] = 1;  // each worker writes only its own byte
        });
      } catch (const WindowCancelledError&) {
        // A deadline fired mid-stage.  In-flight expressions drained at
        // their next check site before mutating anything (every check site
        // precedes Accumulate/Install), so the warehouse holds exactly the
        // journaled steps.
        torn = true;
      }
      const double stage_seconds = Now() - stage_start;
      report.stage_seconds.push_back(stage_seconds);
      report.total_seconds += stage_seconds;
      // Stage barrier: fold each completed slot into the run, torn stages
      // included.  Workers only ever wrote their own slot, so nothing races
      // and no increment is dropped.
      int64_t stage_work = 0;
      for (size_t i = 0; i < todo.size(); ++i) {
        if (completed[todo[i]] == 0) continue;
        ExpressionReport& er = slots[i];
        if (options_.capture_delta_stats && er.expression.is_inst()) {
          report.delta_stats[er.expression.view] = slot_deltas[i];
        }
        stage_work += er.linear_work;
        report.totals += er.stats;
        report.per_expression.push_back(std::move(er));
        ++window_steps;
      }
      report.total_linear_work += stage_work;
      if (budget != nullptr) budget->ChargeWork(stage_work);
      if (!torn) {
        stage_cancels = 0;
        break;
      }
      WUW_METRIC_ADD("window.steps_abandoned", obs::MetricClass::kSched, 1);
      if (!auto_resume) {
        paused = true;
        break;
      }
      ++stage_cancels;
      carry_over(/*deadline=*/true);
    }
    if (paused) break;
  }

  report.steps_completed = static_cast<int64_t>(report.per_expression.size());
  if (resumed != nullptr) {
    WUW_METRIC_ADD("resume.steps_executed", obs::MetricClass::kWork,
                   report.steps_completed);
  }
  if (paused) {
    report.window_result = WindowResult::kPaused;
    if (budget->work_exhausted()) {
      WUW_METRIC_ADD("window.paused", obs::MetricClass::kEngine, 1);
    } else {
      WUW_METRIC_ADD("window.deadline_paused", obs::MetricClass::kSched, 1);
    }
    obs::TraceSpan pause_span("exec", "window-paused");
    // No MarkComplete, no ResetBatch: the journal (begun, incomplete) plus
    // the still-pending batch are what the next window resumes from.
  } else {
    if (journal != nullptr) journal->MarkComplete();
    warehouse_->ResetBatch();
  }
  if (options_.subplan_cache != nullptr) {
    report.subplan_cache = options_.subplan_cache->stats();
  }
  WUW_METRIC_ADD("exec.update_window_us", obs::MetricClass::kTime,
                 static_cast<int64_t>(report.total_seconds * 1e6));
  return report;
}

}  // namespace wuw
