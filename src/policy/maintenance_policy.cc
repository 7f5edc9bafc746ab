#include "policy/maintenance_policy.h"

#include <cstdio>

#include "common/check.h"
#include "core/min_work.h"
#include "exec/recovery.h"
#include "obs/metrics.h"

namespace wuw {

std::string PolicyReport::ToString() const {
  char buffer[320];
  std::snprintf(buffer, sizeof(buffer),
                "batches=%lld windows=%lld wall=%.4fs work=%lld "
                "rows_installed=%lld windows_paused=%lld carryover_work=%lld",
                static_cast<long long>(batches_received),
                static_cast<long long>(windows_run), total_window_seconds,
                static_cast<long long>(total_linear_work),
                static_cast<long long>(rows_installed),
                static_cast<long long>(windows_paused),
                static_cast<long long>(carryover_work));
  return buffer;
}

MaintenanceScheduler::MaintenanceScheduler(Warehouse* warehouse,
                                           PolicyOptions options)
    : warehouse_(warehouse), options_(options) {
  WUW_CHECK(warehouse_ != nullptr, "scheduler needs a warehouse");
  WUW_CHECK(options_.k >= 1, "EveryK policy needs k >= 1");
}

bool MaintenanceScheduler::OnBatch(
    const std::unordered_map<std::string, DeltaRelation>& batch) {
  ++report_.batches_received;
  if (window_paused_) {
    // The in-flight strategy was planned against the batch it is half-way
    // through installing; merging new changes into that batch would make
    // the journal incoherent.  Defer (later batches compose with each
    // other) and spend this period's window continuing the paused run.
    for (const auto& [view, delta] : batch) {
      auto it = deferred_.find(view);
      if (it == deferred_.end()) {
        deferred_.emplace(view, delta);
      } else {
        it->second.Merge(delta);
      }
    }
    ++batches_since_window_;
    ResumeWindow();
    return true;
  }
  for (const auto& [view, delta] : batch) {
    warehouse_->MergeBaseDelta(view, delta);
  }
  ++batches_since_window_;
  if (!ShouldRun()) return false;
  RunWindow();
  return true;
}

void MaintenanceScheduler::Flush() {
  // Completing a paused run merges its deferred batches, which may leave
  // fresh pending changes — loop until nothing is paused or pending.
  while (window_paused_) ResumeWindow();
  while (true) {
    bool pending = false;
    for (const std::string& base : warehouse_->vdag().BaseViews()) {
      if (!warehouse_->base_delta(base).empty()) pending = true;
    }
    if (!pending) return;
    RunWindow();
    while (window_paused_) ResumeWindow();
  }
}

bool MaintenanceScheduler::ShouldRun() const {
  switch (options_.kind) {
    case PolicyOptions::Kind::kImmediate:
      return true;
    case PolicyOptions::Kind::kEveryK:
      return batches_since_window_ >= options_.k;
    case PolicyOptions::Kind::kThreshold: {
      int64_t pending = 0, total = 0;
      for (const std::string& base : warehouse_->vdag().BaseViews()) {
        pending += warehouse_->base_delta(base).AbsCardinality();
        total += warehouse_->catalog().MustGetTable(base)->cardinality();
      }
      return total == 0 ||
             static_cast<double>(pending) >=
                 options_.threshold_fraction * static_cast<double>(total);
    }
  }
  return true;
}

void MaintenanceScheduler::RunWindow() {
  int64_t pending = 0;
  for (const std::string& base : warehouse_->vdag().BaseViews()) {
    pending += warehouse_->base_delta(base).AbsCardinality();
  }

  MinWorkResult plan =
      MinWork(warehouse_->vdag(), warehouse_->EstimatedSizes());
  ExecutorOptions exec_options = options_.executor;
  exec_options.simplify_empty_deltas = true;
  WindowBudget budget(options_.window_budget);
  if (budget.limited()) exec_options.budget = &budget;
  Executor executor(warehouse_, exec_options);
  ExecutionReport window = executor.Execute(plan.strategy);

  ++report_.windows_run;
  report_.total_window_seconds += window.total_seconds;
  report_.total_linear_work += window.total_linear_work;
  if (window.window_result == WindowResult::kPaused) {
    ++report_.windows_paused;
    WUW_METRIC_ADD("policy.windows_paused", obs::MetricClass::kEngine, 1);
    window_paused_ = true;
    paused_pending_rows_ = pending;
    return;  // batch stays pending; the journal is the carryover handle
  }
  report_.rows_installed += pending;
  batches_since_window_ = 0;
}

bool MaintenanceScheduler::ResumeWindow() {
  WUW_CHECK(window_paused_, "ResumeWindow without a paused run");
  ExecutorOptions exec_options = options_.executor;
  exec_options.simplify_empty_deltas = true;
  WindowBudget budget(options_.window_budget);
  if (budget.limited()) exec_options.budget = &budget;
  ExecutionReport resumed =
      ResumeStrategy(warehouse_->journal(), warehouse_, exec_options,
                     ResumeMode::kContinueInPlace);

  ++report_.windows_run;
  report_.total_window_seconds += resumed.total_seconds;
  report_.total_linear_work += resumed.total_linear_work;
  report_.carryover_work += resumed.total_linear_work;
  WUW_METRIC_ADD("window.carryover_work", obs::MetricClass::kEngine,
                 resumed.total_linear_work);
  if (resumed.window_result == WindowResult::kPaused) {
    ++report_.windows_paused;
    WUW_METRIC_ADD("policy.windows_paused", obs::MetricClass::kEngine, 1);
    return false;
  }
  window_paused_ = false;
  report_.rows_installed += paused_pending_rows_;
  paused_pending_rows_ = 0;
  batches_since_window_ = 0;
  // The run is durable; the batches that arrived while it was in flight
  // become the next pending batch.
  for (auto& [view, delta] : deferred_) {
    warehouse_->MergeBaseDelta(view, delta);
  }
  deferred_.clear();
  return true;
}

}  // namespace wuw
