// wuw_shell — an interactive warehouse console.
//
// The full administrator loop in one binary: define a warehouse from DDL,
// load CSVs, register change batches, ask the advisor for tonight's
// strategy, execute the update window, query the results, snapshot to
// disk.
//
//   $ wuw_shell                 # interactive
//   $ wuw_shell commands.txt    # batch mode (one command per line)
//
// Commands:
//   ddl <file>            define the warehouse from a CREATE script
//   open <dir>            load a snapshot directory
//   save <dir>            write a snapshot directory
//   load <view> <file>    bulk-load a base view from CSV
//   delta <view> <file>   merge a change batch from CSV (signed __count)
//   recompute             (re)materialize all derived views
//   schema                print the warehouse DDL
//   sizes                 print |V| and pending |δV| per view
//   advise                rank candidate update strategies for the batch
//   update [name]         run the update window (default: MinWork); prints
//                         the EXPLAIN report first and a span timeline after
//   explain               work estimate + plan DAGs (est vs measured rows)
//                         of the best strategy
//   select ...            ad-hoc query (any line starting with SELECT)
//   procs                 print the stored-procedure setup script (§5.5)
//   dot                   print the VDAG as Graphviz
//   help / quit
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/advisor.h"
#include "core/min_work.h"
#include "obs/explain.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "graph/dot.h"
#include "view/validate.h"
#include "exec/executor.h"
#include "exec/recovery.h"
#include "exec/window_budget.h"
#include "io/csv.h"
#include "policy/maintenance_policy.h"
#include "io/snapshot.h"
#include "parser/ddl_parser.h"
#include "query/ad_hoc.h"
#include "sqlgen/sql_script.h"

namespace wuw {
namespace {

class Shell {
 public:
  bool HandleLine(const std::string& line) {
    std::istringstream in(line);
    std::string command;
    in >> command;
    for (char& c : command) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    if (command.empty() || command[0] == '#') return true;
    if (command == "quit" || command == "exit") return false;
    if (command == "help") {
      Help();
    } else if (command == "ddl") {
      Ddl(Rest(in));
    } else if (command == "open") {
      Open(Rest(in));
    } else if (command == "save") {
      Save(Rest(in));
    } else if (command == "load" || command == "delta") {
      std::string view, file;
      in >> view >> file;
      LoadCsv(command == "delta", view, file);
    } else if (command == "recompute") {
      if (Ready()) {
        warehouse_->RecomputeDerived();
        std::puts("derived views rematerialized");
      }
    } else if (command == "schema") {
      if (Ready()) std::fputs(DumpWarehouseScript(warehouse_->vdag()).c_str(), stdout);
    } else if (command == "sizes") {
      Sizes();
    } else if (command == "advise") {
      Advise();
    } else if (command == "update") {
      Update(Rest(in));
    } else if (command == "explain") {
      Explain();
    } else if (command == "select") {
      Query(line);
    } else if (command == "dot") {
      if (Ready()) std::fputs(VdagToDot(warehouse_->vdag()).c_str(), stdout);
    } else if (command == "procs") {
      if (Ready()) {
        std::fputs(GenerateSetupScript(warehouse_->vdag()).c_str(), stdout);
      }
    } else {
      std::printf("unknown command '%s' (try: help)\n", command.c_str());
    }
    return true;
  }

 private:
  static std::string Rest(std::istringstream& in) {
    std::string rest;
    std::getline(in, rest);
    size_t start = rest.find_first_not_of(" \t");
    return start == std::string::npos ? "" : rest.substr(start);
  }

  void Help() {
    std::puts(
        "  ddl <file> | open <dir> | save <dir>\n"
        "  load <view> <file.csv> | delta <view> <file.csv> | recompute\n"
        "  schema | sizes | advise | explain | update [minwork|...]\n"
        "  select ... | dot | procs | quit");
  }

  bool Ready() {
    if (warehouse_ == nullptr) {
      std::puts("no warehouse loaded (use: ddl <file> or open <dir>)");
      return false;
    }
    return true;
  }

  void Ddl(const std::string& path) {
    std::ifstream file(path);
    if (!file) {
      std::printf("cannot read %s\n", path.c_str());
      return;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    ParsedWarehouse parsed = ParseWarehouseScript(buffer.str());
    if (!parsed.ok()) {
      std::printf("DDL error: %s\n", parsed.error.c_str());
      return;
    }
    std::string invalid = ValidateVdag(parsed.vdag);
    if (!invalid.empty()) {
      std::printf("DDL error: %s\n", invalid.c_str());
      return;
    }
    warehouse_ = std::make_unique<Warehouse>(std::move(parsed.vdag));
    std::printf("warehouse defined: %zu views\n",
                warehouse_->vdag().num_views());
  }

  void Open(const std::string& dir) {
    auto loaded = std::make_unique<Warehouse>(Vdag{});
    std::string error;
    if (!LoadWarehouse(dir, loaded.get(), &error)) {
      std::printf("open failed: %s\n", error.c_str());
      return;
    }
    warehouse_ = std::move(loaded);
    std::printf("loaded %zu views from %s\n", warehouse_->vdag().num_views(),
                dir.c_str());
  }

  void Save(const std::string& dir) {
    if (!Ready()) return;
    std::string error;
    if (!SaveWarehouse(*warehouse_, dir, &error)) {
      std::printf("save failed: %s\n", error.c_str());
      return;
    }
    std::printf("snapshot written to %s\n", dir.c_str());
  }

  void LoadCsv(bool as_delta, const std::string& view,
               const std::string& path) {
    if (!Ready()) return;
    if (!warehouse_->vdag().HasView(view) ||
        !warehouse_->vdag().IsBaseView(view)) {
      std::printf("'%s' is not a base view\n", view.c_str());
      return;
    }
    std::ifstream file(path);
    if (!file) {
      std::printf("cannot read %s\n", path.c_str());
      return;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    std::string error;
    if (as_delta) {
      DeltaRelation delta(warehouse_->vdag().OutputSchema(view));
      if (!CsvToDelta(buffer.str(), &delta, &error)) {
        std::printf("CSV error: %s\n", error.c_str());
        return;
      }
      std::printf("merged batch for %s: +%lld/-%lld\n", view.c_str(),
                  (long long)delta.plus_count(),
                  (long long)delta.minus_count());
      warehouse_->MergeBaseDelta(view, delta);
    } else {
      if (!CsvToTable(buffer.str(), warehouse_->base_table(view), &error)) {
        std::printf("CSV error: %s\n", error.c_str());
        return;
      }
      std::printf("loaded %s: %lld rows (run 'recompute' when done)\n",
                  view.c_str(),
                  (long long)warehouse_->catalog()
                      .MustGetTable(view)
                      ->cardinality());
    }
  }

  void Sizes() {
    if (!Ready()) return;
    for (const std::string& name : warehouse_->vdag().view_names()) {
      const Table& t = *warehouse_->catalog().MustGetTable(name);
      std::printf("  %-20s |V| = %10lld", name.c_str(),
                  (long long)t.cardinality());
      if (warehouse_->vdag().IsBaseView(name)) {
        const DeltaRelation& d = warehouse_->base_delta(name);
        if (!d.empty()) {
          std::printf("   pending +%lld/-%lld", (long long)d.plus_count(),
                      (long long)d.minus_count());
        }
      }
      std::printf("\n");
    }
  }

  void Advise() {
    if (!Ready()) return;
    auto advice =
        wuw::Advise(warehouse_->vdag(), warehouse_->EstimatedSizesWithStats());
    std::fputs(AdviceToText(advice).c_str(), stdout);
  }

  void Explain() {
    if (!Ready()) return;
    SizeMap sizes = warehouse_->EstimatedSizesWithStats();
    auto advice = wuw::Advise(warehouse_->vdag(), sizes);
    const StrategyAdvice& best = advice.front();
    std::printf("plan: %s (estimated work %.0f)\n", best.name.c_str(),
                best.estimated_work);
    WorkBreakdown breakdown =
        EstimateStrategyWork(warehouse_->vdag(), best.strategy, sizes, {});
    for (const ExpressionWork& ew : breakdown.per_expression) {
      std::printf("  %-50s %12.0f\n", ew.expression.ToString().c_str(),
                  ew.work);
    }
    // The physical view: each Comp's interned plan DAG with shared-subplan
    // annotations and estimated vs measured rows (replayed on a clone; the
    // pending batch stays pending).
    obs::ExplainOptions explain_options;
    explain_options.simplify_empty_deltas = true;
    std::fputs(
        obs::ExplainStrategy(*warehouse_, best.strategy, explain_options)
            .ToString()
            .c_str(),
        stdout);
  }

  void Update(const std::string& which) {
    if (!Ready()) return;
    auto advice =
        wuw::Advise(warehouse_->vdag(), warehouse_->EstimatedSizesWithStats());
    const StrategyAdvice* chosen = &advice.front();
    if (!which.empty()) {
      chosen = nullptr;
      for (const StrategyAdvice& a : advice) {
        std::string lower = a.name;
        for (char& c : lower) {
          c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        }
        if (lower.rfind(which, 0) == 0) chosen = &a;
      }
      if (chosen == nullptr) {
        std::printf("no strategy matching '%s'\n", which.c_str());
        return;
      }
    }
    // EXPLAIN before executing: replay on a clone, so the report shows the
    // exact ordering and per-node rows the real window is about to produce.
    obs::ExplainOptions explain_options;
    explain_options.simplify_empty_deltas = true;
    std::fputs(
        obs::ExplainStrategy(*warehouse_, chosen->strategy, explain_options)
            .ToString()
            .c_str(),
        stdout);

    ThreadPool& pool = ThreadPool::Global();
    std::printf("executing %s (%d threads)...\n", chosen->name.c_str(),
                pool.parallelism());
    ExecutorOptions options;
    options.simplify_empty_deltas = true;
    ThreadPoolStats before = pool.stats();
    int64_t pending = 0;
    for (const std::string& base : warehouse_->vdag().BaseViews()) {
      pending += warehouse_->base_delta(base).AbsCardinality();
    }
    // Arm tracing for the window so the timeline below has spans to show;
    // leave the env-armed state (WUW_TRACE) untouched.
    bool tracing_was_armed = obs::TracingArmed();
    size_t trace_mark = obs::TraceEventCount();
    obs::ArmTracing();
    // Under WUW_WINDOW_BUDGET the shell drives the pause/resume chain
    // itself (an explicit budget disables the executor's silent env
    // auto-split), so the operator sees every paused window and the
    // carryover accounting, PolicyReport-style.
    PolicyReport windows;
    windows.batches_received = 1;
    ExecutionReport report;
    const WindowBudgetOptions* env_budget = EnvWindowBudget();
    if (env_budget == nullptr) {
      Executor executor(warehouse_.get(), options);
      report = executor.Execute(chosen->strategy);
      ++windows.windows_run;
    } else {
      {
        WindowBudget budget(*env_budget);
        ExecutorOptions first_options = options;
        first_options.budget = &budget;
        Executor executor(warehouse_.get(), first_options);
        report = executor.Execute(chosen->strategy);
        ++windows.windows_run;
      }
      while (report.window_result == WindowResult::kPaused) {
        ++windows.windows_paused;
        std::printf("  window paused after %lld/%zu steps — carrying over\n",
                    (long long)report.steps_completed,
                    chosen->strategy.size());
        WindowBudget budget(*env_budget);
        ExecutorOptions resume_options = options;
        resume_options.budget = &budget;
        ExecutionReport resumed = ResumeStrategy(
            warehouse_->journal(), warehouse_.get(), resume_options,
            ResumeMode::kContinueInPlace);
        ++windows.windows_run;
        windows.carryover_work += resumed.total_linear_work;
        report.total_seconds += resumed.total_seconds;
        report.total_linear_work += resumed.total_linear_work;
        report.totals += resumed.totals;
        report.steps_completed += resumed.steps_completed;
        ++report.windows;
        report.window_result = resumed.window_result;
      }
    }
    windows.total_window_seconds = report.total_seconds;
    windows.total_linear_work = report.total_linear_work;
    windows.rows_installed = pending;
    if (!tracing_was_armed) obs::DisarmTracing();
    ThreadPoolStats after = pool.stats();
    std::fputs(report.ToString().c_str(), stdout);
    if (env_budget != nullptr) {
      std::printf("  windows: %s\n", windows.ToString().c_str());
    }
    std::puts("  timeline:");
    std::fputs(obs::HumanTimeline(obs::TraceSince(trace_mark)).c_str(),
               stdout);
    // Where the operator time went: scan/probe/build volumes plus how much
    // of the run actually fanned out onto the pool.
    std::printf(
        "  operators: scanned=%lld produced=%lld probes=%lld build=%lld\n",
        (long long)report.totals.rows_scanned,
        (long long)report.totals.rows_produced,
        (long long)report.totals.hash_probes,
        (long long)report.totals.hash_build_rows);
    std::printf(
        "  pool: %d threads, %lld parallel regions (%lld worker tasks), "
        "%lld inline regions\n",
        pool.parallelism(),
        (long long)(after.parallel_regions - before.parallel_regions),
        (long long)(after.pool_tasks - before.pool_tasks),
        (long long)(after.inline_regions - before.inline_regions));
  }

  void Query(const std::string& sql) {
    if (!Ready()) return;
    QueryResult result = ExecuteQuery(*warehouse_, sql);
    if (!result.ok()) {
      std::printf("query error: %s\n", result.error.c_str());
      return;
    }
    std::fputs(result.ToText().c_str(), stdout);
    std::printf("(%.4fs)\n", result.seconds);
  }

  std::unique_ptr<Warehouse> warehouse_;
};

}  // namespace
}  // namespace wuw

int main(int argc, char** argv) {
  wuw::Shell shell;
  std::istream* in = &std::cin;
  std::ifstream script;
  bool interactive = true;
  if (argc > 1) {
    script.open(argv[1]);
    if (!script) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    in = &script;
    interactive = false;
  }
  std::string line;
  while (true) {
    if (interactive) {
      std::fputs("wuw> ", stdout);
      std::fflush(stdout);
    }
    if (!std::getline(*in, line)) break;
    if (!interactive && !line.empty() && line[0] != '#') {
      std::printf("wuw> %s\n", line.c_str());
    }
    if (!shell.HandleLine(line)) break;
  }
  return 0;
}
