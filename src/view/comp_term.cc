#include "view/comp_term.h"

#include <algorithm>

#include "common/check.h"
#include "exec/window_budget.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "plan/aux_view.h"
#include "plan/plan_executor.h"
#include "stats/plan_cardinality.h"
#include "view/join_pipeline.h"

namespace wuw {

CompEvalResult EvalComp(const ViewDefinition& def,
                        const std::vector<std::string>& over,
                        const Catalog& catalog, const DeltaProvider& deltas,
                        const CompEvalOptions& options, OperatorStats* stats) {
  WUW_CHECK(!over.empty(), "Comp requires a non-empty view set Y");
  WUW_CHECK(options.subplan_cache == nullptr ||
                options.extent_version != nullptr,
            "a subplan cache needs extent versions for sound keys");
  obs::TraceSpan span("view", [&] { return "Comp(" + def.name() + ")"; });
  WUW_METRIC_ADD("comp.evals", obs::MetricClass::kWork, 1);

  // Map Y members to source positions.
  std::vector<size_t> over_idx;
  for (const std::string& name : over) {
    int i = def.SourceIndex(name);
    WUW_CHECK(i >= 0, ("Comp over non-source view: " + name).c_str());
    over_idx.push_back(static_cast<size_t>(i));
  }

  const size_t n = def.num_sources();
  std::vector<const Table*> tables(n);
  for (size_t i = 0; i < n; ++i) {
    tables[i] = catalog.MustGetTable(def.sources()[i]);
  }
  std::vector<const DeltaRelation*> delta_of(n, nullptr);
  for (size_t k = 0; k < over_idx.size(); ++k) {
    delta_of[over_idx[k]] = deltas(over[k]);
    WUW_CHECK(delta_of[over_idx[k]] != nullptr,
              ("no delta available for view: " + over[k]).c_str());
  }

  auto resolver = [&](const std::string& name) -> const Schema& {
    return catalog.MustGetTable(name)->schema();
  };

  // Select the terms to evaluate.  Subset masks 1 .. 2^m-1: bit k set →
  // over[k] contributes its delta.
  const size_t m = over_idx.size();
  std::vector<uint64_t> masks;
  for (uint64_t mask = 1; mask < (uint64_t{1} << m); ++mask) {
    if (options.skip_empty_delta_terms) {
      // A term joins the deltas of its selected views: one empty delta
      // operand makes the whole term empty.
      bool any_empty = false;
      for (size_t k = 0; k < m; ++k) {
        if ((mask >> k & 1) && delta_of[over_idx[k]]->empty()) {
          any_empty = true;
          break;
        }
      }
      if (any_empty) continue;
    }
    masks.push_back(mask);
  }

  // Lower every term into ONE plan DAG.  Leaves for the same operand and
  // shared join prefixes intern to the same node, which is where the
  // cross-term CSE happens; the DAG also records the analytic per-term
  // operand work (Def 3.5's linear metric), which execution never changes.
  PlanDag dag;
  std::vector<PlanNodeId> roots(masks.size());
  std::vector<int64_t> term_work(masks.size(), 0);
  const int64_t epoch = options.batch_epoch;
  auto version_of = [&](const std::string& name) {
    return options.extent_version ? options.extent_version(name) : 0;
  };
  for (size_t slot = 0; slot < masks.size(); ++slot) {
    uint64_t mask = masks[slot];
    std::vector<bool> use_delta(n, false);
    for (size_t k = 0; k < m; ++k) {
      if (mask >> k & 1) use_delta[over_idx[k]] = true;
    }
    // WUW_AUX_VIEWS rewrite pass: a term whose leading operands are all
    // extents matching a binding's version stamps scans the materialized
    // prefix instead of re-joining it (plan/aux_view.h).  The stamps are
    // re-validated per term, so a binding invalidated by a mid-strategy
    // Inst of a covered source silently lowers the standard way.
    const AuxTermBinding* aux = nullptr;
    if (options.aux_bindings != nullptr && options.extent_version != nullptr) {
      aux = FindAuxBinding(*options.aux_bindings, def, use_delta, version_of,
                           catalog);
    }
    const size_t first = aux != nullptr ? aux->prefix_len : 0;
    std::vector<PlanNodeId> inputs;
    inputs.reserve(n - first);
    for (size_t i = first; i < n; ++i) {
      const std::string& src = def.sources()[i];
      if (use_delta[i]) {
        inputs.push_back(dag.InternDeltaScan(src, *delta_of[i], epoch));
        term_work[slot] += delta_of[i]->AbsCardinality();
      } else {
        inputs.push_back(
            dag.InternTableScan(src, *tables[i], version_of(src), epoch));
        term_work[slot] += tables[i]->cardinality();
      }
    }
    if (aux != nullptr) {
      const Table* aux_table = catalog.MustGetTable(aux->aux_view);
      term_work[slot] += aux_table->cardinality();
      PlanNodeId prefix = dag.InternTableScan(
          aux->aux_view, *aux_table, version_of(aux->aux_view), epoch);
      std::vector<const Schema*> schemas;
      schemas.reserve(n);
      for (size_t i = 0; i < n; ++i) schemas.push_back(&tables[i]->schema());
      roots[slot] = BuildRawProjectionPlan(
          def,
          BuildJoinPlanFromPrefix(def, schemas, prefix, aux->prefix_len,
                                  inputs, PipelineWidth::kRaw, &dag),
          &dag);
      WUW_METRIC_ADD("aux.term_substitutions", obs::MetricClass::kWork, 1);
    } else {
      roots[slot] = BuildRawProjectionPlan(
          def, BuildJoinPlan(def, inputs, PipelineWidth::kRaw, &dag), &dag);
    }
  }

  // An attached observer needs deterministic per-node runtimes, so its
  // evaluation is forced fully sequential (no term workers, no pool);
  // rows and OperatorStats are pool-size-invariant anyway.
  ThreadPool* pool = options.observer != nullptr ? nullptr : options.pool;
  PlanExecutor exec(dag, options.subplan_cache, pool, options.cancel);
  std::vector<PlanNodeRuntime> runtime;
  if (options.observer != nullptr) {
    runtime.resize(dag.size());
    exec.set_runtime(&runtime);
  }
  OperatorStats prepare_stats;
  if (options.subplan_cache != nullptr || options.observer != nullptr) {
    // Annotate recompute costs so eviction keeps the expensive subplans
    // (and EXPLAIN can print estimates), then — under a cache —
    // materialize everything the terms share before fanning out.
    AnnotatePlanCardinality(&dag);
  }
  bool annotated = options.subplan_cache != nullptr ||
                   options.observer != nullptr;
  if (options.subplan_cache != nullptr) {
    // A Comp of a newer batch releases the older epochs' entries, which
    // its keys can never match.
    options.subplan_cache->AdvanceEpoch(epoch);
    exec.PrepareShared(roots, &prepare_stats);
  }

  struct TermResult {
    Rows raw;
    OperatorStats stats;
  };
  std::vector<TermResult> term_results(masks.size());

  auto eval_term = [&](size_t slot) {
    // Copy out of the shared handle: this shares the image in O(1).
    term_results[slot].raw = *exec.Execute(roots[slot],
                                           &term_results[slot].stats);
  };

  int workers =
      options.observer != nullptr ? 1 : std::max(1, options.term_workers);
  if (workers == 1 || masks.size() <= 1 || pool == nullptr) {
    for (size_t slot = 0; slot < masks.size(); ++slot) {
      if (options.cancel != nullptr) options.cancel->Check();
      eval_term(slot);
    }
  } else {
    // Terms are independent: after PrepareShared the executor's memo is
    // read-only and the cache locks internally, so workers only share
    // immutable state.  Term slots are claimed from the shared pool (so
    // stage-level, term-level, and morsel-level parallelism draw from one
    // set of threads); a term that throws (injected fault) stops the rest
    // and rethrows here, so a mid-term death unwinds out of EvalComp like
    // a sequential one.
    pool->ParallelTasks(masks.size(), workers, eval_term, options.cancel);
  }

  // Merge in mask order: deterministic results regardless of scheduling.
  CompEvalResult result;
  result.raw_delta = Rows(RawSchema(def, resolver));
  if (stats != nullptr) *stats += prepare_stats;
  for (size_t slot = 0; slot < masks.size(); ++slot) {
    TermResult& term = term_results[slot];
    result.raw_delta.Append(term.raw);
    result.linear_operand_work += term_work[slot];
    if (stats != nullptr) *stats += term.stats;
    ++result.num_terms;
  }

  WUW_METRIC_ADD("comp.terms", obs::MetricClass::kWork, result.num_terms);
  WUW_METRIC_ADD("comp.terms_skipped", obs::MetricClass::kWork,
                 static_cast<int64_t>((uint64_t{1} << m) - 1 - masks.size()));
  WUW_METRIC_ADD("comp.linear_operand_work", obs::MetricClass::kWork,
                 result.linear_operand_work);

  if (options.observer != nullptr && options.observer->on_comp != nullptr) {
    obs::CompPlanObservation observation;
    observation.num_terms = result.num_terms;
    observation.nodes.reserve(dag.size());
    for (size_t id = 0; id < dag.size(); ++id) {
      const PlanNode& n = dag.node(static_cast<PlanNodeId>(id));
      obs::PlanNodeObservation record;
      record.id = static_cast<int32_t>(id);
      record.children.assign(n.children.begin(), n.children.end());
      record.label = PlanNodeLabel(n);
      record.num_uses = n.num_uses;
      record.cacheable = n.cacheable;
      record.est_rows =
          annotated ? (n.is_leaf() ? static_cast<double>(n.input_rows)
                                   : n.est_output_rows)
                    : -1;
      record.measured_rows = runtime[id].rows;
      record.provenance = runtime[id].provenance;
      observation.nodes.push_back(std::move(record));
    }
    observation.term_roots.assign(roots.begin(), roots.end());
    options.observer->on_comp(std::move(observation));
  }
  return result;
}

}  // namespace wuw
