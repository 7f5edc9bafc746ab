#include "plan/plan_executor.h"

#include <numeric>
#include <utility>

#include "algebra/vectorized.h"
#include "common/check.h"
#include "exec/window_budget.h"
#include "fault/fault_injection.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"

namespace wuw {

PlanExecutor::PlanExecutor(const PlanDag& dag, SubplanCache* cache,
                           ThreadPool* pool, const CancelToken* cancel)
    : dag_(dag), cache_(cache), pool_(pool), cancel_(cancel),
      memo_(dag.size()) {}

void PlanExecutor::PrepareShared(const std::vector<PlanNodeId>& roots,
                                 OperatorStats* stats) {
  if (cache_ == nullptr) return;
  // Mark nodes reachable from the surviving roots (terms skipped for empty
  // deltas must not charge work for subplans nobody will read).
  std::vector<char> reachable(dag_.size(), 0);
  std::vector<PlanNodeId> frontier(roots);
  while (!frontier.empty()) {
    PlanNodeId id = frontier.back();
    frontier.pop_back();
    if (reachable[id]) continue;
    reachable[id] = 1;
    for (PlanNodeId c : dag_.node(id).children) frontier.push_back(c);
  }
  // Ids are a topological order, so ascending iteration materializes
  // children before the shared parents that consume them.
  for (size_t id = 0; id < dag_.size(); ++id) {
    const PlanNode& n = dag_.node(id);
    if (!reachable[id] || n.num_uses < 2 || !n.cacheable) continue;
    WUW_FAULT_POINT("plan.prepare_shared");
    // kEngine, not kWork: PrepareShared only runs when a cache is attached.
    WUW_METRIC_ADD("plan.shared_nodes_prepared", obs::MetricClass::kEngine, 1);
    Eval(static_cast<PlanNodeId>(id), stats, /*memoize_shared=*/true);
  }
}

std::shared_ptr<const Rows> PlanExecutor::Execute(PlanNodeId root,
                                                  OperatorStats* stats) {
  return Eval(root, stats, /*memoize_shared=*/false);
}

std::shared_ptr<const Rows> PlanExecutor::Eval(PlanNodeId id,
                                               OperatorStats* stats,
                                               bool memoize_shared) {
  if (memo_[id] != nullptr) return memo_[id];
  WUW_FAULT_POINT("plan.eval");
  // Node entry is a mutation-free boundary: everything below is read-only
  // w.r.t. the warehouse, so abandoning here leaves the paused state
  // coherent (only a discarded partial result is lost).
  if (cancel_ != nullptr) cancel_->Check();
  const PlanNode& n = dag_.node(id);

  // Leaves bypass the cache: a scan is an O(1) shared handle on its
  // operand, so caching it would save nothing and charge the whole operand
  // against the budget.
  bool try_cache = cache_ != nullptr && n.cacheable && !n.is_leaf();
  std::shared_ptr<const Rows> result;
  if (try_cache) {
    result = cache_->Lookup(n.fingerprint);
    if (stats != nullptr) {
      if (result != nullptr) {
        stats->subplan_cache_hits += 1;
      } else {
        stats->subplan_cache_misses += 1;
      }
    }
  }
  bool from_cache = result != nullptr;

  if (result == nullptr) {
    WUW_METRIC_ADD("plan.nodes_executed", obs::MetricClass::kEngine, 1);
    switch (n.kind) {
      case PlanNodeKind::kScanTable:
        result = std::make_shared<const Rows>(Rows::FromTable(*n.table));
        break;
      case PlanNodeKind::kScanDelta:
        result = std::make_shared<const Rows>(n.delta->ToRows());
        break;
      case PlanNodeKind::kScanRows:
        // Borrowed batch: alias the caller's storage, never own or cache it.
        result = std::shared_ptr<const Rows>(n.rows, [](const Rows*) {});
        break;
      default:
        result = std::make_shared<const Rows>(
            n.kind == PlanNodeKind::kHashJoin && n.reads_delta
                ? EvalDeltaFirstJoin(n, stats, memoize_shared)
                : EvalOperator(n, stats, memoize_shared));
    }
    if (try_cache) {
      cache_->Insert(n.fingerprint, result, n.est_recompute_cost);
    }
  }

  if (runtime_ != nullptr) {
    PlanNodeRuntime& rt = (*runtime_)[id];
    rt.rows = static_cast<int64_t>(result->size());
    rt.provenance =
        from_cache ? obs::Provenance::kCached : obs::Provenance::kComputed;
  }
  if (memoize_shared && n.num_uses >= 2 && n.cacheable) memo_[id] = result;
  return result;
}

Rows PlanExecutor::EvalOperator(const PlanNode& n, OperatorStats* stats,
                                bool memoize_shared) {
  std::vector<std::shared_ptr<const Rows>> owned(n.children.size());
  std::vector<const Rows*> inputs;
  inputs.reserve(n.children.size());
  // Independent children (a join's two sides) may evaluate
  // concurrently — but never during PrepareShared, whose memo writes
  // are the one piece of executor state that is not thread-safe, and
  // never with a subplan cache attached: concurrent children would
  // interleave its inserts and evictions (and so its fault-site hit
  // counts) differently from run to run.  Stats fold per child in
  // child order; every counter is a commutative sum, so totals equal
  // the sequential traversal's.
  if (!memoize_shared && cache_ == nullptr && n.children.size() > 1 &&
      pool_ != nullptr && pool_->parallelism() > 1) {
    std::vector<OperatorStats> child_stats(n.children.size());
    pool_->ParallelTasks(
        n.children.size(), /*max_workers=*/0,
        [&](size_t c) {
          owned[c] = Eval(n.children[c], &child_stats[c],
                          /*memoize_shared=*/false);
        },
        cancel_);
    if (stats != nullptr) {
      for (const OperatorStats& cs : child_stats) *stats += cs;
    }
  } else {
    for (size_t c = 0; c < n.children.size(); ++c) {
      owned[c] = Eval(n.children[c], stats, memoize_shared);
    }
  }
  for (const auto& child : owned) inputs.push_back(child.get());
  switch (n.kind) {
    case PlanNodeKind::kFilter:
      return n.filter.Run(inputs, stats, pool_, cancel_);
    case PlanNodeKind::kProject:
      return n.project.Run(inputs, stats, pool_, cancel_);
    case PlanNodeKind::kHashJoin:
      return n.join.Run(inputs, stats, pool_, cancel_);
    default:
      WUW_CHECK(false, "unreachable plan node kind");
  }
  return Rows();
}

Rows PlanExecutor::EvalDeltaFirstJoin(const PlanNode& n, OperatorStats* stats,
                                      bool memoize_shared) {
  // The delta side first (the left one when both read a delta).
  const size_t first = dag_.node(n.children[0]).reads_delta ? 0 : 1;
  const PlanNodeId other = n.children[1 - first];
  std::shared_ptr<const Rows> delta =
      Eval(n.children[first], stats, memoize_shared);

  // Every product with an empty (or all-zero) side is zero: no rows.
  if (delta->AbsCardinality() == 0) {
    WUW_METRIC_ADD("plan.empty_operand_skips", obs::MetricClass::kEngine, 1);
    MarkSkipped(other);
    return Rows(n.schema);
  }

  const std::vector<std::string>& delta_keys =
      first == 0 ? n.join.keys.left_columns : n.join.keys.right_columns;
  const std::vector<std::string>& other_keys =
      first == 0 ? n.join.keys.right_columns : n.join.keys.left_columns;
  vec::IndexedExtent extent;
  if (IndexedOperand(other, other_keys, delta->size(), &extent)) {
    std::vector<size_t> probe_idx;
    for (const std::string& c : delta_keys) {
      probe_idx.push_back(delta->schema.MustIndexOf(c));
    }
    vec::IndexJoinCounts counts;
    Rows out = vec::IndexJoin(*delta, probe_idx, extent,
                              /*extent_left=*/first == 1, &n.join.columns,
                              stats, &counts);
    WUW_METRIC_ADD("plan.index_joins", obs::MetricClass::kEngine, 1);
    WUW_METRIC_ADD("plan.index_candidates", obs::MetricClass::kEngine,
                   counts.candidates);
    if (runtime_ != nullptr) {
      const PlanNode& o = dag_.node(other);
      const bool filtered = o.kind == PlanNodeKind::kFilter;
      (*runtime_)[other] = {filtered ? counts.kept : counts.candidates,
                            obs::Provenance::kIndex};
      if (filtered) {
        (*runtime_)[o.children[0]] = {counts.candidates,
                                      obs::Provenance::kIndex};
      }
    }
    return out;
  }

  std::shared_ptr<const Rows> rest = Eval(other, stats, memoize_shared);
  std::vector<const Rows*> inputs = {delta.get(), rest.get()};
  if (first == 1) std::swap(inputs[0], inputs[1]);
  return n.join.Run(inputs, stats, pool_, cancel_);
}

bool PlanExecutor::IndexedOperand(PlanNodeId id,
                                  const std::vector<std::string>& keys,
                                  size_t probe_rows,
                                  vec::IndexedExtent* extent) const {
  const PlanNode& o = dag_.node(id);
  const bool filtered = o.kind == PlanNodeKind::kFilter;
  const PlanNode& scan = filtered ? dag_.node(o.children[0]) : o;
  if (scan.kind != PlanNodeKind::kScanTable) return false;
  // The keys as image columns, through the filter's kept columns.
  std::vector<size_t> key_columns;
  for (const std::string& c : keys) {
    const size_t q = o.schema.MustIndexOf(c);
    key_columns.push_back(filtered ? o.filter.columns[q] : q);
  }
  extent->index = scan.table->FindKeyIndex(key_columns);
  if (extent->index == nullptr) return false;
  extent->image = scan.table->ColumnarSnapshot();
  // TryHashJoin's probe-side ratio: beyond it, hashing the whole operand
  // is as cheap as probing it row by row.
  if (probe_rows * 4 > extent->image->num_rows()) return false;
  if (filtered) {
    extent->filter = o.filter.predicate;
    extent->columns = o.filter.columns;
  } else {
    extent->columns.resize(scan.schema.num_columns());
    std::iota(extent->columns.begin(), extent->columns.end(), size_t{0});
  }
  return true;
}

void PlanExecutor::MarkSkipped(PlanNodeId root) {
  std::vector<char> seen(dag_.size(), 0);
  std::vector<PlanNodeId> stack = {root};
  int64_t skipped = 0;
  while (!stack.empty()) {
    const PlanNodeId id = stack.back();
    stack.pop_back();
    if (seen[id]) continue;
    seen[id] = 1;
    ++skipped;
    // A node another term already ran keeps its record.
    if (runtime_ != nullptr && (*runtime_)[id].rows < 0) {
      (*runtime_)[id].provenance = obs::Provenance::kSkipped;
    }
    for (PlanNodeId c : dag_.node(id).children) stack.push_back(c);
  }
  WUW_METRIC_ADD("plan.nodes_skipped", obs::MetricClass::kEngine, skipped);
}

}  // namespace wuw
