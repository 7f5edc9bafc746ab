#include "plan/plan_executor.h"

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

  bool try_cache = cache_ != nullptr && n.cacheable;
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
      default: {
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
        Rows out;
        switch (n.kind) {
          case PlanNodeKind::kFilter:
            out = n.filter.Run(inputs, stats, pool_, cancel_);
            break;
          case PlanNodeKind::kProject:
            out = n.project.Run(inputs, stats, pool_, cancel_);
            break;
          case PlanNodeKind::kHashJoin:
            out = n.join.Run(inputs, stats, pool_, cancel_);
            break;
          case PlanNodeKind::kAggregate:
            out = n.aggregate.Run(inputs, stats, pool_, cancel_);
            break;
          default: WUW_CHECK(false, "unreachable plan node kind");
        }
        result = std::make_shared<const Rows>(std::move(out));
      }
    }
    if (try_cache) {
      cache_->Insert(n.fingerprint, result, n.est_recompute_cost);
    }
  }

  if (runtime_ != nullptr) {
    PlanNodeRuntime& rt = (*runtime_)[id];
    rt.rows = static_cast<int64_t>(result->size());
    rt.from_cache = from_cache;
  }
  if (memoize_shared && n.num_uses >= 2 && n.cacheable) memo_[id] = result;
  return result;
}

}  // namespace wuw
