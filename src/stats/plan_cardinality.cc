#include "stats/plan_cardinality.h"

#include <algorithm>

#include "stats/selectivity.h"
#include "stats/table_stats.h"

namespace wuw {

void AnnotatePlanCardinality(PlanDag* dag) {
  // Ids are topological, so one ascending pass sees children first.
  for (size_t i = 0; i < dag->size(); ++i) {
    PlanNode* n = dag->mutable_node(static_cast<PlanNodeId>(i));
    switch (n->kind) {
      case PlanNodeKind::kScanTable:
      case PlanNodeKind::kScanDelta:
      case PlanNodeKind::kScanRows:
        n->est_output_rows = static_cast<double>(n->input_rows);
        n->est_recompute_cost = static_cast<double>(n->input_rows);
        break;
      case PlanNodeKind::kFilter: {
        const PlanNode& c = dag->node(n->children[0]);
        // No column stats are attached to intermediate schemas; the
        // estimator falls back to its per-predicate defaults, which is
        // enough to rank subplans for eviction.
        double sel =
            EstimateSelectivity(n->filter.predicate, c.schema, TableStats{});
        n->est_output_rows = c.est_output_rows * sel;
        n->est_recompute_cost = c.est_recompute_cost + c.est_output_rows;
        break;
      }
      case PlanNodeKind::kProject: {
        const PlanNode& c = dag->node(n->children[0]);
        n->est_output_rows = c.est_output_rows;
        n->est_recompute_cost = c.est_recompute_cost + c.est_output_rows;
        break;
      }
      case PlanNodeKind::kHashJoin: {
        const PlanNode& l = dag->node(n->children[0]);
        const PlanNode& r = dag->node(n->children[1]);
        // Foreign-key heuristic: an equi-join keeps about the smaller
        // side's cardinality (each probe matches ~1 build row).
        n->est_output_rows = std::min(l.est_output_rows, r.est_output_rows);
        n->est_recompute_cost = l.est_recompute_cost + r.est_recompute_cost +
                                l.est_output_rows + r.est_output_rows;
        break;
      }
    }
  }
}

}  // namespace wuw
