// The physical-plan layer: typed plan nodes interned into a DAG.
//
// A maintenance term (or a full recompute) lowers into a tree of plan nodes
// — scan / delta-scan / filter / project / hash-join — instead
// of executing eagerly.  Trees are built through PlanDag, which performs
// common-subexpression elimination at construction: every node carries a
// canonical fingerprint of (operator, parameters, children), and interning
// a node whose fingerprint already exists returns the existing node.  The
// 2^|Y|-1 terms of one Comp expression therefore share their common join
// prefixes structurally (Mistry et al., "Materialized View Selection and
// Maintenance Using Multi-Query Optimization"), and the interior nodes'
// fingerprints double as keys of the cross-expression SubplanCache.
//
// Fingerprints of extent scans embed the view's extent version and the
// warehouse batch epoch (see exec/warehouse.h): a cached subplan can never
// be served after an Inst rewrote one of its operands or after a new change
// batch arrived, because the key itself changes.
#ifndef WUW_PLAN_PLAN_NODE_H_
#define WUW_PLAN_PLAN_NODE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/filter.h"
#include "algebra/hash_join.h"
#include "algebra/project.h"
#include "algebra/rows.h"
#include "delta/delta_relation.h"
#include "storage/table.h"

namespace wuw {

enum class PlanNodeKind : uint8_t {
  kScanTable,  // materialize a view's current extent
  kScanDelta,  // materialize a pending/finalized delta relation
  kScanRows,   // a caller-supplied Rows batch (never cacheable)
  kFilter,
  kProject,
  kHashJoin,
};

/// Index of a node within its PlanDag.
using PlanNodeId = int32_t;

/// One operator of a physical plan.  Leaves reference their operand
/// in place (tables / deltas / rows outlive the DAG); interior nodes hold
/// their algebra kernel (uniform Run(inputs, stats) signature).
struct PlanNode {
  PlanNodeKind kind;
  std::vector<PlanNodeId> children;
  /// Output schema, computed at intern time (filters keep their kept
  /// columns of the child's, joins of the concatenation, projections bind
  /// their expressions).
  Schema schema;
  /// Canonical identity: equal fingerprints ⇒ equal results.  Used for CSE
  /// within a DAG and as the SubplanCache key across DAGs.
  std::string fingerprint;
  /// False iff the subtree reads a kScanRows leaf, whose identity is only a
  /// pointer — such results must never outlive the caller's batch.
  bool cacheable = true;
  /// Number of parent edges across the whole DAG; ≥ 2 means the subplan is
  /// shared by several terms (the memoization payoff).
  int num_uses = 0;
  /// True iff the subtree reads a kScanDelta leaf: a join evaluates such
  /// a child first (plan/plan_executor.h).
  bool reads_delta = false;

  // Leaf payloads (exactly one non-null for scan kinds).
  const Table* table = nullptr;
  const DeltaRelation* delta = nullptr;
  const Rows* rows = nullptr;
  /// Source view name for kScanTable / kScanDelta (diagnostics).
  std::string relation;

  // Interior kernels (selected by kind).
  FilterKernel filter;
  ProjectKernel project;
  HashJoinKernel join;

  // Annotations filled by stats/plan_cardinality.h.
  /// Exact operand size for leaves (|V| or |δV|); 0 for interior nodes.
  int64_t input_rows = 0;
  /// Estimated output cardinality (System-R composition).
  double est_output_rows = 0;
  /// Estimated rows the engine touches to rebuild this subtree from its
  /// leaves — the SubplanCache evicts low-cost (cheap-to-recompute)
  /// entries first.
  double est_recompute_cost = 0;

  bool is_leaf() const {
    return kind == PlanNodeKind::kScanTable ||
           kind == PlanNodeKind::kScanDelta || kind == PlanNodeKind::kScanRows;
  }
};

/// An arena of plan nodes with fingerprint interning (CSE).  Children are
/// always interned before parents, so node ids are a topological order.
class PlanDag {
 public:
  /// Leaf over a view's extent.  `version` and `epoch` come from the
  /// warehouse (Warehouse::extent_version / batch_epoch); pass 0/0 when no
  /// cross-expression cache is attached.
  PlanNodeId InternTableScan(const std::string& name, const Table& table,
                             int64_t version, int64_t epoch);
  /// Leaf over a delta relation.  Delta contents are stable for the life of
  /// one batch epoch (base deltas are fixed; derived deltas finalize once).
  PlanNodeId InternDeltaScan(const std::string& name,
                             const DeltaRelation& delta, int64_t epoch);
  /// Leaf over caller-owned Rows; never cacheable (pointer identity only).
  PlanNodeId InternRowsScan(const Rows& rows);

  /// A filter or join emits the columns at positions `columns` (ascending)
  /// of its child's schema (the join: of left ++ right); null keeps every
  /// column.  A narrowed node's fingerprint lists the kept positions.
  PlanNodeId InternFilter(PlanNodeId child, ScalarExpr::Ptr predicate,
                          const std::vector<size_t>* columns = nullptr);
  PlanNodeId InternProject(PlanNodeId child, std::vector<ProjectItem> items);
  PlanNodeId InternHashJoin(PlanNodeId left, PlanNodeId right, JoinKeys keys,
                            const std::vector<size_t>* columns = nullptr);

  size_t size() const { return nodes_.size(); }
  const PlanNode& node(PlanNodeId id) const { return nodes_[id]; }
  PlanNode* mutable_node(PlanNodeId id) { return &nodes_[id]; }

  /// Debug rendering, one node per line.
  std::string ToString() const;

 private:
  /// Interns `node` (children/fingerprint already set): returns the
  /// existing id on a fingerprint match, else appends.  Bumps children's
  /// num_uses exactly once per parent edge.
  PlanNodeId Intern(PlanNode node);

  std::vector<PlanNode> nodes_;
  std::unordered_map<std::string, PlanNodeId> by_fingerprint_;
};

/// Short operator label for EXPLAIN / observation output, e.g.
/// "HashJoin", "ScanDelta(dOrders)".
std::string PlanNodeLabel(const PlanNode& node);

}  // namespace wuw

#endif  // WUW_PLAN_PLAN_NODE_H_
