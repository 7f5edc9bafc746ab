// Shared join/filter pipeline used by both full recomputation and
// maintenance-term evaluation.
//
// A term of a maintenance expression is "the view definition's join with
// some sources replaced by their deltas" — so both paths run the same
// left-deep pipeline over per-source inputs, differing only in what those
// inputs are.  The pipeline mirrors a stored procedure's fixed plan
// (Section 5.5): sources join in definition order, single-source filter
// conjuncts are applied at the scans, and multi-source conjuncts as soon as
// their columns are available.
//
// The pipeline is *lowered*, not interpreted: BuildJoinPlan emits the
// operator tree into a PlanDag (plan/plan_node.h), where fingerprint
// interning unifies the join prefixes shared by a Comp's many terms.
// Lowering prunes columns, as a stored procedure's optimizer projects
// early: each Filter and HashJoin carries only the columns something above
// it reads.  Comp terms and full recomputation (EvalRawPipeline) lower the
// same pruned way; EvalJoinPipeline is the one-shot full-width wrapper.
#ifndef WUW_VIEW_JOIN_PIPELINE_H_
#define WUW_VIEW_JOIN_PIPELINE_H_

#include <vector>

#include "algebra/operator_stats.h"
#include "algebra/rows.h"
#include "plan/plan_node.h"
#include "view/view_definition.h"

namespace wuw {

/// The columns a lowered join pipeline's root carries.
enum class PipelineWidth {
  /// Every column of the concatenated source schema; nothing is pruned.
  kFull,
  /// Only the columns the raw projection (BuildRawProjectionPlan) reads.
  /// Every Filter and HashJoin below keeps only what its consumers read.
  kRaw,
};

/// Lowers def's join graph and filters over `inputs` — one subplan id per
/// definition source, in definition order — into `dag`, returning the root
/// of the joined pipeline.  Its rows, row order and multiplicities are
/// those of the join over the concatenated source schema at either width;
/// its schema keeps, in source order, the columns `width` asks for.
/// Leaves keep their schema; each Filter and HashJoin emits the columns
/// later join keys, step filters and the root read (the narrowing is in
/// its fingerprint, plan/plan_node.h).
PlanNodeId BuildJoinPlan(const ViewDefinition& def,
                         const std::vector<PlanNodeId>& inputs,
                         PipelineWidth width, PlanDag* dag);

/// BuildJoinPlan with the first `prefix_len` sources replaced by the single
/// subplan `prefix` (an aux-view scan, plan/aux_view.h): joins and filters
/// entirely inside the prefix are assumed pre-applied there, and the
/// remaining steps lower exactly as BuildJoinPlan would lower them —
/// `prefix`'s schema is the concatenated (filtered, joined) prefix schema,
/// which the aux table stores unpruned, so edge classification and filter
/// placement are unchanged.  `schemas` holds the per-source input schemas
/// for ALL of def's sources (the prefix members too, for ownership
/// resolution); `suffix_inputs` holds one subplan per source at index >=
/// prefix_len, in definition order.
PlanNodeId BuildJoinPlanFromPrefix(const ViewDefinition& def,
                                   const std::vector<const Schema*>& schemas,
                                   PlanNodeId prefix, size_t prefix_len,
                                   const std::vector<PlanNodeId>& suffix_inputs,
                                   PipelineWidth width, PlanDag* dag);

/// Lowers the projection to the view's "raw" representation over the
/// joined pipeline `joined` (lowered at PipelineWidth::kRaw or kFull):
///  - SPJ view: the output tuples themselves;
///  - aggregate view: group keys + one "__argN" column per SUM argument
///    (COUNT needs no argument), pre-aggregation.
/// Raw rows are what Comp expressions accumulate; see maintenance.h.
PlanNodeId BuildRawProjectionPlan(const ViewDefinition& def, PlanNodeId joined,
                                  PlanDag* dag);

/// Joins `inputs` (one Rows per definition source, in definition order)
/// according to def's join graph and filters.  Returns rows over the
/// concatenated source schema (PipelineWidth::kFull).
Rows EvalJoinPipeline(const ViewDefinition& def, std::vector<Rows> inputs,
                      OperatorStats* stats);

/// The raw rows of def over `inputs`: the kRaw pipeline plus the raw
/// projection, executed once with no cache (full recomputation).
Rows EvalRawPipeline(const ViewDefinition& def, std::vector<Rows> inputs,
                     OperatorStats* stats);

/// Schema of the raw rows (BuildRawProjectionPlan's output).
Schema RawSchema(const ViewDefinition& def,
                 const ViewDefinition::SchemaResolver& resolver);

/// Aggregate specs rewritten to run over the raw schema (SUM(__argN) /
/// COUNT), shared by recompute and summary-delta finalization.
std::vector<AggSpec> RawAggSpecs(const ViewDefinition& def);

}  // namespace wuw

#endif  // WUW_VIEW_JOIN_PIPELINE_H_
