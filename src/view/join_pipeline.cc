#include "view/join_pipeline.h"

#include <algorithm>
#include <set>

#include "common/check.h"
#include "expr/evaluator.h"
#include "plan/plan_executor.h"

namespace wuw {

namespace {

/// Index of the single source whose schema contains all `columns`, or -1 if
/// they span sources.  A conjunct that reads no column belongs to source 0,
/// so it runs at the first scan.
int SingleSourceOf(const std::vector<const Schema*>& inputs,
                   const std::vector<std::string>& columns) {
  if (columns.empty()) return 0;
  int found = -1;
  for (const std::string& col : columns) {
    int owner = -1;
    for (size_t s = 0; s < inputs.size(); ++s) {
      if (inputs[s]->HasColumn(col)) {
        owner = static_cast<int>(s);
        break;
      }
    }
    WUW_CHECK(owner >= 0, ("filter references unknown column: " + col).c_str());
    if (found == -1) found = owner;
    if (owner != found) return -1;
  }
  return found;
}

/// Largest source index that owns any of `columns` (the earliest join point
/// at which a multi-source conjunct can run).
int LastSourceOf(const std::vector<const Schema*>& inputs,
                 const std::vector<std::string>& columns) {
  int last = 0;
  for (const std::string& col : columns) {
    for (size_t s = 0; s < inputs.size(); ++s) {
      if (inputs[s]->HasColumn(col)) {
        last = std::max(last, static_cast<int>(s));
        break;
      }
    }
  }
  return last;
}

/// The raw-representation projection items: SPJ/group-key outputs plus one
/// "__argN" column per SUM argument.
std::vector<ProjectItem> RawProjectItems(const ViewDefinition& def) {
  std::vector<ProjectItem> items = def.projections();
  size_t arg_index = 0;
  for (const AggSpec& spec : def.aggregates()) {
    if (spec.fn == AggFn::kSum) {
      items.push_back(
          ProjectItem{spec.arg, "__arg" + std::to_string(arg_index)});
    }
    ++arg_index;
  }
  return items;
}

using ColumnNames = std::set<std::string>;

void AddColumns(const std::vector<std::string>& names, ColumnNames* out) {
  out->insert(names.begin(), names.end());
}

/// Positions of `schema`'s columns named in `need`, ascending.
std::vector<size_t> KeptPositions(const Schema& schema,
                                  const ColumnNames& need) {
  std::vector<size_t> kept;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (need.count(schema.column(c).name) != 0) kept.push_back(c);
  }
  return kept;
}

/// Lowers def's left-deep pipeline over per-source `schemas`.  Sources
/// [0, prefix_len) are the single subplan `prefix` (prefix_len 0: none);
/// `inputs[i - prefix_len]` is source i's subplan for the rest.
///
/// Single-source filter conjuncts run at their source's scan, the rest at
/// the first join step where all their columns exist; joins and filters
/// inside the prefix are assumed pre-applied there.  Column pruning: a
/// top-down pass works out which columns each step's consumers read (the
/// root's `root_need`, later join keys and step filters), and every Filter
/// and HashJoin keeps only those.  Leaves and the prefix keep their stored
/// schema; a narrowing never merges rows, so rows, order and stats are
/// those of the full-width pipeline.
PlanNodeId LowerPipeline(const ViewDefinition& def,
                         const std::vector<const Schema*>& schemas,
                         PlanNodeId prefix, size_t prefix_len,
                         const std::vector<PlanNodeId>& inputs,
                         const ColumnNames& root_need, PlanDag* dag) {
  const size_t n = def.num_sources();
  std::vector<std::vector<ScalarExpr::Ptr>> source_filters(n);
  std::vector<std::vector<ScalarExpr::Ptr>> step_filters(n);
  for (const ScalarExpr::Ptr& conjunct : def.filters()) {
    std::vector<std::string> cols = conjunct->ReferencedColumns();
    int single = SingleSourceOf(schemas, cols);
    if (single >= 0) {
      source_filters[single].push_back(conjunct);
    } else {
      step_filters[LastSourceOf(schemas, cols)].push_back(conjunct);
    }
  }

  const std::vector<JoinKeys> keys = JoinStepKeys(def, schemas, prefix_len);

  // need[i]: the columns the pipeline carries after step i (its join and
  // step filter); join_need[i]: what step i's join emits, which its step
  // filter reads too; right_need[i]: what source i's scan emits.
  const size_t first = prefix_len == 0 ? 1 : prefix_len;
  std::vector<ColumnNames> need(n), join_need(n), right_need(n);
  need[n - 1] = root_need;
  for (size_t i = n; i-- > first;) {
    join_need[i] = need[i];
    for (const ScalarExpr::Ptr& f : step_filters[i]) {
      AddColumns(f->ReferencedColumns(), &join_need[i]);
    }
    right_need[i] = join_need[i];
    AddColumns(keys[i].right_columns, &right_need[i]);
    need[i - 1] = join_need[i];
    AddColumns(keys[i].left_columns, &need[i - 1]);
  }

  auto scan = [&](size_t i, const ColumnNames& wanted) {
    PlanNodeId input = inputs[i - prefix_len];
    if (source_filters[i].empty()) return input;
    std::vector<size_t> kept = KeptPositions(dag->node(input).schema, wanted);
    return dag->InternFilter(input, ScalarExpr::AndAll(source_filters[i]),
                             &kept);
  };

  PlanNodeId acc = prefix_len == 0 ? scan(0, need[0]) : prefix;
  for (size_t i = first; i < n; ++i) {
    PlanNodeId right = scan(i, right_need[i]);
    std::vector<size_t> kept = KeptPositions(
        Schema::Concat(dag->node(acc).schema, dag->node(right).schema),
        join_need[i]);
    acc = dag->InternHashJoin(acc, right, keys[i], &kept);
    if (!step_filters[i].empty()) {
      std::vector<size_t> after = KeptPositions(dag->node(acc).schema, need[i]);
      acc = dag->InternFilter(acc, ScalarExpr::AndAll(step_filters[i]),
                              &after);
    }
  }
  return acc;
}

/// The columns a pipeline's root must carry for `width`.
ColumnNames RootNeed(const ViewDefinition& def,
                     const std::vector<const Schema*>& schemas,
                     PipelineWidth width) {
  ColumnNames need;
  if (width == PipelineWidth::kFull) {
    for (const Schema* schema : schemas) {
      for (const Column& col : schema->columns()) need.insert(col.name);
    }
    return need;
  }
  for (const ProjectItem& item : RawProjectItems(def)) {
    AddColumns(item.expr->ReferencedColumns(), &need);
  }
  return need;
}

}  // namespace

std::vector<JoinKeys> JoinStepKeys(const ViewDefinition& def,
                                   const std::vector<const Schema*>& schemas,
                                   size_t prefix_len) {
  auto owner_of = [&](const std::string& col) {
    for (size_t s = 0; s < schemas.size(); ++s) {
      if (schemas[s]->HasColumn(col)) return static_cast<int>(s);
    }
    WUW_CHECK(false, ("join references unknown column: " + col).c_str());
    return -1;
  };

  // Join step i's keys: every edge with one end in source i and the other
  // in an earlier source.  Edges inside the prefix are its own.
  std::vector<JoinKeys> keys(def.num_sources());
  for (const JoinCondition& jc : def.joins()) {
    int a = owner_of(jc.left_column);
    int b = owner_of(jc.right_column);
    WUW_CHECK(a != b, "join condition must span two distinct sources");
    if (std::max(a, b) < static_cast<int>(prefix_len)) continue;
    JoinKeys& k = keys[std::max(a, b)];
    k.left_columns.push_back(a < b ? jc.left_column : jc.right_column);
    k.right_columns.push_back(a < b ? jc.right_column : jc.left_column);
  }
  return keys;
}

PlanNodeId BuildJoinPlan(const ViewDefinition& def,
                         const std::vector<PlanNodeId>& inputs,
                         PipelineWidth width, PlanDag* dag) {
  WUW_CHECK(inputs.size() == def.num_sources(),
            "pipeline needs one input per definition source");
  std::vector<const Schema*> schemas;
  schemas.reserve(inputs.size());
  for (PlanNodeId id : inputs) schemas.push_back(&dag->node(id).schema);
  return LowerPipeline(def, schemas, /*prefix=*/-1, /*prefix_len=*/0, inputs,
                       RootNeed(def, schemas, width), dag);
}

PlanNodeId BuildJoinPlanFromPrefix(const ViewDefinition& def,
                                   const std::vector<const Schema*>& schemas,
                                   PlanNodeId prefix, size_t prefix_len,
                                   const std::vector<PlanNodeId>& suffix_inputs,
                                   PipelineWidth width, PlanDag* dag) {
  const size_t n = def.num_sources();
  WUW_CHECK(schemas.size() == n, "prefix pipeline needs all source schemas");
  WUW_CHECK(prefix_len >= 1 && prefix_len < n,
            "prefix must cover a strict, nonempty source prefix");
  WUW_CHECK(suffix_inputs.size() == n - prefix_len,
            "prefix pipeline needs one input per suffix source");
  return LowerPipeline(def, schemas, prefix, prefix_len, suffix_inputs,
                       RootNeed(def, schemas, width), dag);
}

PlanNodeId BuildRawProjectionPlan(const ViewDefinition& def, PlanNodeId joined,
                                  PlanDag* dag) {
  return dag->InternProject(joined, RawProjectItems(def));
}

namespace {

/// Lowers def over `inputs` at `width` (kRaw adds the raw projection) and
/// executes the plan with no cache attached.
Rows EvalPipeline(const ViewDefinition& def, const std::vector<Rows>& inputs,
                  PipelineWidth width, OperatorStats* stats) {
  PlanDag dag;
  std::vector<PlanNodeId> leaves;
  leaves.reserve(inputs.size());
  for (const Rows& r : inputs) leaves.push_back(dag.InternRowsScan(r));
  PlanNodeId root = BuildJoinPlan(def, leaves, width, &dag);
  if (width == PipelineWidth::kRaw) {
    root = BuildRawProjectionPlan(def, root, &dag);
  }
  PlanExecutor exec(dag, /*cache=*/nullptr);
  std::shared_ptr<const Rows> out = exec.Execute(root, stats);
  return *out;  // COW tuples: copying a batch only bumps refcounts
}

}  // namespace

Rows EvalJoinPipeline(const ViewDefinition& def, std::vector<Rows> inputs,
                      OperatorStats* stats) {
  return EvalPipeline(def, inputs, PipelineWidth::kFull, stats);
}

Rows EvalRawPipeline(const ViewDefinition& def, std::vector<Rows> inputs,
                     OperatorStats* stats) {
  return EvalPipeline(def, inputs, PipelineWidth::kRaw, stats);
}

Schema RawSchema(const ViewDefinition& def,
                 const ViewDefinition::SchemaResolver& resolver) {
  Schema combined;
  for (const std::string& src : def.sources()) {
    combined = Schema::Concat(combined, resolver(src));
  }
  std::vector<Column> cols;
  for (const ProjectItem& item : RawProjectItems(def)) {
    cols.push_back(
        Column{item.name, BoundExpr::Bind(item.expr, combined).result_type()});
  }
  return Schema(std::move(cols));
}

std::vector<AggSpec> RawAggSpecs(const ViewDefinition& def) {
  std::vector<AggSpec> specs;
  size_t arg_index = 0;
  for (const AggSpec& spec : def.aggregates()) {
    if (spec.fn == AggFn::kSum) {
      specs.push_back(AggSpec{
          AggFn::kSum,
          ScalarExpr::Column("__arg" + std::to_string(arg_index)), spec.name});
    } else {
      specs.push_back(AggSpec{AggFn::kCount, nullptr, spec.name});
    }
    ++arg_index;
  }
  return specs;
}

}  // namespace wuw
