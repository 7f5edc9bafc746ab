#include "view/recompute.h"

#include "algebra/aggregate.h"
#include "view/join_pipeline.h"

namespace wuw {

Table RecomputeView(const ViewDefinition& def, const Catalog& catalog,
                    OperatorStats* stats, int64_t* join_rows) {
  return RecomputeView(
      def,
      [&catalog](const std::string& name) -> const Table& {
        return *catalog.MustGetTable(name);
      },
      stats, join_rows);
}

Table RecomputeView(const ViewDefinition& def, const TableSource& source,
                    OperatorStats* stats, int64_t* join_rows) {
  std::vector<Rows> inputs;
  inputs.reserve(def.num_sources());
  for (const std::string& src : def.sources()) {
    inputs.push_back(Rows::FromTable(source(src)));
  }
  Rows joined = EvalJoinPipeline(def, std::move(inputs), stats);
  if (join_rows != nullptr) *join_rows = joined.AbsCardinality();
  Rows raw = ProjectToRaw(def, joined, stats);

  auto resolver = [&](const std::string& name) -> const Schema& {
    return source(name).schema();
  };
  Table out(def.OutputSchema(resolver));
  if (def.is_aggregate()) {
    Rows aggregated =
        AggregateSigned(raw, def.GroupKeyNames(), RawAggSpecs(def), stats);
    for (const auto& [tuple, count] : aggregated.rows()) out.Add(tuple, count);
  } else {
    for (const auto& [tuple, count] : raw.rows()) out.Add(tuple, count);
  }
  return out;
}

}  // namespace wuw
