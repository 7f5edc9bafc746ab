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
  // The raw projection emits one row per joined row, with its
  // multiplicity, so its size is the join's.
  Rows raw = EvalRawPipeline(def, std::move(inputs), stats);
  if (join_rows != nullptr) *join_rows = raw.AbsCardinality();

  auto resolver = [&](const std::string& name) -> const Schema& {
    return source(name).schema();
  };
  Table out(def.OutputSchema(resolver));
  const Rows rows =
      def.is_aggregate()
          ? AggregateSigned(raw, def.GroupKeyNames(), RawAggSpecs(def), stats)
          : raw;
  std::shared_ptr<const ColumnTable> image = rows.Columnar();
  for (size_t i = 0; i < image->num_rows(); ++i) {
    out.Add(image->TupleAt(i), image->mult()[i]);
  }
  return out;
}

}  // namespace wuw
