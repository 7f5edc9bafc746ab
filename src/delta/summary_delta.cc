#include "delta/summary_delta.h"

#include <unordered_map>

#include "algebra/aggregate.h"
#include "common/check.h"
#include "view/join_pipeline.h"

namespace wuw {

DeltaRelation FinalizeSpjDelta(const Schema& output_schema, const Rows& raw,
                               OperatorStats* stats) {
  DeltaRelation delta(output_schema);
  for (const auto& [tuple, count] : raw.rows()) {
    delta.Add(tuple, count);
    if (stats != nullptr) stats->rows_scanned += std::llabs(count);
  }
  return delta;
}

DeltaRelation FinalizeAggregateDelta(const ViewDefinition& def,
                                     const Table& current, const Rows& raw,
                                     OperatorStats* stats) {
  const Schema& out_schema = current.schema();
  const size_t num_keys = def.projections().size();
  const size_t num_aggs = def.aggregates().size();
  WUW_CHECK(out_schema.num_columns() == num_keys + num_aggs + 1,
            "aggregate view schema must be keys + aggregates + __count");

  DeltaRelation delta(out_schema);
  // Per-group change summary.
  Rows summary =
      AggregateSigned(raw, def.GroupKeyNames(), RawAggSpecs(def), stats);
  if (summary.empty()) return delta;

  // Index the current extent by group key.  (A production system would keep
  // a key index on the summary table; a one-pass scan models the same
  // merge-style install and costs the same for every strategy, so it never
  // affects strategy comparisons.)
  std::vector<size_t> key_idx;
  for (size_t i = 0; i < num_keys; ++i) key_idx.push_back(i);
  std::unordered_map<Tuple, Tuple, TupleHash> current_by_key;
  current_by_key.reserve(current.distinct_size());
  current.ForEach([&](const Tuple& row, int64_t count) {
    WUW_CHECK(count == 1, "aggregate view rows must have multiplicity 1");
    current_by_key.emplace(row.Project(key_idx), row);
    if (stats != nullptr) stats->rows_scanned += 1;
  });

  for (const auto& [srow, smult] : summary.rows()) {
    WUW_CHECK(smult == 1, "summary rows are +1 weighted");
    Tuple key = srow.Project(key_idx);

    auto it = current_by_key.find(key);
    const Tuple* old_row = it == current_by_key.end() ? nullptr : &it->second;

    int64_t old_count =
        old_row ? old_row->value(num_keys + num_aggs).AsInt64() : 0;
    int64_t delta_count = srow.value(num_keys + num_aggs).AsInt64();
    int64_t new_count = old_count + delta_count;
    WUW_CHECK(new_count >= 0,
              "group count went negative: inconsistent delta batch");

    Tuple new_row = key;
    for (size_t a = 0; a < num_aggs; ++a) {
      const Value& dv = srow.value(num_keys + a);
      if (old_row == nullptr) {
        new_row.Append(dv);
      } else {
        const Value& ov = old_row->value(num_keys + a);
        if (ov.type() == TypeId::kDouble || dv.type() == TypeId::kDouble) {
          new_row.Append(Value::Double(ov.NumericValue() + dv.NumericValue()));
        } else {
          new_row.Append(Value::Int64(ov.AsInt64() + dv.AsInt64()));
        }
      }
    }
    new_row.Append(Value::Int64(new_count));

    if (old_row != nullptr) delta.Add(*old_row, -1);
    if (new_count > 0) delta.Add(new_row, +1);
    if (stats != nullptr) stats->rows_produced += 1;
  }
  return delta;
}

}  // namespace wuw
