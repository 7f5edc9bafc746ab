#include "delta/summary_delta.h"

#include <unordered_map>

#include "algebra/aggregate.h"
#include "common/check.h"
#include "storage/column_table.h"
#include "view/join_pipeline.h"

namespace wuw {

DeltaRelation FinalizeSpjDelta(const Schema& output_schema, const Rows& raw,
                               OperatorStats* stats) {
  DeltaRelation delta(output_schema);
  std::shared_ptr<const ColumnTable> image = raw.Columnar();
  for (size_t i = 0; i < image->num_rows(); ++i) {
    const int64_t count = image->mult()[i];
    delta.Add(image->TupleAt(i), count);
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

  // Find each changed group's current row: one pass over the extent's
  // image hashing only the key columns (the leading ones), materializing
  // only the rows that match.  (A production system would keep a key index
  // on the summary table; a one-pass scan models the same merge-style
  // install and costs the same for every strategy, so it never affects
  // strategy comparisons.)
  std::vector<size_t> key_idx;
  for (size_t i = 0; i < num_keys; ++i) key_idx.push_back(i);
  std::shared_ptr<const ColumnTable> changes = summary.Columnar();
  const size_t num_changes = changes->num_rows();
  std::vector<Tuple> keys;
  keys.reserve(num_changes);
  std::unordered_multimap<uint64_t, size_t> by_hash;
  for (size_t s = 0; s < num_changes; ++s) {
    keys.push_back(changes->TupleAt(s).Project(key_idx));
    by_hash.emplace(ColumnTable::TupleRowHash(keys.back()), s);
  }
  std::vector<Tuple> old_rows(num_changes);  // empty: no current row
  std::shared_ptr<const ColumnTable> image = current.ColumnarSnapshot();
  for (size_t i = 0; i < image->num_rows(); ++i) {
    WUW_CHECK(image->mult()[i] == 1,
              "aggregate view rows must have multiplicity 1");
    auto [first, last] = by_hash.equal_range(image->PrefixHash(i, num_keys));
    for (auto it = first; it != last; ++it) {
      if (image->PrefixEquals(i, keys[it->second])) {
        old_rows[it->second] = image->TupleAt(i);
      }
    }
  }
  if (stats != nullptr) {
    stats->rows_scanned += static_cast<int64_t>(image->num_rows());
  }

  for (size_t s = 0; s < num_changes; ++s) {
    const Tuple srow = changes->TupleAt(s);
    WUW_CHECK(changes->mult()[s] == 1, "summary rows are +1 weighted");
    const Tuple& key = keys[s];
    const Tuple* old_row = old_rows[s].size() > 0 ? &old_rows[s] : nullptr;

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
