// Naive reference kernels: the oracle the in-memory operators
// (algebra/vectorized.h) and their WUW_MEM_MB spill routes are checked
// against.
//
// Deliberately plain and independent of the engine's kernels: one
// BoundExpr::Eval per tuple, and joins and group-bys that meet equal keys
// in a std::map over the input's tuples (testutil::RowsOf) — no kernel
// code, no hashing, no PlanDag.  (A nested-loop join or linear-scan group-by is
// simpler still, but quadratic: too slow for the 6k-24k-row inputs under
// the sanitizer builds.)  They emit rows in the order the kernels document
// (input order; join: probe rows ascending, then build rows descending;
// aggregate: groups in first-occurrence order) and charge OperatorStats
// from the kernels' formulas, so a test can compare rows, row ORDER and
// stats byte for byte.
#ifndef WUW_TESTS_REFERENCE_REFERENCE_KERNELS_H_
#define WUW_TESTS_REFERENCE_REFERENCE_KERNELS_H_

#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "algebra/aggregate.h"
#include "algebra/hash_join.h"
#include "algebra/operator_stats.h"
#include "algebra/project.h"
#include "algebra/rows.h"
#include "expr/evaluator.h"
#include "../test_util.h"

namespace wuw::reference {

/// Rows satisfying `predicate`, in input order; zero multiplicities are
/// dropped (they are no rows).
inline Rows Filter(const Rows& input, const ScalarExpr::Ptr& predicate,
                   OperatorStats* stats) {
  const BoundExpr bound = BoundExpr::Bind(predicate, input.schema);
  Rows out(input.schema);
  for (const auto& [tuple, count] : testutil::RowsOf(input)) {
    stats->rows_scanned += std::llabs(count);
    if (!bound.EvalBool(tuple)) continue;
    stats->rows_produced += std::llabs(count);
    out.Add(tuple, count);
  }
  return out;
}

/// One output row per input row, in input order, multiplicity verbatim.
inline Rows Project(const Rows& input, const std::vector<ProjectItem>& items,
                    OperatorStats* stats) {
  std::vector<BoundExpr> bound;
  std::vector<Column> columns;
  for (const ProjectItem& item : items) {
    bound.push_back(BoundExpr::Bind(item.expr, input.schema));
    columns.push_back(Column{item.name, bound.back().result_type()});
  }
  RowVec out;
  for (const auto& [tuple, count] : testutil::RowsOf(input)) {
    stats->rows_scanned += std::llabs(count);
    stats->rows_produced += std::llabs(count);
    std::vector<Value> values;
    for (const BoundExpr& b : bound) values.push_back(b.Eval(tuple));
    out.emplace_back(Tuple(std::move(values)), count);
  }
  return testutil::MakeRows(Schema(std::move(columns)), out);
}

/// Equi-join, left ++ right: for each left (probe) row in ascending order,
/// every right (build) row in descending order whose key cells are
/// Value-equal (NULL matches NULL); zero products are dropped.
inline Rows Join(const Rows& left, const Rows& right, const JoinKeys& keys,
                 OperatorStats* stats) {
  std::vector<size_t> lidx, ridx;
  for (const std::string& c : keys.left_columns) {
    lidx.push_back(left.schema.MustIndexOf(c));
  }
  for (const std::string& c : keys.right_columns) {
    ridx.push_back(right.schema.MustIndexOf(c));
  }
  // Tuple order agrees with Value equality, so equal keys meet in the map.
  const RowVec build = testutil::RowsOf(right);
  std::map<Tuple, std::vector<size_t>> build_rows;
  for (size_t j = 0; j < build.size(); ++j) {
    stats->rows_scanned += std::llabs(build[j].second);
    stats->hash_build_rows += 1;
    build_rows[build[j].first.Project(ridx)].push_back(j);
  }
  Rows out(Schema::Concat(left.schema, right.schema));
  for (const auto& [ltuple, lcount] : testutil::RowsOf(left)) {
    stats->rows_scanned += std::llabs(lcount);
    stats->hash_probes += 1;
    auto it = build_rows.find(ltuple.Project(lidx));
    if (it == build_rows.end()) continue;
    for (auto j = it->second.rbegin(); j != it->second.rend(); ++j) {
      const auto& [rtuple, rcount] = build[*j];
      stats->rows_produced += std::llabs(lcount * rcount);
      out.Add(Tuple::Concat(ltuple, rtuple), lcount * rcount);
    }
  }
  return out;
}

/// Ordered-map signed group-by: group columns, one column per AggSpec
/// (integer SUMs exact in int64, others in double; NULL arguments add
/// nothing; COUNT adds the multiplicity), then the __count column.  Groups
/// emit in first-occurrence order, +1-weighted, skipping groups whose
/// aggregates and count are all zero.
inline Rows Aggregate(const Rows& input, const std::vector<std::string>& group_by,
                      const std::vector<AggSpec>& aggs, OperatorStats* stats) {
  std::vector<size_t> key_idx;
  std::vector<Column> columns;
  for (const std::string& name : group_by) {
    key_idx.push_back(input.schema.MustIndexOf(name));
    columns.push_back(input.schema.column(key_idx.back()));
  }
  std::vector<BoundExpr> args(aggs.size());
  std::vector<bool> is_int(aggs.size(), true);
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].fn == AggFn::kSum) {
      args[a] = BoundExpr::Bind(aggs[a].arg, input.schema);
      is_int[a] = args[a].result_type() == TypeId::kInt64;
    }
    columns.push_back(
        Column{aggs[a].name, is_int[a] ? TypeId::kInt64 : TypeId::kDouble});
  }
  columns.push_back(Column{kGroupCountColumn, TypeId::kInt64});

  struct Group {
    Tuple key;
    std::vector<int64_t> ints;
    std::vector<double> dbls;
    int64_t count = 0;
  };
  std::map<Tuple, size_t> index;
  std::vector<Group> groups;
  for (const auto& [tuple, mult] : testutil::RowsOf(input)) {
    stats->rows_scanned += std::llabs(mult);
    Tuple key = tuple.Project(key_idx);
    auto [it, fresh] = index.emplace(key, groups.size());
    if (fresh) {
      groups.push_back(Group{std::move(key),
                             std::vector<int64_t>(aggs.size(), 0),
                             std::vector<double>(aggs.size(), 0.0), 0});
    }
    Group& group = groups[it->second];
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (aggs[a].fn == AggFn::kCount) {
        group.ints[a] += mult;
        continue;
      }
      const Value v = args[a].Eval(tuple);
      if (v.is_null()) continue;
      if (is_int[a]) {
        group.ints[a] += mult * v.AsInt64();
      } else {
        group.dbls[a] += static_cast<double>(mult) * v.NumericValue();
      }
    }
    group.count += mult;
  }

  Rows out((Schema(std::move(columns))));
  for (const Group& group : groups) {
    bool all_zero = group.count == 0;
    for (size_t a = 0; a < aggs.size() && all_zero; ++a) {
      all_zero = is_int[a] ? group.ints[a] == 0 : group.dbls[a] == 0.0;
    }
    if (all_zero) continue;
    Tuple row = group.key;
    for (size_t a = 0; a < aggs.size(); ++a) {
      row.Append(is_int[a] ? Value::Int64(group.ints[a])
                           : Value::Double(group.dbls[a]));
    }
    row.Append(Value::Int64(group.count));
    out.Add(std::move(row), 1);
    stats->rows_produced += 1;
  }
  return out;
}

}  // namespace wuw::reference

#endif  // WUW_TESTS_REFERENCE_REFERENCE_KERNELS_H_
