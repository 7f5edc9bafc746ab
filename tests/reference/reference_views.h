// Naive whole-view evaluator: the ground truth the convergence, random
// VDAG, fault, paged, aux and crash suites check the warehouse against
// (testutil::GroundTruthAfterChanges).
//
// It shares nothing with the engine it checks beyond the value types
// (Value, Tuple, Schema) and the definition objects (ViewDefinition,
// ScalarExpr, Vdag): relations are plain (tuple, multiplicity) vectors,
// expressions run through the interpreter below, joins are index nested
// loops over a std::map from key tuple to row positions, and group-bys
// collect in a std::map.  No Rows, Table, ColumnTable, hashing, PlanDag or
// kernel is involved, so a bug in lowering, column pruning, a kernel or
// storage cannot corrupt the view and its truth the same way.
//
// What the engine promises, restated from the paper's view language:
//  - a view is the left-deep join of its sources in definition order
//    (probe rows ascending, each probe row's matches in descending build
//    order), filtered by every WHERE conjunct, then projected (SPJ) or
//    grouped with signed SUM/COUNT plus a __count column (aggregate);
//  - key cells match under Value equality (NULL matches NULL, NaN matches
//    nothing); comparisons with a NULL operand are false; integer
//    arithmetic is exact except division, which is double, and x/0 is
//    NULL;
//  - an aggregate emits its groups in first-occurrence order, +1-weighted,
//    skipping groups whose aggregates and count are all zero; double SUMs
//    accumulate in join-output order, so they match to the bit.
#ifndef WUW_TESTS_REFERENCE_REFERENCE_VIEWS_H_
#define WUW_TESTS_REFERENCE_REFERENCE_VIEWS_H_

#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "expr/scalar_expr.h"
#include "graph/vdag.h"
#include "storage/schema.h"
#include "storage/tuple.h"
#include "view/view_definition.h"

namespace wuw::reference {

/// A relation: (tuple, signed multiplicity) pairs, in order.
using Relation = std::vector<std::pair<Tuple, int64_t>>;

namespace views_detail {

inline bool IsNumeric(TypeId t) {
  return t == TypeId::kInt64 || t == TypeId::kDouble || t == TypeId::kDate;
}

/// Static result type of `e` over `schema` (the binder's rules: integer
/// arithmetic stays int64 except division; predicates are int64).
inline TypeId TypeOf(const ScalarExpr& e, const Schema& schema) {
  switch (e.kind()) {
    case ExprKind::kColumn:
      return schema.column(schema.MustIndexOf(e.column_name())).type;
    case ExprKind::kLiteral:
      return e.literal().type();
    case ExprKind::kArith:
      return TypeOf(*e.lhs(), schema) == TypeId::kInt64 &&
                     TypeOf(*e.rhs(), schema) == TypeId::kInt64 &&
                     e.arith_op() != ArithOp::kDiv
                 ? TypeId::kInt64
                 : TypeId::kDouble;
    default:
      return TypeId::kInt64;
  }
}

inline bool Truth(const Value& v) {
  if (v.is_null()) return false;
  if (v.type() == TypeId::kString) return !v.AsString().empty();
  return v.NumericValue() != 0.0;
}

/// Value of `e` on `row` over `schema`.
inline Value Eval(const ScalarExpr& e, const Schema& schema, const Tuple& row) {
  switch (e.kind()) {
    case ExprKind::kColumn:
      return row.value(schema.MustIndexOf(e.column_name()));
    case ExprKind::kLiteral:
      return e.literal();
    case ExprKind::kArith: {
      const Value l = Eval(*e.lhs(), schema, row);
      const Value r = Eval(*e.rhs(), schema, row);
      if (l.is_null() || r.is_null()) return Value::Null();
      if (l.type() == TypeId::kInt64 && r.type() == TypeId::kInt64 &&
          e.arith_op() != ArithOp::kDiv) {
        const int64_t a = l.AsInt64(), b = r.AsInt64();
        if (e.arith_op() == ArithOp::kAdd) return Value::Int64(a + b);
        if (e.arith_op() == ArithOp::kSub) return Value::Int64(a - b);
        return Value::Int64(a * b);
      }
      const double a = l.NumericValue(), b = r.NumericValue();
      switch (e.arith_op()) {
        case ArithOp::kAdd:
          return Value::Double(a + b);
        case ArithOp::kSub:
          return Value::Double(a - b);
        case ArithOp::kMul:
          return Value::Double(a * b);
        case ArithOp::kDiv:
          return b == 0.0 ? Value::Null() : Value::Double(a / b);
      }
      return Value::Null();
    }
    case ExprKind::kCompare: {
      const Value l = Eval(*e.lhs(), schema, row);
      const Value r = Eval(*e.rhs(), schema, row);
      if (l.is_null() || r.is_null()) return Value::Int64(0);
      bool holds = false;
      switch (e.compare_op()) {
        case CompareOp::kEq:
          holds = l == r;
          break;
        case CompareOp::kNe:
          holds = !(l == r);
          break;
        case CompareOp::kLt:
          holds = l < r;
          break;
        case CompareOp::kLe:
          holds = !(r < l);
          break;
        case CompareOp::kGt:
          holds = r < l;
          break;
        case CompareOp::kGe:
          holds = !(l < r);
          break;
      }
      return Value::Int64(holds ? 1 : 0);
    }
    case ExprKind::kLogical: {
      const bool l = Truth(Eval(*e.lhs(), schema, row));
      const bool r = Truth(Eval(*e.rhs(), schema, row));
      return Value::Int64(
          (e.logical_op() == LogicalOp::kAnd ? l && r : l || r) ? 1 : 0);
    }
    case ExprKind::kNot:
      return Value::Int64(Truth(Eval(*e.lhs(), schema, row)) ? 0 : 1);
  }
  return Value::Null();
}

/// A key with a NaN cell equals no key (NaN != NaN), so it never joins;
/// every other key orders consistently with Value equality.
inline bool Joinable(const Tuple& key) {
  for (const Value& v : key.values()) {
    if (v.type() == TypeId::kDouble && std::isnan(v.AsDouble())) return false;
  }
  return true;
}

/// Keeps the rows of `rel` that satisfy every conjunct in `conjuncts`.
inline Relation Where(const Relation& rel, const Schema& schema,
                      const std::vector<ScalarExpr::Ptr>& conjuncts) {
  if (conjuncts.empty()) return rel;
  Relation out;
  for (const auto& [row, mult] : rel) {
    bool keep = true;
    for (const ScalarExpr::Ptr& c : conjuncts) {
      keep = keep && Truth(Eval(*c, schema, row));
    }
    if (keep) out.emplace_back(row, mult);
  }
  return out;
}

/// True once every column `e` reads is in `schema`.
inline bool Covered(const ScalarExpr& e, const Schema& schema) {
  for (const std::string& col : e.ReferencedColumns()) {
    if (!schema.HasColumn(col)) return false;
  }
  return true;
}

}  // namespace views_detail

/// Contents of the view `def` over its sources, given as `inputs[i]` with
/// schema `schemas[i]` per definition source.  SPJ rows may repeat; an
/// aggregate emits one +1-weighted row per live group.
inline Relation EvalView(const ViewDefinition& def,
                         const std::vector<const Relation*>& inputs,
                         const std::vector<Schema>& schemas) {
  using namespace views_detail;
  std::vector<ScalarExpr::Ptr> pending = def.filters();
  // Runs (and retires) every pending conjunct whose columns `schema` has.
  auto apply_ready = [&pending](const Relation& rel, const Schema& schema) {
    std::vector<ScalarExpr::Ptr> ready, later;
    for (const ScalarExpr::Ptr& c : pending) {
      (Covered(*c, schema) ? ready : later).push_back(c);
    }
    pending = later;
    return Where(rel, schema, ready);
  };

  Schema schema = schemas[0];
  Relation acc = apply_ready(*inputs[0], schema);
  std::set<size_t> used_edges;
  for (size_t i = 1; i < inputs.size(); ++i) {
    const Schema& right = schemas[i];
    // Step i's keys: the edges from source i to a source already joined.
    std::vector<size_t> lkey, rkey;
    for (size_t e = 0; e < def.joins().size(); ++e) {
      const JoinCondition& jc = def.joins()[e];
      if (used_edges.count(e) != 0) continue;
      if (schema.HasColumn(jc.left_column) && right.HasColumn(jc.right_column)) {
        lkey.push_back(schema.MustIndexOf(jc.left_column));
        rkey.push_back(right.MustIndexOf(jc.right_column));
      } else if (schema.HasColumn(jc.right_column) &&
                 right.HasColumn(jc.left_column)) {
        lkey.push_back(schema.MustIndexOf(jc.right_column));
        rkey.push_back(right.MustIndexOf(jc.left_column));
      } else {
        continue;
      }
      used_edges.insert(e);
    }
    const Relation& build = *inputs[i];
    std::map<Tuple, std::vector<size_t>> index;
    for (size_t j = 0; j < build.size(); ++j) {
      Tuple key = build[j].first.Project(rkey);
      if (Joinable(key)) index[key].push_back(j);
    }
    Relation joined;
    for (const auto& [lrow, lmult] : acc) {
      Tuple key = lrow.Project(lkey);
      if (!Joinable(key)) continue;
      auto it = index.find(key);
      if (it == index.end()) continue;
      for (auto j = it->second.rbegin(); j != it->second.rend(); ++j) {
        const auto& [rrow, rmult] = build[*j];
        if (lmult * rmult != 0) {
          joined.emplace_back(Tuple::Concat(lrow, rrow), lmult * rmult);
        }
      }
    }
    schema = Schema::Concat(schema, right);
    acc = apply_ready(joined, schema);
  }

  Relation out;
  if (!def.is_aggregate()) {
    for (const auto& [row, mult] : acc) {
      std::vector<Value> cells;
      for (const ProjectItem& item : def.projections()) {
        cells.push_back(Eval(*item.expr, schema, row));
      }
      out.emplace_back(Tuple(std::move(cells)), mult);
    }
    return out;
  }

  const std::vector<AggSpec>& aggs = def.aggregates();
  std::vector<bool> exact(aggs.size(), true);
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].fn == AggFn::kSum) {
      exact[a] = TypeOf(*aggs[a].arg, schema) == TypeId::kInt64;
    }
  }
  struct Group {
    Tuple key;
    std::vector<int64_t> ints;
    std::vector<double> dbls;
    int64_t count = 0;
  };
  std::map<Tuple, size_t> group_of;
  std::vector<Group> groups;
  for (const auto& [row, mult] : acc) {
    std::vector<Value> key;
    for (const ProjectItem& item : def.projections()) {
      key.push_back(Eval(*item.expr, schema, row));
    }
    Tuple key_tuple(std::move(key));
    auto [it, fresh] = group_of.emplace(key_tuple, groups.size());
    if (fresh) {
      groups.push_back(Group{key_tuple, std::vector<int64_t>(aggs.size(), 0),
                             std::vector<double>(aggs.size(), 0.0), 0});
    }
    Group& g = groups[it->second];
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (aggs[a].fn == AggFn::kCount) {
        g.ints[a] += mult;
        continue;
      }
      const Value v = Eval(*aggs[a].arg, schema, row);
      if (v.is_null()) continue;
      if (exact[a]) {
        g.ints[a] += mult * v.AsInt64();
      } else {
        g.dbls[a] += static_cast<double>(mult) * v.NumericValue();
      }
    }
    g.count += mult;
  }
  for (const Group& g : groups) {
    bool all_zero = g.count == 0;
    for (size_t a = 0; a < aggs.size() && all_zero; ++a) {
      all_zero = exact[a] ? g.ints[a] == 0 : g.dbls[a] == 0.0;
    }
    if (all_zero) continue;
    Tuple row = g.key;
    for (size_t a = 0; a < aggs.size(); ++a) {
      row.Append(exact[a] ? Value::Int64(g.ints[a]) : Value::Double(g.dbls[a]));
    }
    row.Append(Value::Int64(g.count));
    out.emplace_back(std::move(row), 1);
  }
  return out;
}

/// Merges equal tuples of `rel` (first-occurrence order, multiplicities
/// summed, zero totals dropped): a view's extent as a set with counts.
inline Relation Merge(const Relation& rel) {
  std::map<Tuple, size_t> pos;
  Relation out;
  for (const auto& [row, mult] : rel) {
    auto [it, fresh] = pos.emplace(row, out.size());
    if (fresh) {
      out.emplace_back(row, mult);
    } else {
      out[it->second].second += mult;
    }
  }
  Relation live;
  for (auto& entry : out) {
    if (entry.second != 0) live.push_back(std::move(entry));
  }
  return live;
}

/// Every derived view of `vdag`, evaluated from `contents` (each base
/// view's rows) in a topological order of the VDAG; returns the derived
/// views' merged extents by name.
inline std::map<std::string, Relation> EvalDerivedViews(
    const Vdag& vdag, std::map<std::string, Relation> contents) {
  std::map<std::string, Relation> derived;
  std::vector<std::string> waiting;
  for (const std::string& name : vdag.view_names()) {
    if (vdag.IsDerivedView(name)) waiting.push_back(name);
  }
  while (!waiting.empty()) {
    std::vector<std::string> blocked;
    for (const std::string& name : waiting) {
      const ViewDefinition& def = *vdag.definition(name);
      std::vector<const Relation*> inputs;
      std::vector<Schema> schemas;
      for (const std::string& src : def.sources()) {
        auto it = contents.find(src);
        if (it == contents.end()) break;
        inputs.push_back(&it->second);
        schemas.push_back(vdag.OutputSchema(src));
      }
      if (inputs.size() < def.num_sources()) {
        blocked.push_back(name);
        continue;
      }
      Relation extent = Merge(EvalView(def, inputs, schemas));
      derived[name] = extent;
      contents[name] = std::move(extent);
    }
    if (blocked.size() == waiting.size()) break;  // a cycle: not a VDAG
    waiting = std::move(blocked);
  }
  return derived;
}

}  // namespace wuw::reference

#endif  // WUW_TESTS_REFERENCE_REFERENCE_VIEWS_H_
