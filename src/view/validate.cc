#include "view/validate.h"

#include <set>

#include "expr/evaluator.h"
#include "expr/printer.h"

namespace wuw {

namespace {

/// Types `expr` against the combined input schema with the binder's rules
/// (every column resolvable, arithmetic operands numeric).
std::string CheckExpr(const std::string& where, const ScalarExpr::Ptr& expr,
                      const Schema& combined, const std::string& view,
                      TypeId* type) {
  if (expr == nullptr) return "view " + view + ": null expression in " + where;
  std::string err = BoundExpr::TypeCheck(*expr, combined, type);
  return err.empty() ? "" : "view " + view + ": " + err + " in " + where;
}

}  // namespace

std::string ValidateDefinition(
    const ViewDefinition& def,
    const ViewDefinition::SchemaResolver& resolver) {
  const std::string& view = def.name();
  if (def.sources().empty()) return "view " + view + ": no sources";

  // Column-name uniqueness across the combined input schema.
  std::set<std::string> seen;
  std::vector<Column> combined_columns;
  for (const std::string& src : def.sources()) {
    const Schema& schema = resolver(src);
    for (const Column& c : schema.columns()) {
      if (!seen.insert(c.name).second) {
        return "view " + view + ": column '" + c.name +
               "' appears in more than one source (rename to disambiguate)";
      }
      combined_columns.push_back(c);
    }
  }
  Schema combined(std::move(combined_columns));

  // Which source owns a column (by position ranges).
  auto owner_of = [&](const std::string& col) -> std::string {
    for (const std::string& src : def.sources()) {
      if (resolver(src).HasColumn(col)) return src;
    }
    return "";
  };

  for (const JoinCondition& jc : def.joins()) {
    if (!combined.HasColumn(jc.left_column)) {
      return "view " + view + ": unknown join column '" + jc.left_column +
             "'";
    }
    if (!combined.HasColumn(jc.right_column)) {
      return "view " + view + ": unknown join column '" + jc.right_column +
             "'";
    }
    if (owner_of(jc.left_column) == owner_of(jc.right_column)) {
      return "view " + view + ": join condition " + jc.left_column + " = " +
             jc.right_column + " does not span two sources";
    }
  }
  TypeId type = TypeId::kNull;
  for (const ScalarExpr::Ptr& f : def.filters()) {
    std::string err = CheckExpr("WHERE", f, combined, view, &type);
    if (!err.empty()) return err;
  }
  if (def.projections().empty()) {
    return "view " + view + ": no output columns";
  }
  std::set<std::string> output_names;
  for (const ProjectItem& item : def.projections()) {
    std::string err = CheckExpr("SELECT", item.expr, combined, view, &type);
    if (!err.empty()) return err;
    if (!output_names.insert(item.name).second) {
      return "view " + view + ": duplicate output column '" + item.name +
             "'";
    }
  }
  for (const AggSpec& agg : def.aggregates()) {
    if (agg.fn == AggFn::kSum) {
      std::string err = CheckExpr("SUM", agg.arg, combined, view, &type);
      if (!err.empty()) return err;
      if (type == TypeId::kString) {
        return "view " + view + ": SUM argument " + ExprToSql(agg.arg) +
               " is not numeric";
      }
    }
    if (!output_names.insert(agg.name).second) {
      return "view " + view + ": duplicate output column '" + agg.name + "'";
    }
    if (agg.name == kGroupCountColumn) {
      return "view " + view + ": '" + std::string(kGroupCountColumn) +
             "' is reserved";
    }
  }
  return "";
}

std::string ValidateVdag(const Vdag& vdag) {
  for (const std::string& name : vdag.DerivedViewsBottomUp()) {
    std::string err = ValidateDefinition(
        *vdag.definition(name), [&](const std::string& src) -> const Schema& {
          return vdag.OutputSchema(src);
        });
    if (!err.empty()) return err;
  }
  return "";
}

}  // namespace wuw
