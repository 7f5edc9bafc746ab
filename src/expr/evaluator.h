// Binding and evaluation of scalar expressions against a schema.
//
// A BoundExpr is compiled once per (expression, schema) pair; evaluation is
// then index-based, which matters because filters run once per joined row.
#ifndef WUW_EXPR_EVALUATOR_H_
#define WUW_EXPR_EVALUATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "expr/scalar_expr.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace wuw {

/// An expression whose column references have been resolved to positions in
/// a fixed schema.
class BoundExpr {
 public:
  /// An unbound placeholder; evaluating it is undefined.  Exists so
  /// containers can hold slots for expressions bound later.
  BoundExpr() = default;

  /// Binds `expr` to `schema`; aborts if a referenced column is absent or a
  /// subexpression is not type-compatible.
  static BoundExpr Bind(const ScalarExpr::Ptr& expr, const Schema& schema);

  /// Bind's type check without the abort, for user-supplied expressions:
  /// returns an empty string and sets *type to the result type Bind would
  /// give, or describes the first unknown column or non-numeric
  /// arithmetic operand.
  static std::string TypeCheck(const ScalarExpr& expr, const Schema& schema,
                               TypeId* type);

  /// Result type of the bound expression.
  TypeId result_type() const { return result_type_; }

  /// Evaluates over `tuple` (which must match the bound schema).
  Value Eval(const Tuple& tuple) const;

  /// Evaluates as a boolean predicate: non-null, non-zero numerics are true.
  bool EvalBool(const Tuple& tuple) const;

  /// Implementation node; public so the out-of-line binder/evaluator in
  /// evaluator.cc can build trees, but not part of the supported API.
  struct Node;

 private:
  std::shared_ptr<const Node> root_;
  TypeId result_type_ = TypeId::kNull;
};

}  // namespace wuw

#endif  // WUW_EXPR_EVALUATOR_H_
