#include "expr/evaluator.h"

#include "common/check.h"
#include "expr/printer.h"

namespace wuw {

struct BoundExpr::Node {
  ExprKind kind;
  // kColumn
  size_t column_index = 0;
  // kLiteral
  Value literal;
  // binary / unary
  ArithOp arith_op = ArithOp::kAdd;
  CompareOp compare_op = CompareOp::kEq;
  LogicalOp logical_op = LogicalOp::kAnd;
  std::shared_ptr<const Node> lhs;
  std::shared_ptr<const Node> rhs;
  TypeId type = TypeId::kNull;
};

namespace {

bool IsNumeric(TypeId t) {
  return t == TypeId::kInt64 || t == TypeId::kDouble || t == TypeId::kDate;
}

std::shared_ptr<BoundExpr::Node> MakeNode(ExprKind k) {
  auto n = std::make_shared<BoundExpr::Node>();
  n->kind = k;
  return n;
}

/// The one typing pass: resolves columns and types every node.  On the
/// first problem sets *error and returns null.
std::shared_ptr<const BoundExpr::Node> BindNode(const ScalarExpr& e,
                                                const Schema& schema,
                                                std::string* error) {
  switch (e.kind()) {
    case ExprKind::kColumn: {
      auto n = MakeNode(ExprKind::kColumn);
      int idx = schema.IndexOf(e.column_name());
      if (idx < 0) {
        *error = "unknown column '" + e.column_name() + "'";
        return nullptr;
      }
      n->column_index = static_cast<size_t>(idx);
      n->type = schema.column(n->column_index).type;
      return n;
    }
    case ExprKind::kLiteral: {
      auto n = MakeNode(ExprKind::kLiteral);
      n->literal = e.literal();
      n->type = e.literal().type();
      return n;
    }
    case ExprKind::kArith: {
      auto n = MakeNode(ExprKind::kArith);
      n->arith_op = e.arith_op();
      n->lhs = BindNode(*e.lhs(), schema, error);
      if (n->lhs == nullptr) return nullptr;
      n->rhs = BindNode(*e.rhs(), schema, error);
      if (n->rhs == nullptr) return nullptr;
      if (!IsNumeric(n->lhs->type) || !IsNumeric(n->rhs->type)) {
        *error = "arithmetic requires numeric operands: " + ExprToSql(e);
        return nullptr;
      }
      // int64 op int64 stays int64 except division; anything else → double.
      n->type = (n->lhs->type == TypeId::kInt64 &&
                 n->rhs->type == TypeId::kInt64 &&
                 e.arith_op() != ArithOp::kDiv)
                    ? TypeId::kInt64
                    : TypeId::kDouble;
      return n;
    }
    case ExprKind::kCompare: {
      auto n = MakeNode(ExprKind::kCompare);
      n->compare_op = e.compare_op();
      n->lhs = BindNode(*e.lhs(), schema, error);
      if (n->lhs == nullptr) return nullptr;
      n->rhs = BindNode(*e.rhs(), schema, error);
      if (n->rhs == nullptr) return nullptr;
      n->type = TypeId::kInt64;
      return n;
    }
    case ExprKind::kLogical: {
      auto n = MakeNode(ExprKind::kLogical);
      n->logical_op = e.logical_op();
      n->lhs = BindNode(*e.lhs(), schema, error);
      if (n->lhs == nullptr) return nullptr;
      n->rhs = BindNode(*e.rhs(), schema, error);
      if (n->rhs == nullptr) return nullptr;
      n->type = TypeId::kInt64;
      return n;
    }
    case ExprKind::kNot: {
      auto n = MakeNode(ExprKind::kNot);
      n->lhs = BindNode(*e.lhs(), schema, error);
      if (n->lhs == nullptr) return nullptr;
      n->type = TypeId::kInt64;
      return n;
    }
  }
  *error = "unreachable expression kind";
  return nullptr;
}

Value EvalNode(const BoundExpr::Node& n, const Tuple& tuple);

bool ToBool(const Value& v) {
  if (v.is_null()) return false;
  if (v.type() == TypeId::kString) return !v.AsString().empty();
  return v.NumericValue() != 0.0;
}

Value EvalNode(const BoundExpr::Node& n, const Tuple& tuple) {
  switch (n.kind) {
    case ExprKind::kColumn:
      return tuple.value(n.column_index);
    case ExprKind::kLiteral:
      return n.literal;
    case ExprKind::kArith: {
      Value l = EvalNode(*n.lhs, tuple);
      Value r = EvalNode(*n.rhs, tuple);
      if (l.is_null() || r.is_null()) return Value::Null();
      if (n.type == TypeId::kInt64) {
        int64_t a = l.AsInt64(), b = r.AsInt64();
        switch (n.arith_op) {
          case ArithOp::kAdd:
            return Value::Int64(a + b);
          case ArithOp::kSub:
            return Value::Int64(a - b);
          case ArithOp::kMul:
            return Value::Int64(a * b);
          case ArithOp::kDiv:
            break;  // handled as double below
        }
      }
      double a = l.NumericValue(), b = r.NumericValue();
      switch (n.arith_op) {
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
      Value l = EvalNode(*n.lhs, tuple);
      Value r = EvalNode(*n.rhs, tuple);
      if (l.is_null() || r.is_null()) return Value::Int64(0);
      bool result = false;
      switch (n.compare_op) {
        case CompareOp::kEq:
          result = l == r;
          break;
        case CompareOp::kNe:
          result = l != r;
          break;
        case CompareOp::kLt:
          result = l < r;
          break;
        case CompareOp::kLe:
          result = !(r < l);
          break;
        case CompareOp::kGt:
          result = r < l;
          break;
        case CompareOp::kGe:
          result = !(l < r);
          break;
      }
      return Value::Int64(result ? 1 : 0);
    }
    case ExprKind::kLogical: {
      bool l = ToBool(EvalNode(*n.lhs, tuple));
      if (n.logical_op == LogicalOp::kAnd && !l) return Value::Int64(0);
      if (n.logical_op == LogicalOp::kOr && l) return Value::Int64(1);
      return Value::Int64(ToBool(EvalNode(*n.rhs, tuple)) ? 1 : 0);
    }
    case ExprKind::kNot:
      return Value::Int64(ToBool(EvalNode(*n.lhs, tuple)) ? 0 : 1);
  }
  return Value::Null();
}

}  // namespace

BoundExpr BoundExpr::Bind(const ScalarExpr::Ptr& expr, const Schema& schema) {
  WUW_CHECK(expr != nullptr, "cannot bind a null expression");
  std::string error;
  BoundExpr out;
  out.root_ = BindNode(*expr, schema, &error);
  WUW_CHECK(out.root_ != nullptr, error.c_str());
  out.result_type_ = out.root_->type;
  return out;
}

std::string BoundExpr::TypeCheck(const ScalarExpr& expr, const Schema& schema,
                                 TypeId* type) {
  std::string error;
  std::shared_ptr<const Node> root = BindNode(expr, schema, &error);
  if (root != nullptr) *type = root->type;
  return error;
}

Value BoundExpr::Eval(const Tuple& tuple) const {
  return EvalNode(*root_, tuple);
}

bool BoundExpr::EvalBool(const Tuple& tuple) const {
  return ToBool(EvalNode(*root_, tuple));
}

}  // namespace wuw
