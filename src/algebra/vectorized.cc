#include "algebra/vectorized.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <utility>

#include "algebra/aggregate.h"
#include "algebra/filter.h"
#include "algebra/project.h"
#include "algebra/row_batch.h"
#include "algebra/spill_util.h"
#include "common/check.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "storage/column_table.h"
#include "storage/paged_store.h"

namespace wuw {

namespace {

// ---------------------------------------------------------------------------
// Key equality plan between two (possibly identical) column tables.

bool IsNumericType(TypeId t) {
  return t == TypeId::kInt64 || t == TypeId::kDouble || t == TypeId::kDate;
}

struct KeyColEq {
  const ColumnVec* a;
  const ColumnVec* b;
  enum Kind : uint8_t {
    kNumNum,        // both numeric: compare double images
    kStrSameDict,   // both string, shared dictionary: compare codes
    kStrCrossDict,  // both string, distinct dictionaries: translate b -> a
    kRankMismatch,  // different type ranks: only null == null matches
  } kind;
  /// kStrCrossDict: b-code -> a-code (kNullStringCode = no such string).
  std::vector<uint32_t> trans;
};

struct KeyEq {
  std::vector<KeyColEq> cols;
  /// Value-level hash lookups performed while building translations.
  int64_t setup_value_hashes = 0;

  bool Eq(size_t i, size_t j) const {
    for (const KeyColEq& c : cols) {
      bool an = CellIsNull(*c.a, i), bn = CellIsNull(*c.b, j);
      if (an || bn) {
        if (an != bn) return false;  // null == null passes the column
        continue;
      }
      switch (c.kind) {
        case KeyColEq::kNumNum:
          if (NumericImageAt(*c.a, i) != NumericImageAt(*c.b, j)) return false;
          break;
        case KeyColEq::kStrSameDict:
          if (c.a->codes[i] != c.b->codes[j]) return false;
          break;
        case KeyColEq::kStrCrossDict: {
          uint32_t t = c.trans[c.b->codes[j]];
          if (t == kNullStringCode || c.a->codes[i] != t) return false;
          break;
        }
        case KeyColEq::kRankMismatch:
          return false;  // both non-null, types never compare equal
      }
    }
    return true;
  }
};

KeyEq MakeKeyEq(const ColumnTable& a, const std::vector<size_t>& aidx,
                const ColumnTable& b, const std::vector<size_t>& bidx) {
  KeyEq eq;
  eq.cols.reserve(aidx.size());
  for (size_t k = 0; k < aidx.size(); ++k) {
    KeyColEq col;
    col.a = &a.column(aidx[k]);
    col.b = &b.column(bidx[k]);
    TypeId ta = col.a->type, tb = col.b->type;
    if (IsNumericType(ta) && IsNumericType(tb)) {
      col.kind = KeyColEq::kNumNum;
    } else if (ta == TypeId::kString && tb == TypeId::kString) {
      if (col.a->dict == col.b->dict) {
        col.kind = KeyColEq::kStrSameDict;
      } else {
        // A column with no dictionary has no non-NULL cell.
        col.kind = KeyColEq::kStrCrossDict;
        const StringDict* bd = col.b->dict.get();
        const StringDict* ad = col.a->dict.get();
        const uint32_t bsize = bd != nullptr ? bd->size() : 0;
        col.trans.resize(bsize);
        for (uint32_t code = 0; code < bsize; ++code) {
          col.trans[code] =
              ad != nullptr ? ad->Find(bd->At(code)) : kNullStringCode;
        }
        eq.setup_value_hashes += static_cast<int64_t>(bsize);
      }
    } else if (ta == TypeId::kNull || tb == TypeId::kNull) {
      // Every cell of the kNull side is null; the null/null branch of Eq
      // decides, so the kind is never consulted.
      col.kind = KeyColEq::kRankMismatch;
    } else {
      col.kind = KeyColEq::kRankMismatch;
    }
    eq.cols.push_back(std::move(col));
  }
  return eq;
}

/// Hash of row i's key columns `cols`, counting one mix per column into
/// *mixes.
inline uint64_t RowKeyHash(const std::vector<const ColumnVec*>& cols,
                           size_t i) {
  uint64_t h = kKeyHashSeed;
  for (const ColumnVec* c : cols) h = CombineKeyHash(h, CellHashAt(*c, i));
  return h;
}

/// RowKeyHash of every row of the unfiltered batch `b` (as ForEachBatch
/// yields), a column at a time, into out[0, b.size()).
void BatchKeyHashes(const std::vector<const ColumnVec*>& cols,
                    const RowBatch& b, uint64_t* out) {
  std::fill(out, out + b.size(), kKeyHashSeed);
  for (const ColumnVec* c : cols) FoldCellHashes(*c, b.begin, b.end, out);
}

// ---------------------------------------------------------------------------
// Vectorized expression evaluation.  CompileNode mirrors BindNode
// (expr/evaluator.cc) exactly — same column resolution, same static type
// rules — and EvalNode reproduces EvalNode's per-row semantics: arith on
// nulls yields null, int64 arithmetic stays exact except kDiv (double),
// division by zero yields null, comparisons on nulls yield Int64(0), and
// ToBool treats null as false, strings as non-empty, numerics by image.

struct VecExpr {
  ExprKind kind = ExprKind::kLiteral;
  size_t col = 0;
  Value literal;
  ArithOp aop = ArithOp::kAdd;
  CompareOp cop = CompareOp::kEq;
  LogicalOp lop = LogicalOp::kAnd;
  std::unique_ptr<VecExpr> lhs, rhs;
  TypeId type = TypeId::kNull;
};

std::unique_ptr<VecExpr> CompileNode(const ScalarExpr& e,
                                     const Schema& schema) {
  auto n = std::make_unique<VecExpr>();
  n->kind = e.kind();
  switch (e.kind()) {
    case ExprKind::kColumn:
      n->col = schema.MustIndexOf(e.column_name());
      n->type = schema.column(n->col).type;
      return n;
    case ExprKind::kLiteral:
      n->literal = e.literal();
      n->type = n->literal.type();
      return n;
    case ExprKind::kArith: {
      n->aop = e.arith_op();
      n->lhs = CompileNode(*e.lhs(), schema);
      n->rhs = CompileNode(*e.rhs(), schema);
      WUW_CHECK(IsNumericType(n->lhs->type) && IsNumericType(n->rhs->type),
                "arithmetic requires numeric operands (ValidateDefinition "
                "rejects such expressions)");
      n->type = (n->lhs->type == TypeId::kInt64 &&
                 n->rhs->type == TypeId::kInt64 && n->aop != ArithOp::kDiv)
                    ? TypeId::kInt64
                    : TypeId::kDouble;
      return n;
    }
    case ExprKind::kCompare: {
      n->cop = e.compare_op();
      n->lhs = CompileNode(*e.lhs(), schema);
      n->rhs = CompileNode(*e.rhs(), schema);
      n->type = TypeId::kInt64;
      return n;
    }
    case ExprKind::kLogical: {
      n->lop = e.logical_op();
      n->lhs = CompileNode(*e.lhs(), schema);
      n->rhs = CompileNode(*e.rhs(), schema);
      n->type = TypeId::kInt64;
      return n;
    }
    case ExprKind::kNot: {
      n->lhs = CompileNode(*e.lhs(), schema);
      n->type = TypeId::kInt64;
      return n;
    }
  }
  WUW_CHECK(false, "unreachable expression kind");
  return nullptr;
}

/// Per-kernel-call vectorization counters, flushed in one batch of metric
/// adds so totals stay independent of morsel/batch boundaries.
struct VecCounters {
  int64_t rows = 0;
  int64_t batches = 0;
  int64_t key_mixes = 0;
  int64_t key_cmps = 0;
  int64_t code_evals = 0;
  int64_t value_hashes = 0;
  int64_t value_cmps = 0;
  int64_t cells_gathered = 0;

  void Flush() const {
    WUW_METRIC_ADD("engine.vec.rows", obs::MetricClass::kEngine, rows);
    WUW_METRIC_ADD("engine.vec.batches", obs::MetricClass::kEngine, batches);
    WUW_METRIC_ADD("engine.vec.key_mixes", obs::MetricClass::kEngine,
                   key_mixes);
    WUW_METRIC_ADD("engine.vec.key_cmps", obs::MetricClass::kEngine, key_cmps);
    WUW_METRIC_ADD("engine.vec.code_evals", obs::MetricClass::kEngine,
                   code_evals);
    WUW_METRIC_ADD("engine.vec.value_hashes", obs::MetricClass::kEngine,
                   value_hashes);
    WUW_METRIC_ADD("engine.vec.value_cmps", obs::MetricClass::kEngine,
                   value_cmps);
    WUW_METRIC_ADD("engine.vec.cells_gathered", obs::MetricClass::kEngine,
                   cells_gathered);
  }
};

/// A materialized expression result over one batch: either a broadcast
/// constant or per-visible-row typed arrays.
struct VecVal {
  TypeId type = TypeId::kNull;
  bool is_const = false;
  Value cval;
  std::vector<int64_t> ints;    // kInt64 / kDate payload, and bool results
  std::vector<double> dbls;     // kDouble payload
  std::vector<uint32_t> codes;  // kString payload
  std::shared_ptr<const StringDict> dict;
  std::vector<uint8_t> nulls;  // empty = no nulls (non-string types)

  bool IsNullAt(size_t k) const {
    if (is_const) return cval.is_null();
    if (type == TypeId::kString) return codes[k] == kNullStringCode;
    return !nulls.empty() && nulls[k] != 0;
  }
  int64_t IntAt(size_t k) const {
    return is_const ? cval.AsInt64() : ints[k];
  }
  double ImageAt(size_t k) const {
    if (is_const) return cval.NumericValue();
    return type == TypeId::kDouble ? dbls[k]
                                   : static_cast<double>(ints[k]);
  }
};

bool ToBoolValue(const Value& v) {
  if (v.is_null()) return false;
  if (v.type() == TypeId::kString) return !v.AsString().empty();
  return v.NumericValue() != 0.0;
}

bool CmpValues(CompareOp op, const Value& l, const Value& r) {
  switch (op) {
    case CompareOp::kEq:
      return l == r;
    case CompareOp::kNe:
      return l != r;
    case CompareOp::kLt:
      return l < r;
    case CompareOp::kLe:
      return !(r < l);
    case CompareOp::kGt:
      return r < l;
    case CompareOp::kGe:
      return !(l < r);
  }
  return false;
}

/// Numeric images compared as Value compares them: kLe and kGe are the
/// negations of kGt and kLt, so a NaN operand passes them.
template <CompareOp kOp>
inline bool CmpImages(double a, double b) {
  if constexpr (kOp == CompareOp::kEq) return a == b;
  if constexpr (kOp == CompareOp::kNe) return !(a == b);
  if constexpr (kOp == CompareOp::kLt) return a < b;
  if constexpr (kOp == CompareOp::kLe) return !(b < a);
  if constexpr (kOp == CompareOp::kGt) return b < a;
  return !(a < b);  // kGe
}

bool CmpDoubles(CompareOp op, double a, double b) {
  switch (op) {
    case CompareOp::kEq:
      return CmpImages<CompareOp::kEq>(a, b);
    case CompareOp::kNe:
      return CmpImages<CompareOp::kNe>(a, b);
    case CompareOp::kLt:
      return CmpImages<CompareOp::kLt>(a, b);
    case CompareOp::kLe:
      return CmpImages<CompareOp::kLe>(a, b);
    case CompareOp::kGt:
      return CmpImages<CompareOp::kGt>(a, b);
    case CompareOp::kGe:
      return CmpImages<CompareOp::kGe>(a, b);
  }
  return false;
}

Value FoldArith(ArithOp op, TypeId type, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  if (type == TypeId::kInt64) {
    int64_t a = l.AsInt64(), b = r.AsInt64();
    switch (op) {
      case ArithOp::kAdd:
        return Value::Int64(a + b);
      case ArithOp::kSub:
        return Value::Int64(a - b);
      case ArithOp::kMul:
        return Value::Int64(a * b);
      case ArithOp::kDiv:
        break;
    }
  }
  double a = l.NumericValue(), b = r.NumericValue();
  switch (op) {
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

/// Boolean image of `v` over `m` visible rows (BoundExpr::EvalBool
/// semantics).
void ToBoolVec(const VecVal& v, size_t m, VecCounters* cnt,
               std::vector<uint8_t>* out) {
  out->assign(m, 0);
  if (v.is_const) {
    if (ToBoolValue(v.cval)) out->assign(m, 1);
    return;
  }
  switch (v.type) {
    case TypeId::kInt64:
    case TypeId::kDate:
      for (size_t k = 0; k < m; ++k) {
        (*out)[k] = (!v.IsNullAt(k) &&
                     static_cast<double>(v.ints[k]) != 0.0)
                        ? 1
                        : 0;
      }
      return;
    case TypeId::kDouble:
      for (size_t k = 0; k < m; ++k) {
        (*out)[k] = (!v.IsNullAt(k) && v.dbls[k] != 0.0) ? 1 : 0;
      }
      return;
    case TypeId::kString: {
      // One evaluation per distinct code, then a table lookup per row.
      std::vector<uint8_t> pass(v.dict->size());
      for (uint32_t code = 0; code < v.dict->size(); ++code) {
        pass[code] = v.dict->At(code).empty() ? 0 : 1;
      }
      cnt->code_evals += static_cast<int64_t>(v.dict->size());
      for (size_t k = 0; k < m; ++k) {
        uint32_t code = v.codes[k];
        (*out)[k] = code == kNullStringCode ? 0 : pass[code];
      }
      return;
    }
    case TypeId::kNull:
      return;  // all false
  }
}

void EvalCompareVec(const VecExpr& n, const VecVal& l, const VecVal& r,
                    size_t m, VecCounters* cnt, VecVal* out) {
  out->type = TypeId::kInt64;
  out->ints.assign(m, 0);
  // A null operand compares to Int64(0) — a constant-null side zeroes the
  // whole result.
  if ((l.is_const && l.cval.is_null()) || (r.is_const && r.cval.is_null())) {
    return;
  }
  if (l.is_const && r.is_const) {
    int res = CmpValues(n.cop, l.cval, r.cval) ? 1 : 0;
    out->ints.assign(m, res);
    return;
  }
  const bool lnum = IsNumericType(l.type), rnum = IsNumericType(r.type);
  if (lnum && rnum) {
    const double lci = l.is_const ? l.cval.NumericValue() : 0.0;
    const double rci = r.is_const ? r.cval.NumericValue() : 0.0;
    for (size_t k = 0; k < m; ++k) {
      if (l.IsNullAt(k) || r.IsNullAt(k)) continue;
      double a = l.is_const ? lci : l.ImageAt(k);
      double c = r.is_const ? rci : r.ImageAt(k);
      out->ints[k] = CmpDoubles(n.cop, a, c) ? 1 : 0;
    }
    return;
  }
  if (l.type == TypeId::kString && r.type == TypeId::kString) {
    if (r.is_const || l.is_const) {
      // Column vs string literal: evaluate once per distinct code.
      const VecVal& col = r.is_const ? l : r;
      const Value& lit = r.is_const ? r.cval : l.cval;
      const bool col_on_left = r.is_const;
      std::vector<uint8_t> table(col.dict->size());
      for (uint32_t code = 0; code < col.dict->size(); ++code) {
        Value cell = Value::String(col.dict->At(code));
        table[code] = (col_on_left ? CmpValues(n.cop, cell, lit)
                                   : CmpValues(n.cop, lit, cell))
                          ? 1
                          : 0;
      }
      cnt->code_evals += static_cast<int64_t>(col.dict->size());
      for (size_t k = 0; k < m; ++k) {
        uint32_t code = col.codes[k];
        if (code == kNullStringCode) continue;
        out->ints[k] = table[code];
      }
      return;
    }
    if (l.dict == r.dict) {
      if (n.cop == CompareOp::kEq || n.cop == CompareOp::kNe) {
        const bool want_eq = n.cop == CompareOp::kEq;
        for (size_t k = 0; k < m; ++k) {
          if (l.IsNullAt(k) || r.IsNullAt(k)) continue;
          out->ints[k] = ((l.codes[k] == r.codes[k]) == want_eq) ? 1 : 0;
        }
        return;
      }
    }
    // Cross-dictionary (or ordered same-dict) column/column compare: per-row
    // string comparison, no allocation.
    for (size_t k = 0; k < m; ++k) {
      if (l.IsNullAt(k) || r.IsNullAt(k)) continue;
      const std::string& a = l.dict->At(l.codes[k]);
      const std::string& bstr = r.dict->At(r.codes[k]);
      bool res = false;
      switch (n.cop) {
        case CompareOp::kEq:
          res = a == bstr;
          break;
        case CompareOp::kNe:
          res = a != bstr;
          break;
        case CompareOp::kLt:
          res = a < bstr;
          break;
        case CompareOp::kLe:
          res = a <= bstr;
          break;
        case CompareOp::kGt:
          res = a > bstr;
          break;
        case CompareOp::kGe:
          res = a >= bstr;
          break;
      }
      out->ints[k] = res ? 1 : 0;
      ++cnt->value_cmps;
    }
    return;
  }
  // Mixed rank (string vs numeric): the outcome is rank-determined and
  // identical for every pair of non-null cells.
  {
    int lrank = l.type == TypeId::kString ? 2 : 1;
    int rrank = r.type == TypeId::kString ? 2 : 1;
    bool res = false;
    switch (n.cop) {
      case CompareOp::kEq:
        res = false;
        break;
      case CompareOp::kNe:
        res = true;
        break;
      case CompareOp::kLt:
        res = lrank < rrank;
        break;
      case CompareOp::kLe:
        res = lrank <= rrank;
        break;
      case CompareOp::kGt:
        res = lrank > rrank;
        break;
      case CompareOp::kGe:
        res = lrank >= rrank;
        break;
    }
    for (size_t k = 0; k < m; ++k) {
      if (l.IsNullAt(k) || r.IsNullAt(k)) continue;
      out->ints[k] = res ? 1 : 0;
    }
  }
}

void EvalNodeVec(const VecExpr& n, const ColumnTable& ct, const RowBatch& b,
                 VecCounters* cnt, VecVal* out) {
  const size_t m = b.size();
  out->type = n.type;
  switch (n.kind) {
    case ExprKind::kLiteral:
      out->is_const = true;
      out->cval = n.literal;
      return;
    case ExprKind::kColumn: {
      const ColumnVec& c = ct.column(n.col);
      if (c.type == TypeId::kNull) {
        out->is_const = true;
        out->cval = Value::Null();
        return;
      }
      switch (c.type) {
        case TypeId::kInt64:
        case TypeId::kDate:
          out->ints.resize(m);
          for (size_t k = 0; k < m; ++k) out->ints[k] = c.ints[b.row(k)];
          break;
        case TypeId::kDouble:
          out->dbls.resize(m);
          for (size_t k = 0; k < m; ++k) out->dbls[k] = c.dbls[b.row(k)];
          break;
        case TypeId::kString:
          out->codes.resize(m);
          for (size_t k = 0; k < m; ++k) out->codes[k] = c.codes[b.row(k)];
          out->dict = c.dict;
          break;
        case TypeId::kNull:
          break;
      }
      if (!c.nulls.empty() && c.type != TypeId::kString) {
        out->nulls.resize(m);
        for (size_t k = 0; k < m; ++k) out->nulls[k] = c.nulls[b.row(k)];
      }
      return;
    }
    case ExprKind::kArith: {
      VecVal l, r;
      EvalNodeVec(*n.lhs, ct, b, cnt, &l);
      EvalNodeVec(*n.rhs, ct, b, cnt, &r);
      if (l.is_const && r.is_const) {
        out->is_const = true;
        out->cval = FoldArith(n.aop, n.type, l.cval, r.cval);
        return;
      }
      const bool nullable = (l.is_const && l.cval.is_null()) ||
                            (r.is_const && r.cval.is_null()) ||
                            !l.nulls.empty() || !r.nulls.empty() ||
                            n.aop == ArithOp::kDiv;
      if (nullable) out->nulls.assign(m, 0);
      // Int-exact consts exist only when the node types as int64 (both
      // operands kInt64); hoisting AsInt64 on a double const would abort.
      const int64_t lci = n.type == TypeId::kInt64 && l.is_const &&
                                  !l.cval.is_null()
                              ? l.cval.AsInt64()
                              : 0;
      const int64_t rci = n.type == TypeId::kInt64 && r.is_const &&
                                  !r.cval.is_null()
                              ? r.cval.AsInt64()
                              : 0;
      const double lcd =
          l.is_const && !l.cval.is_null() ? l.cval.NumericValue() : 0.0;
      const double rcd =
          r.is_const && !r.cval.is_null() ? r.cval.NumericValue() : 0.0;
      if (n.type == TypeId::kInt64) {
        out->ints.assign(m, 0);
        for (size_t k = 0; k < m; ++k) {
          if (l.IsNullAt(k) || r.IsNullAt(k)) {
            out->nulls[k] = 1;
            continue;
          }
          int64_t a = l.is_const ? lci : l.ints[k];
          int64_t c = r.is_const ? rci : r.ints[k];
          switch (n.aop) {
            case ArithOp::kAdd:
              out->ints[k] = a + c;
              break;
            case ArithOp::kSub:
              out->ints[k] = a - c;
              break;
            case ArithOp::kMul:
              out->ints[k] = a * c;
              break;
            case ArithOp::kDiv:
              break;  // unreachable: kDiv types as double
          }
        }
      } else {
        out->dbls.assign(m, 0.0);
        for (size_t k = 0; k < m; ++k) {
          if (l.IsNullAt(k) || r.IsNullAt(k)) {
            out->nulls[k] = 1;
            continue;
          }
          double a = l.is_const ? lcd : l.ImageAt(k);
          double c = r.is_const ? rcd : r.ImageAt(k);
          switch (n.aop) {
            case ArithOp::kAdd:
              out->dbls[k] = a + c;
              break;
            case ArithOp::kSub:
              out->dbls[k] = a - c;
              break;
            case ArithOp::kMul:
              out->dbls[k] = a * c;
              break;
            case ArithOp::kDiv:
              if (c == 0.0) {
                out->nulls[k] = 1;
              } else {
                out->dbls[k] = a / c;
              }
              break;
          }
        }
      }
      return;
    }
    case ExprKind::kCompare: {
      VecVal l, r;
      EvalNodeVec(*n.lhs, ct, b, cnt, &l);
      EvalNodeVec(*n.rhs, ct, b, cnt, &r);
      EvalCompareVec(n, l, r, m, cnt, out);
      return;
    }
    case ExprKind::kLogical: {
      VecVal l, r;
      std::vector<uint8_t> lb, rb;
      EvalNodeVec(*n.lhs, ct, b, cnt, &l);
      ToBoolVec(l, m, cnt, &lb);
      EvalNodeVec(*n.rhs, ct, b, cnt, &r);
      ToBoolVec(r, m, cnt, &rb);
      out->ints.resize(m);
      if (n.lop == LogicalOp::kAnd) {
        for (size_t k = 0; k < m; ++k) out->ints[k] = (lb[k] & rb[k]) ? 1 : 0;
      } else {
        for (size_t k = 0; k < m; ++k) out->ints[k] = (lb[k] | rb[k]) ? 1 : 0;
      }
      return;
    }
    case ExprKind::kNot: {
      VecVal l;
      std::vector<uint8_t> lb;
      EvalNodeVec(*n.lhs, ct, b, cnt, &l);
      ToBoolVec(l, m, cnt, &lb);
      out->ints.resize(m);
      for (size_t k = 0; k < m; ++k) out->ints[k] = lb[k] ? 0 : 1;
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Columnar output construction.

void GatherColumnInto(const ColumnVec& src, const std::vector<uint32_t>& ids,
                      ColumnVec* dst) {
  const size_t m = ids.size();
  switch (src.type) {
    case TypeId::kInt64:
    case TypeId::kDate:
    case TypeId::kNull:
      dst->ints.resize(m);
      for (size_t k = 0; k < m; ++k) dst->ints[k] = src.ints[ids[k]];
      break;
    case TypeId::kDouble:
      dst->dbls.resize(m);
      for (size_t k = 0; k < m; ++k) dst->dbls[k] = src.dbls[ids[k]];
      break;
    case TypeId::kString:
      dst->codes.resize(m);
      for (size_t k = 0; k < m; ++k) dst->codes[k] = src.codes[ids[k]];
      dst->dict = src.dict;
      break;
  }
  if (!src.nulls.empty()) {
    dst->nulls.resize(m);
    for (size_t k = 0; k < m; ++k) dst->nulls[k] = src.nulls[ids[k]];
  }
}

/// Columnar image of rows `ids` of `src`'s columns `columns`, with
/// multiplicities `mult` (dictionaries shared, nothing re-interned).
std::shared_ptr<const ColumnTable> GatherTable(
    const ColumnTable& src, const std::vector<size_t>& columns,
    const std::vector<uint32_t>& ids, std::vector<int64_t> mult,
    VecCounters* cnt) {
  auto out = std::make_shared<ColumnTable>(src.schema().Project(columns));
  for (size_t c = 0; c < columns.size(); ++c) {
    GatherColumnInto(src.column(columns[c]), ids, out->mutable_column(c));
  }
  cnt->cells_gathered += static_cast<int64_t>(columns.size() * ids.size());
  *out->mutable_mult() = std::move(mult);
  out->Finish();
  return out;
}

/// Columnar image of a join output: `columns` are positions in left ++
/// right; left columns gather by lids, right columns by rids.
std::shared_ptr<const ColumnTable> GatherJoinTable(
    const Schema& out_schema, const std::vector<size_t>& columns,
    const ColumnTable& lct, const std::vector<uint32_t>& lids,
    const ColumnTable& rct, const std::vector<uint32_t>& rids,
    std::vector<int64_t> mult, VecCounters* cnt) {
  auto out = std::make_shared<ColumnTable>(out_schema);
  const size_t ln = lct.num_columns();
  for (size_t c = 0; c < columns.size(); ++c) {
    const size_t p = columns[c];
    if (p < ln) {
      GatherColumnInto(lct.column(p), lids, out->mutable_column(c));
    } else {
      GatherColumnInto(rct.column(p - ln), rids, out->mutable_column(c));
    }
  }
  cnt->cells_gathered += static_cast<int64_t>(columns.size() * mult.size());
  *out->mutable_mult() = std::move(mult);
  out->Finish();
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Filter: a selection vector narrowed one top-level conjunct at a time.

namespace {

/// Keeps the ids in sel[0, m) for which keep(id) holds, in order, with no
/// data-dependent branch: every id is written, and the cursor advances
/// only past kept ones.  Returns the number kept.
template <typename Keep>
inline size_t Compact(uint32_t* sel, size_t m, Keep keep) {
  size_t n = 0;
  for (size_t k = 0; k < m; ++k) {
    const uint32_t id = sel[k];
    sel[n] = id;
    n += keep(id) ? 1 : 0;
  }
  return n;
}

/// A narrowing step over sel[0, m) for one typed conjunct.
using SelectFn = size_t (*)(const ColumnVec& col, double c, uint32_t* sel,
                            size_t m);

/// Narrows sel[0, m) to the rows whose numeric cell compares kOp against
/// the constant image `c` (column on the left).
template <CompareOp kOp, bool kDoubles, bool kNullable>
size_t SelectImage(const ColumnVec& col, double c, uint32_t* sel, size_t m) {
  const int64_t* ints = col.ints.data();
  const double* dbls = col.dbls.data();
  const uint8_t* nulls = col.nulls.data();
  return Compact(sel, m, [&](uint32_t i) {
    const double v = kDoubles ? dbls[i] : static_cast<double>(ints[i]);
    bool pass = CmpImages<kOp>(v, c);
    if constexpr (kNullable) pass = pass & (nulls[i] == 0);
    return pass;
  });
}

template <CompareOp kOp>
SelectFn ImageLoop(bool doubles, bool nullable) {
  if (doubles) {
    return nullable ? &SelectImage<kOp, true, true>
                    : &SelectImage<kOp, true, false>;
  }
  return nullable ? &SelectImage<kOp, false, true>
                  : &SelectImage<kOp, false, false>;
}

SelectFn ResolveImageLoop(CompareOp op, bool doubles, bool nullable) {
  switch (op) {
    case CompareOp::kEq:
      return ImageLoop<CompareOp::kEq>(doubles, nullable);
    case CompareOp::kNe:
      return ImageLoop<CompareOp::kNe>(doubles, nullable);
    case CompareOp::kLt:
      return ImageLoop<CompareOp::kLt>(doubles, nullable);
    case CompareOp::kLe:
      return ImageLoop<CompareOp::kLe>(doubles, nullable);
    case CompareOp::kGt:
      return ImageLoop<CompareOp::kGt>(doubles, nullable);
    case CompareOp::kGe:
      return ImageLoop<CompareOp::kGe>(doubles, nullable);
  }
  return nullptr;
}

/// `lit op cell` rewritten as `cell flip(op) lit`.  Exact under Value's
/// order: kLe/kGe are defined as negated kGt/kLt with swapped operands.
CompareOp Flip(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;
  }
}

bool CmpStrings(CompareOp op, const std::string& a, const std::string& b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return a != b;
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return !(b < a);
    case CompareOp::kGt:
      return b < a;
    case CompareOp::kGe:
      return !(a < b);
  }
  return false;
}

/// One top-level conjunct of a filter predicate, resolved once per
/// Filter call.  A `column op constant` conjunct (either orientation)
/// becomes a typed loop over the column array; anything else is
/// evaluated by EvalNodeVec over the rows that survive so far.
struct Conjunct {
  enum Kind : uint8_t {
    kNone,     // no row passes: NULL constant, NULL column, or a
               // mixed-rank op that is false for every pair
    kNonNull,  // every non-null cell passes (mixed-rank, true)
    kImage,    // numeric cell vs numeric constant: `loop`
    kCodes,    // string cell vs string constant: per-code `pass` table
    kGeneral,  // EvalNodeVec + ToBoolVec over the survivors
  } kind = kGeneral;
  const ColumnVec* col = nullptr;
  SelectFn loop = nullptr;
  double constant = 0.0;
  /// kCodes: pass[code] for each dictionary code, plus a trailing 0 that
  /// NULL cells (kNullStringCode) are clamped onto.
  std::vector<uint8_t> pass;
  std::unique_ptr<VecExpr> expr;

  /// Narrows sel[0, m) of `b`'s rows; returns the number kept.
  size_t Select(const ColumnTable& ct, const RowBatch& b, uint32_t* sel,
                size_t m, VecCounters* cnt) const {
    switch (kind) {
      case kNone:
        return 0;
      case kNonNull:
        return Compact(sel, m, [&](uint32_t i) { return !col->IsNull(i); });
      case kImage:
        return loop(*col, constant, sel, m);
      case kCodes: {
        const uint32_t* codes = col->codes.data();
        const uint8_t* table = pass.data();
        const uint32_t null_slot = static_cast<uint32_t>(pass.size() - 1);
        return Compact(sel, m, [&](uint32_t i) {
          return table[std::min(codes[i], null_slot)] != 0;
        });
      }
      case kGeneral:
        break;
    }
    std::vector<uint32_t> ids(sel, sel + m);
    int64_t signed_card = 0, abs_card = 0;
    for (uint32_t id : ids) {
      signed_card += ct.mult()[id];
      abs_card += std::llabs(ct.mult()[id]);
    }
    RowBatch survivors =
        RowBatch::Select(b, std::move(ids), signed_card, abs_card);
    VecVal v;
    std::vector<uint8_t> truth;
    EvalNodeVec(*expr, ct, survivors, cnt, &v);
    ToBoolVec(v, m, cnt, &truth);
    size_t n = 0;
    for (size_t k = 0; k < m; ++k) {
      sel[n] = sel[k];
      n += truth[k];
    }
    return n;
  }
};

/// Resolves `e` against `ct`: the typed shapes first, kGeneral otherwise.
Conjunct ResolveConjunct(const ScalarExpr& e, const ColumnTable& ct,
                         VecCounters* cnt) {
  Conjunct out;
  const ScalarExpr* column = nullptr;
  const ScalarExpr* literal = nullptr;
  CompareOp op = CompareOp::kEq;
  if (e.kind() == ExprKind::kCompare) {
    op = e.compare_op();
    if (e.lhs()->kind() == ExprKind::kColumn &&
        e.rhs()->kind() == ExprKind::kLiteral) {
      column = e.lhs().get();
      literal = e.rhs().get();
    } else if (e.lhs()->kind() == ExprKind::kLiteral &&
               e.rhs()->kind() == ExprKind::kColumn) {
      column = e.rhs().get();
      literal = e.lhs().get();
      op = Flip(op);
    }
  }
  if (column == nullptr) {
    out.expr = CompileNode(e, ct.schema());
    return out;
  }
  out.col = &ct.column(ct.schema().MustIndexOf(column->column_name()));
  const Value& lit = literal->literal();
  const TypeId ctype = out.col->type;
  if (lit.is_null() || ctype == TypeId::kNull) {
    out.kind = Conjunct::kNone;  // a NULL operand compares false
  } else if (IsNumericType(ctype) && IsNumericType(lit.type())) {
    out.kind = Conjunct::kImage;
    out.constant = lit.NumericValue();
    out.loop = ResolveImageLoop(op, ctype == TypeId::kDouble,
                                !out.col->nulls.empty());
  } else if (ctype == TypeId::kString && lit.type() == TypeId::kString) {
    out.kind = Conjunct::kCodes;
    const StringDict* dict = out.col->dict.get();
    const uint32_t codes = dict != nullptr ? dict->size() : 0;
    out.pass.assign(codes + 1, 0);
    for (uint32_t code = 0; code < codes; ++code) {
      out.pass[code] = CmpStrings(op, dict->At(code), lit.AsString()) ? 1 : 0;
    }
    cnt->code_evals += codes;
  } else {
    // Mixed rank (string vs numeric): decided by rank for every pair of
    // non-null cells, as in EvalCompareVec.
    const double crank = ctype == TypeId::kString ? 2 : 1;
    const double lrank = lit.type() == TypeId::kString ? 2 : 1;
    out.kind = CmpDoubles(op, crank, lrank) ? Conjunct::kNonNull
                                            : Conjunct::kNone;
  }
  return out;
}

void SplitConjuncts(const ScalarExpr& e, std::vector<const ScalarExpr*>* out) {
  if (e.kind() == ExprKind::kLogical && e.logical_op() == LogicalOp::kAnd) {
    SplitConjuncts(*e.lhs(), out);
    SplitConjuncts(*e.rhs(), out);
    return;
  }
  out->push_back(&e);
}

std::vector<size_t> AllColumns(const Schema& schema) {
  std::vector<size_t> all(schema.num_columns());
  std::iota(all.begin(), all.end(), size_t{0});
  return all;
}

}  // namespace

Rows Filter(const Rows& input, const ScalarExpr::Ptr& predicate,
            OperatorStats* stats, ThreadPool* /*pool*/,
            const CancelToken* /*cancel*/,
            const std::vector<size_t>* columns) {
  if (predicate == nullptr && columns == nullptr) return input;
  std::shared_ptr<const ColumnTable> ct = input.Columnar();
  const ScalarExpr::Ptr pred =
      predicate != nullptr ? predicate : ScalarExpr::True();
  VecCounters cnt;
  std::vector<const ScalarExpr*> parts;
  SplitConjuncts(*pred, &parts);
  // AND has no side effects, so the typed conjuncts run first and the
  // general ones see only what the typed ones keep.
  std::vector<Conjunct> conjuncts;
  conjuncts.reserve(parts.size());
  for (const ScalarExpr* part : parts) {
    conjuncts.push_back(ResolveConjunct(*part, *ct, &cnt));
  }
  std::stable_partition(conjuncts.begin(), conjuncts.end(),
                        [](const Conjunct& c) {
                          return c.kind != Conjunct::kGeneral;
                        });

  const std::vector<int64_t>& mult = ct->mult();
  std::vector<uint32_t> ids(ct->num_rows());
  size_t kept = 0;
  int64_t scanned = 0, produced = 0;
  ForEachBatch(*ct, [&](const RowBatch& b) {
    ++cnt.batches;
    cnt.rows += static_cast<int64_t>(b.size());
    scanned += b.abs_card;
    // The batch's survivors live in ids[kept, kept + m).
    uint32_t* sel = ids.data() + kept;
    size_t m = b.size();
    std::iota(sel, sel + m, static_cast<uint32_t>(b.begin));
    for (const Conjunct& c : conjuncts) {
      if (m == 0) break;
      m = c.Select(*ct, b, sel, m, &cnt);
    }
    // A zero multiplicity is no row; it adds nothing to rows_produced.
    m = Compact(sel, m, [&](uint32_t i) {
      produced += std::llabs(mult[i]);
      return mult[i] != 0;
    });
    kept += m;
  });
  ids.resize(kept);

  std::vector<int64_t> out_mult(kept);
  for (size_t k = 0; k < kept; ++k) out_mult[k] = mult[ids[k]];
  Rows out = Rows::FromColumnar(
      GatherTable(*ct, columns != nullptr ? *columns : AllColumns(input.schema),
                  ids, std::move(out_mult), &cnt));
  if (stats != nullptr) {
    stats->rows_scanned += scanned;
    stats->rows_produced += produced;
  }
  cnt.Flush();
  return out;
}

// ---------------------------------------------------------------------------
// Project.

namespace {

/// Records whether the cell just appended to `dst` (its `cells`-th) is
/// NULL: the mask starts at the first NULL, zero-filled for the cells
/// before it, and grows with every cell after.
void PushNullFlag(ColumnVec* dst, size_t cells, bool null) {
  if (null && dst->nulls.empty()) dst->nulls.resize(cells - 1, 0);
  if (!dst->nulls.empty() || null) dst->nulls.push_back(null ? 1 : 0);
}

}  // namespace

Rows Project(const Rows& input, const std::vector<ProjectItem>& items,
             OperatorStats* stats, ThreadPool* /*pool*/,
             const CancelToken* /*cancel*/) {
  std::shared_ptr<const ColumnTable> ct = input.Columnar();
  std::vector<std::unique_ptr<VecExpr>> exprs;
  std::vector<Column> out_cols;
  exprs.reserve(items.size());
  for (const ProjectItem& item : items) {
    exprs.push_back(CompileNode(*item.expr, input.schema));
    out_cols.push_back(Column{item.name, exprs.back()->type});
  }

  VecCounters cnt;
  Schema out_schema{out_cols};
  auto payload = std::make_shared<ColumnTable>(out_schema);
  // Constant string items intern their one value up front so batch loops
  // only append codes.
  std::vector<std::shared_ptr<StringDict>> const_dicts(items.size());
  std::vector<uint32_t> const_codes(items.size(), kNullStringCode);
  for (size_t a = 0; a < exprs.size(); ++a) {
    if (exprs[a]->type == TypeId::kString &&
        exprs[a]->kind == ExprKind::kLiteral) {
      const_dicts[a] = std::make_shared<StringDict>();
      const_codes[a] = const_dicts[a]->Intern(exprs[a]->literal.AsString());
      payload->mutable_column(a)->dict = const_dicts[a];
    }
  }

  const std::vector<int64_t>& mult = ct->mult();
  int64_t scanned = 0;

  ForEachBatch(*ct, [&](const RowBatch& b) {
    ++cnt.batches;
    cnt.rows += static_cast<int64_t>(b.size());
    scanned += b.abs_card;
    const size_t m = b.size();
    std::vector<VecVal> vals(exprs.size());
    for (size_t a = 0; a < exprs.size(); ++a) {
      EvalNodeVec(*exprs[a], *ct, b, &cnt, &vals[a]);
    }
    // Output columns: append this batch's slices.
    for (size_t a = 0; a < exprs.size(); ++a) {
      ColumnVec* dst = payload->mutable_column(a);
      const VecVal& v = vals[a];
      switch (exprs[a]->type) {
        case TypeId::kInt64:
        case TypeId::kDate:
        case TypeId::kNull: {
          for (size_t k = 0; k < m; ++k) {
            const bool null = v.IsNullAt(k);
            dst->ints.push_back(null ? 0 : v.IntAt(k));
            PushNullFlag(dst, dst->ints.size(), null);
          }
          break;
        }
        case TypeId::kDouble: {
          for (size_t k = 0; k < m; ++k) {
            const bool null = v.IsNullAt(k);
            dst->dbls.push_back(null ? 0.0 : v.ImageAt(k));
            PushNullFlag(dst, dst->dbls.size(), null);
          }
          break;
        }
        case TypeId::kString: {
          if (v.is_const) {
            uint32_t code =
                v.cval.is_null() ? kNullStringCode : const_codes[a];
            dst->codes.insert(dst->codes.end(), m, code);
          } else {
            dst->codes.insert(dst->codes.end(), v.codes.begin(),
                              v.codes.end());
            if (dst->dict == nullptr) dst->dict = v.dict;
          }
          break;
        }
      }
    }
  });

  for (size_t a = 0; a < exprs.size(); ++a) {
    // A string column that saw no batches (empty input) still needs a
    // dictionary — FromRows always attaches one.
    ColumnVec* dst = payload->mutable_column(a);
    if (dst->type == TypeId::kString && dst->dict == nullptr) {
      dst->dict = std::make_shared<StringDict>();
    }
  }
  *payload->mutable_mult() = mult;  // one output row per input row
  payload->Finish();
  Rows out = Rows::FromColumnar(std::move(payload));
  if (stats != nullptr) {
    stats->rows_scanned += scanned;
    stats->rows_produced += scanned;
  }
  cnt.Flush();
  return out;
}

// ---------------------------------------------------------------------------
// Hash join.

namespace {

/// Radix partitions for the parallel build: keys partition by the TOP hash
/// bits (bucket chains inside a partition use the bottom bits, so the two
/// never alias).  Equal keys hash equally and therefore land in the same
/// partition, which is what makes per-partition builds race-free without
/// any shared-state writes.
constexpr size_t kVecJoinPartitionBits = 6;
constexpr size_t kVecJoinPartitions = size_t{1} << kVecJoinPartitionBits;
constexpr size_t kVecJoinPartitionShift = 64 - kVecJoinPartitionBits;

struct VecJoinPartition {
  std::vector<uint32_t> ids;
  std::vector<int32_t> heads;
  std::vector<int32_t> chain;
  uint64_t mask = 0;
};

/// The sequential join loop: one flat chained table over `build`'s key
/// columns, then `probe` streamed past it batch by batch.  Rows chain in
/// ascending order with head = most recent, so a probe row meets
/// hash-equal build rows in DESCENDING build index.  Calls
/// emit(probe_row, build_row, prod) for every key-equal pair whose
/// product is non-zero, in stream order.  `kProbeIsLeft` orients the key
/// comparison and the stats: hash_probes counts the left side and
/// hash_build_rows the right whichever side is hashed, because either
/// orientation examines the same hash-equal pairs.
template <bool kProbeIsLeft, typename Emit>
void ChainedHashJoin(const ColumnTable& build,
                     const std::vector<const ColumnVec*>& bcols,
                     const ColumnTable& probe,
                     const std::vector<const ColumnVec*>& pcols,
                     const KeyEq& eq, OperatorStats* stats, VecCounters* cnt,
                     Emit emit) {
  const size_t bn = build.num_rows();
  const size_t pn = probe.num_rows();
  const std::vector<int64_t>& bmult = build.mult();
  const std::vector<int64_t>& pmult = probe.mult();
  const int64_t arity = static_cast<int64_t>(bcols.size());
  std::vector<uint64_t> hashes(bn);
  size_t nbuckets = 16;
  while (nbuckets < bn * 2) nbuckets <<= 1;
  const uint64_t mask = nbuckets - 1;
  std::vector<int32_t> heads(nbuckets, -1);
  std::vector<int32_t> chain(bn);
  int64_t scanned = 0;
  ForEachBatch(build, [&](const RowBatch& b) {
    ++cnt->batches;
    scanned += b.abs_card;
    BatchKeyHashes(bcols, b, hashes.data() + b.begin);
    for (size_t i = b.begin; i < b.end; ++i) {
      const uint64_t h = hashes[i];
      chain[i] = heads[h & mask];
      heads[h & mask] = static_cast<int32_t>(i);
    }
  });
  cnt->rows += static_cast<int64_t>(bn);
  cnt->key_mixes += static_cast<int64_t>(bn) * arity;

  int64_t probe_scanned = 0, produced = 0;
  uint64_t probe_hashes[kBatchRows];
  ForEachBatch(probe, [&](const RowBatch& b) {
    ++cnt->batches;
    probe_scanned += b.abs_card;
    BatchKeyHashes(pcols, b, probe_hashes);
    for (size_t i = b.begin; i < b.end; ++i) {
      const uint64_t h = probe_hashes[i - b.begin];
      int64_t pc = pmult[i];
      for (int32_t j = heads[h & mask]; j >= 0; j = chain[j]) {
        if (hashes[j] != h) continue;
        ++cnt->key_cmps;
        const size_t bj = static_cast<size_t>(j);
        if (!(kProbeIsLeft ? eq.Eq(i, bj) : eq.Eq(bj, i))) continue;
        int64_t prod = pc * bmult[bj];
        if (prod != 0) emit(i, bj, prod);
        produced += std::llabs(prod);
      }
    }
  });
  cnt->rows += static_cast<int64_t>(pn);
  cnt->key_mixes += static_cast<int64_t>(pn) * arity;
  if (stats != nullptr) {
    stats->rows_scanned += scanned + probe_scanned;
    stats->hash_probes += static_cast<int64_t>(kProbeIsLeft ? pn : bn);
    stats->hash_build_rows += static_cast<int64_t>(kProbeIsLeft ? bn : pn);
    stats->rows_produced += produced;
  }
}

/// HashedSide::kLeft: ChainedHashJoin over the left side with the right
/// side streamed past it in ascending order.  Only the match order
/// differs from the resident branches; a counting sort by left row
/// restores the kernel's.  Fills the output's left and right row ids and
/// multiplicities.
void ProbeSideJoin(const ColumnTable& lct, const ColumnTable& rct,
                   const std::vector<const ColumnVec*>& lcols,
                   const std::vector<const ColumnVec*>& rcols,
                   const KeyEq& eq, OperatorStats* stats, VecCounters* cnt,
                   std::vector<uint32_t>* out_lids,
                   std::vector<uint32_t>* out_rids,
                   std::vector<int64_t>* out_mult) {
  const size_t ln = lct.num_rows();
  // Matches in stream order (right index ascending), counted per left
  // row.
  std::vector<uint32_t> lids, rids;
  std::vector<int64_t> mults;
  std::vector<uint32_t> per_left(ln + 1, 0);
  ChainedHashJoin</*kProbeIsLeft=*/false>(
      lct, lcols, rct, rcols, eq, stats, cnt,
      [&](size_t j, size_t i, int64_t prod) {
        lids.push_back(static_cast<uint32_t>(i));
        rids.push_back(static_cast<uint32_t>(j));
        mults.push_back(prod);
        ++per_left[i + 1];
      });

  // Walking the stream backwards places each left row's matches in
  // descending right index, the kernel's order.
  for (size_t i = 0; i < ln; ++i) per_left[i + 1] += per_left[i];
  const size_t total = lids.size();
  out_lids->resize(total);
  out_rids->resize(total);
  out_mult->resize(total);
  for (size_t k = total; k-- > 0;) {
    const uint32_t pos = per_left[lids[k]]++;
    (*out_lids)[pos] = lids[k];
    (*out_rids)[pos] = rids[k];
    (*out_mult)[pos] = mults[k];
  }
}

}  // namespace

namespace vec {

Rows TryHashJoin(const Rows& left, const Rows& right,
                 const std::vector<size_t>& left_idx,
                 const std::vector<size_t>& right_idx, OperatorStats* stats,
                 ThreadPool* pool, const CancelToken* cancel,
                 HashedSide hashed, const std::vector<size_t>* columns,
                 std::vector<uint32_t>* probe_rows) {
  std::shared_ptr<const ColumnTable> lct = left.Columnar();
  std::shared_ptr<const ColumnTable> rct = right.Columnar();

  VecCounters cnt;
  KeyEq eq = MakeKeyEq(*lct, left_idx, *rct, right_idx);
  cnt.value_hashes += eq.setup_value_hashes;
  std::vector<const ColumnVec*> lcols, rcols;
  for (size_t i : left_idx) lcols.push_back(&lct->column(i));
  for (size_t i : right_idx) rcols.push_back(&rct->column(i));

  const size_t n = rct->num_rows();
  const size_t ln = lct->num_rows();
  const std::vector<int64_t>& rmult = rct->mult();
  const std::vector<int64_t>& lmult = lct->mult();
  const int64_t arity = static_cast<int64_t>(left_idx.size());

  const Schema concat = Schema::Concat(left.schema, right.schema);
  const std::vector<size_t> out_columns =
      columns != nullptr ? *columns : AllColumns(concat);

  std::vector<uint32_t> out_lids, out_rids;
  std::vector<int64_t> out_mult;

  if (hashed == HashedSide::kLeft) {
    ProbeSideJoin(*lct, *rct, lcols, rcols, eq, stats, &cnt, &out_lids,
                  &out_rids, &out_mult);
  } else if (!ShouldParallelize(pool, ln + n) && ln * 4 <= n) {
    // A probe side at most a quarter of the build side: hashing it instead
    // keeps the table cache-resident and skips the build side's hash,
    // chain and bucket arrays (a Comp term probes a whole extent with a
    // delta this way).  Same output, order and counters.
    ProbeSideJoin(*lct, *rct, lcols, rcols, eq, stats, &cnt, &out_lids,
                  &out_rids, &out_mult);
  } else if (ShouldParallelize(pool, ln + n)) {
    // Build-side hashes, morsel-at-a-time (pre-hashed key columns).
    std::vector<uint64_t> hashes(n);
    // Determinism argument, step by step:
    //  - partition row-id lists are written morsel-block by morsel-block in
    //    morsel order, so each partition's ids ascend in global row order;
    //  - each partition's chain is built over ascending ids, so a probe
    //    walks matching rows in DESCENDING global index — exactly the
    //    order the sequential single-table chain yields for the same key;
    //  - probe morsels buffer output locally and merge in morsel order.
    // Counter parity with ChainedHashJoin: kEngine counters must not
    // depend on the pool size, so report the same row/batch totals its
    // batch loops would have.
    cnt.rows += static_cast<int64_t>(n + ln);
    cnt.batches += static_cast<int64_t>((n + kBatchRows - 1) / kBatchRows) +
                   static_cast<int64_t>((ln + kBatchRows - 1) / kBatchRows);
    const size_t build_morsels = (n + kMorselRows - 1) / kMorselRows;
    std::vector<uint32_t> counts(build_morsels * kVecJoinPartitions, 0);
    std::vector<int64_t> scanned(build_morsels, 0);
    pool->ParallelFor(n, kMorselRows, [&](size_t begin, size_t end) {
      size_t mi = begin / kMorselRows;
      uint32_t* c = &counts[mi * kVecJoinPartitions];
      int64_t sc = 0;
      for (size_t i = begin; i < end; ++i) {
        sc += std::llabs(rmult[i]);
        uint64_t h = RowKeyHash(rcols, i);
        hashes[i] = h;
        ++c[h >> kVecJoinPartitionShift];
      }
      scanned[mi] = sc;
    }, cancel);
    cnt.key_mixes += static_cast<int64_t>(n) * arity;
    if (stats != nullptr) {
      for (int64_t sc : scanned) stats->rows_scanned += sc;
      stats->hash_build_rows += static_cast<int64_t>(n);
    }

    std::vector<VecJoinPartition> parts(kVecJoinPartitions);
    std::vector<uint32_t> offsets(build_morsels * kVecJoinPartitions);
    for (size_t p = 0; p < kVecJoinPartitions; ++p) {
      uint32_t run = 0;
      for (size_t mi = 0; mi < build_morsels; ++mi) {
        offsets[mi * kVecJoinPartitions + p] = run;
        run += counts[mi * kVecJoinPartitions + p];
      }
      parts[p].ids.resize(run);
    }
    pool->ParallelFor(n, kMorselRows, [&](size_t begin, size_t end) {
      size_t mi = begin / kMorselRows;
      std::array<uint32_t, kVecJoinPartitions> cursor;
      for (size_t p = 0; p < kVecJoinPartitions; ++p) {
        cursor[p] = offsets[mi * kVecJoinPartitions + p];
      }
      for (size_t i = begin; i < end; ++i) {
        size_t p = hashes[i] >> kVecJoinPartitionShift;
        parts[p].ids[cursor[p]++] = static_cast<uint32_t>(i);
      }
    }, cancel);

    pool->ParallelTasks(kVecJoinPartitions, /*max_workers=*/0, [&](size_t p) {
      VecJoinPartition& part = parts[p];
      const size_t pm = part.ids.size();
      if (pm == 0) return;
      size_t nbuckets = 16;
      while (nbuckets < pm * 2) nbuckets <<= 1;
      part.mask = nbuckets - 1;
      part.heads.assign(nbuckets, -1);
      part.chain.resize(pm);
      for (size_t j = 0; j < pm; ++j) {
        uint64_t h = hashes[part.ids[j]];
        part.chain[j] = part.heads[h & part.mask];
        part.heads[h & part.mask] = static_cast<int32_t>(j);
      }
    }, cancel);

    // Morsel-parallel probe; per-morsel buffers merge in morsel order.
    const size_t probe_morsels = (ln + kMorselRows - 1) / kMorselRows;
    struct ProbeBuf {
      std::vector<uint32_t> lids, rids;
      std::vector<int64_t> mults;
      OperatorStats stats;
      int64_t key_cmps = 0;
    };
    std::vector<ProbeBuf> bufs(probe_morsels);
    pool->ParallelFor(ln, kMorselRows, [&](size_t begin, size_t end) {
      ProbeBuf& buf = bufs[begin / kMorselRows];
      for (size_t i = begin; i < end; ++i) {
        int64_t lc = lmult[i];
        buf.stats.rows_scanned += std::llabs(lc);
        buf.stats.hash_probes += 1;
        uint64_t h = RowKeyHash(lcols, i);
        const VecJoinPartition& part = parts[h >> kVecJoinPartitionShift];
        if (part.heads.empty()) continue;
        for (int32_t j = part.heads[h & part.mask]; j >= 0;
             j = part.chain[j]) {
          uint32_t r = part.ids[j];
          if (hashes[r] != h) continue;
          ++buf.key_cmps;
          if (!eq.Eq(i, r)) continue;
          int64_t rc = rmult[r];
          int64_t prod = lc * rc;
          if (prod != 0) {
            buf.lids.push_back(static_cast<uint32_t>(i));
            buf.rids.push_back(r);
            buf.mults.push_back(prod);
          }
          buf.stats.rows_produced += std::llabs(prod);
        }
      }
    }, cancel);
    cnt.key_mixes += static_cast<int64_t>(ln) * arity;

    size_t total = 0;
    for (const ProbeBuf& buf : bufs) total += buf.lids.size();
    out_lids.reserve(total);
    out_rids.reserve(total);
    out_mult.reserve(total);
    for (ProbeBuf& buf : bufs) {
      out_lids.insert(out_lids.end(), buf.lids.begin(), buf.lids.end());
      out_rids.insert(out_rids.end(), buf.rids.begin(), buf.rids.end());
      out_mult.insert(out_mult.end(), buf.mults.begin(), buf.mults.end());
      cnt.key_cmps += buf.key_cmps;
      if (stats != nullptr) *stats += buf.stats;
    }
  } else {
    ChainedHashJoin</*kProbeIsLeft=*/true>(
        *rct, rcols, *lct, lcols, eq, stats, &cnt,
        [&](size_t i, size_t j, int64_t prod) {
          out_lids.push_back(static_cast<uint32_t>(i));
          out_rids.push_back(static_cast<uint32_t>(j));
          out_mult.push_back(prod);
        });
  }

  Rows out = Rows::FromColumnar(
      GatherJoinTable(concat.Project(out_columns), out_columns, *lct,
                      out_lids, *rct, out_rids, std::move(out_mult), &cnt));
  if (probe_rows != nullptr) *probe_rows = std::move(out_lids);
  cnt.Flush();
  return out;
}

}  // namespace vec

// ---------------------------------------------------------------------------
// Aggregate.

namespace {

/// An aggregation compiled against its input schema: group key positions,
/// SUM arguments and the output schema.
struct AggPlan {
  std::vector<size_t> key_idx;
  std::vector<std::unique_ptr<VecExpr>> args;
  std::vector<bool> sum_is_int;
  Schema out_schema;
};

AggPlan CompileAggregate(const Schema& schema,
                         const std::vector<std::string>& group_by,
                         const std::vector<AggSpec>& aggs) {
  AggPlan plan;
  std::vector<Column> out_cols;
  for (const std::string& name : group_by) {
    plan.key_idx.push_back(schema.MustIndexOf(name));
    out_cols.push_back(schema.column(plan.key_idx.back()));
  }
  plan.args.resize(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].fn == AggFn::kSum) {
      WUW_CHECK(aggs[a].arg != nullptr, "SUM requires an argument expression");
      plan.args[a] = CompileNode(*aggs[a].arg, schema);
      WUW_CHECK(plan.args[a]->type != TypeId::kString,
                "SUM over a string argument (ValidateDefinition rejects it)");
      bool is_int = plan.args[a]->type == TypeId::kInt64;
      plan.sum_is_int.push_back(is_int);
      out_cols.push_back(
          Column{aggs[a].name, is_int ? TypeId::kInt64 : TypeId::kDouble});
    } else {
      plan.sum_is_int.push_back(true);
      out_cols.push_back(Column{aggs[a].name, TypeId::kInt64});
    }
  }
  out_cols.push_back(Column{kGroupCountColumn, TypeId::kInt64});
  plan.out_schema = Schema(std::move(out_cols));
  return plan;
}

/// The aggregate kernel over one image: groups emit in first-occurrence
/// order, their key cells gathered from each group's first row.  Fills
/// `first_rows` (when non-null) with the first row of every emitted group.
Rows AggregateImage(const ColumnTable& ct, const AggPlan& plan,
                    const std::vector<AggSpec>& aggs, OperatorStats* stats,
                    std::vector<uint32_t>* first_rows) {
  const std::vector<size_t>& key_idx = plan.key_idx;
  const std::vector<bool>& sum_is_int = plan.sum_is_int;
  VecCounters cnt;
  const size_t n = ct.num_rows();
  const std::vector<int64_t>& mult = ct.mult();
  const int64_t arity = static_cast<int64_t>(key_idx.size());
  std::vector<const ColumnVec*> kcols;
  for (size_t i : key_idx) kcols.push_back(&ct.column(i));
  KeyEq eq = MakeKeyEq(ct, key_idx, ct, key_idx);
  cnt.value_hashes += eq.setup_value_hashes;

  // Evaluate every SUM argument over the whole input, batch-at-a-time,
  // into flat argument columns (int64 exact sums / double images).
  std::vector<std::vector<int64_t>> arg_ints(aggs.size());
  std::vector<std::vector<double>> arg_dbls(aggs.size());
  std::vector<std::vector<uint8_t>> arg_nulls(aggs.size());
  ForEachBatch(ct, [&](const RowBatch& b) {
    ++cnt.batches;
    cnt.rows += static_cast<int64_t>(b.size());
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (aggs[a].fn != AggFn::kSum) continue;
      VecVal v;
      EvalNodeVec(*plan.args[a], ct, b, &cnt, &v);
      const size_t m = b.size();
      std::vector<uint8_t>& nu = arg_nulls[a];
      if (sum_is_int[a]) {
        std::vector<int64_t>& xs = arg_ints[a];
        const int64_t cint =
            v.is_const && !v.cval.is_null() ? v.cval.AsInt64() : 0;
        for (size_t k = 0; k < m; ++k) {
          bool null = v.IsNullAt(k);
          xs.push_back(null ? 0 : (v.is_const ? cint : v.ints[k]));
          nu.push_back(null ? 1 : 0);
        }
      } else {
        std::vector<double>& xs = arg_dbls[a];
        // SUM of a non-int argument accumulates its double image; a null
        // contributes nothing.
        const double cimg = v.is_const && !v.cval.is_null()
                                ? v.cval.NumericValue()
                                : 0.0;
        for (size_t k = 0; k < m; ++k) {
          bool null = v.IsNullAt(k);
          xs.push_back(null ? 0.0 : (v.is_const ? cimg : v.ImageAt(k)));
          nu.push_back(null ? 1 : 0);
        }
      }
    }
  });

  // Flat chained group table: groups are created in first-occurrence order
  // and accumulated in input order.
  size_t nbuckets = 16;
  while (nbuckets < n + 16) nbuckets <<= 1;
  const uint64_t mask = nbuckets - 1;
  std::vector<int32_t> heads(nbuckets, -1);
  std::vector<int32_t> chain;
  std::vector<uint64_t> ghashes;
  std::vector<uint32_t> first_row;
  std::vector<std::vector<int64_t>> gi(aggs.size());
  std::vector<std::vector<double>> gd(aggs.size());
  std::vector<int64_t> gcount;
  int64_t scanned = 0;

  for (size_t i = 0; i < n; ++i) {
    scanned += std::llabs(mult[i]);
    uint64_t h = RowKeyHash(kcols, i);
    int32_t group = -1;
    for (int32_t g = heads[h & mask]; g >= 0; g = chain[g]) {
      if (ghashes[g] != h) continue;
      ++cnt.key_cmps;
      if (eq.Eq(i, first_row[g])) {
        group = g;
        break;
      }
    }
    if (group < 0) {
      group = static_cast<int32_t>(first_row.size());
      first_row.push_back(static_cast<uint32_t>(i));
      ghashes.push_back(h);
      chain.push_back(heads[h & mask]);
      heads[h & mask] = group;
      gcount.push_back(0);
      for (size_t a = 0; a < aggs.size(); ++a) {
        gi[a].push_back(0);
        gd[a].push_back(0.0);
      }
    }
    int64_t m = mult[i];
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (aggs[a].fn == AggFn::kCount) {
        gi[a][group] += m;
      } else if (sum_is_int[a]) {
        if (!arg_nulls[a][i]) gi[a][group] += m * arg_ints[a][i];
      } else {
        if (!arg_nulls[a][i]) {
          gd[a][group] += static_cast<double>(m) * arg_dbls[a][i];
        }
      }
    }
    gcount[group] += m;
  }
  cnt.key_mixes += static_cast<int64_t>(n) * arity;

  // The emitted groups' key cells, gathered from their first rows.
  std::vector<uint32_t> emitted;
  for (size_t g = 0; g < first_row.size(); ++g) {
    bool all_zero = gcount[g] == 0;
    for (size_t a = 0; a < aggs.size() && all_zero; ++a) {
      if (sum_is_int[a] ? gi[a][g] != 0 : gd[a][g] != 0.0) all_zero = false;
    }
    if (!all_zero) emitted.push_back(static_cast<uint32_t>(g));
  }
  std::vector<uint32_t> ids(emitted.size());
  for (size_t k = 0; k < emitted.size(); ++k) ids[k] = first_row[emitted[k]];
  auto out = std::make_shared<ColumnTable>(plan.out_schema);
  for (size_t c = 0; c < key_idx.size(); ++c) {
    GatherColumnInto(ct.column(key_idx[c]), ids, out->mutable_column(c));
  }
  for (size_t a = 0; a < aggs.size(); ++a) {
    ColumnVec* col = out->mutable_column(key_idx.size() + a);
    for (uint32_t g : emitted) {
      if (sum_is_int[a]) {
        col->ints.push_back(gi[a][g]);
      } else {
        col->dbls.push_back(gd[a][g]);
      }
    }
  }
  ColumnVec* counts = out->mutable_column(key_idx.size() + aggs.size());
  for (uint32_t g : emitted) counts->ints.push_back(gcount[g]);
  out->mutable_mult()->assign(emitted.size(), 1);
  out->Finish();
  const int64_t produced = static_cast<int64_t>(emitted.size());
  if (stats != nullptr) {
    stats->rows_scanned += scanned;
    stats->rows_produced += produced;
  }
  cnt.Flush();
  if (first_rows != nullptr) *first_rows = std::move(ids);
  return Rows::FromColumnar(std::move(out));
}

/// WUW_MEM_MB grace aggregation, for an input over the spill threshold:
/// the rows partition by the TOP bits of their key hash and spill as
/// column images (algebra/spill_util.h), then each partition runs the
/// kernel on its rows read back, so operator memory holds one partition's
/// group table.  A group's rows share one partition and keep their input
/// order there (bit-identical double SUMs); ordering the partitions'
/// groups by their global first row reproduces the resident kernel's
/// first-occurrence order, and the partitions' stats sum to its stats.
Rows GraceAggregate(const ColumnTable& ct, const AggPlan& plan,
                    const std::vector<AggSpec>& aggs, OperatorStats* stats,
                    const paged::PagedOptions& options) {
  const std::vector<std::vector<uint32_t>> parts =
      spill::PartitionRows(ct, plan.key_idx, options.partitions);
  spill::PartitionedSpill spilled(options, parts.size());
  for (size_t p = 0; p < parts.size(); ++p) spilled.Write(p, ct, parts[p]);

  // The partitions' groups, concatenated, and each one's global first row.
  Rows groups(plan.out_schema);
  std::vector<uint32_t> first_of;
  for (size_t p = 0; p < parts.size(); ++p) {
    std::vector<uint32_t> first_rows;
    Rows out = AggregateImage(*spilled.Read(p).Columnar(), plan, aggs, stats,
                              &first_rows);
    for (uint32_t i : first_rows) first_of.push_back(parts[p][i]);
    groups.Append(out);
  }
  std::vector<uint32_t> order(first_of.size());
  std::iota(order.begin(), order.end(), uint32_t{0});
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return first_of[a] < first_of[b];
  });
  auto merged = std::make_shared<ColumnTable>(plan.out_schema);
  merged->AppendRows(*groups.Columnar(), order);
  return Rows::FromColumnar(std::move(merged));
}

}  // namespace

Rows AggregateSigned(const Rows& input, const std::vector<std::string>& group_by,
                     const std::vector<AggSpec>& aggs, OperatorStats* stats,
                     ThreadPool* /*pool*/, const CancelToken* /*cancel*/) {
  const AggPlan plan = CompileAggregate(input.schema, group_by, aggs);
  std::shared_ptr<const ColumnTable> ct = input.Columnar();
  // WUW_MEM_MB: an oversized input takes the grace-partition spill route so
  // a paged run bounds its operator memory wherever the input is big.
  // Disarmed: one relaxed atomic load.
  const paged::PagedOptions* spill_opts = paged::OperatorSpill();
  if (spill_opts != nullptr &&
      spill::RowsExceedBytes(input, paged::ResolvedSpillBytes(*spill_opts))) {
    return GraceAggregate(*ct, plan, aggs, stats, *spill_opts);
  }
  return AggregateImage(*ct, plan, aggs, stats, nullptr);
}

}  // namespace wuw
