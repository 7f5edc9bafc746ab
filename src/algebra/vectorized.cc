#include "algebra/vectorized.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <utility>

#include "algebra/row_batch.h"
#include "common/check.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "storage/column_table.h"

namespace wuw {
namespace vec {

namespace {

// ---------------------------------------------------------------------------
// Gate.

int g_enabled_override = -1;

bool EnvEnabled() {
  const char* env = std::getenv("WUW_COLUMNAR");
  return env == nullptr || std::string(env) != "0";
}

// ---------------------------------------------------------------------------
// Cell hashing / equality.  The hash is engine-internal (see vectorized.h);
// the only requirement is consistency with Value equality: equal cells must
// hash equally.  Numerics therefore hash through their normalized double
// image (Value compares numerics by image), strings through content-based
// per-code dictionary hashes, nulls through one constant (null == null).

inline uint64_t MixBits(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

constexpr uint64_t kNullCellHash = 0x9e3779b97f4a7c15ULL;

inline uint64_t HashDouble(double d) {
  if (d == 0.0) d = 0.0;  // normalize -0.0 (mirrors Value::Hash)
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return MixBits(bits);
}

inline double NumericImageAt(const ColumnVec& c, size_t i) {
  return c.type == TypeId::kDouble ? c.dbls[i]
                                   : static_cast<double>(c.ints[i]);
}

inline uint64_t CellHashAt(const ColumnVec& c, size_t i) {
  if (c.type == TypeId::kString) {
    uint32_t code = c.codes[i];
    return code == kNullStringCode ? kNullCellHash : c.dict->HashOf(code);
  }
  if (c.type == TypeId::kNull || c.IsNull(i)) return kNullCellHash;
  return HashDouble(NumericImageAt(c, i));
}

/// Same combining scheme as KeyHash (algebra/key_util.h) so the hash
/// distributes comparably; the seed/sequence is irrelevant to correctness.
inline uint64_t CombineKeyHash(uint64_t h, uint64_t cell) {
  return h ^ (cell + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

constexpr uint64_t kKeyHashSeed = 0x345678;

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

inline bool CellIsNull(const ColumnVec& c, size_t i) {
  if (c.type == TypeId::kString) return c.codes[i] == kNullStringCode;
  if (c.type == TypeId::kNull) return true;
  return c.IsNull(i);
}

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
        col.kind = KeyColEq::kStrCrossDict;
        const StringDict& bd = *col.b->dict;
        const StringDict& ad = *col.a->dict;
        col.trans.resize(bd.size());
        for (uint32_t code = 0; code < bd.size(); ++code) {
          col.trans[code] = ad.Find(bd.At(code));
        }
        eq.setup_value_hashes += static_cast<int64_t>(bd.size());
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

std::unique_ptr<VecExpr> CompileNode(const ScalarExpr& e, const Schema& schema,
                                     bool* ok) {
  auto n = std::make_unique<VecExpr>();
  n->kind = e.kind();
  switch (e.kind()) {
    case ExprKind::kColumn: {
      int idx = schema.IndexOf(e.column_name());
      if (idx < 0) {
        *ok = false;  // row path aborts on the same input; let it
        return nullptr;
      }
      n->col = static_cast<size_t>(idx);
      n->type = schema.column(n->col).type;
      return n;
    }
    case ExprKind::kLiteral:
      n->literal = e.literal();
      n->type = n->literal.type();
      return n;
    case ExprKind::kArith: {
      n->aop = e.arith_op();
      n->lhs = CompileNode(*e.lhs(), schema, ok);
      n->rhs = CompileNode(*e.rhs(), schema, ok);
      if (!*ok) return nullptr;
      if (!IsNumericType(n->lhs->type) || !IsNumericType(n->rhs->type)) {
        *ok = false;  // row path aborts ("arithmetic requires numeric...")
        return nullptr;
      }
      n->type = (n->lhs->type == TypeId::kInt64 &&
                 n->rhs->type == TypeId::kInt64 && n->aop != ArithOp::kDiv)
                    ? TypeId::kInt64
                    : TypeId::kDouble;
      return n;
    }
    case ExprKind::kCompare: {
      n->cop = e.compare_op();
      n->lhs = CompileNode(*e.lhs(), schema, ok);
      n->rhs = CompileNode(*e.rhs(), schema, ok);
      if (!*ok) return nullptr;
      n->type = TypeId::kInt64;
      return n;
    }
    case ExprKind::kLogical: {
      n->lop = e.logical_op();
      n->lhs = CompileNode(*e.lhs(), schema, ok);
      n->rhs = CompileNode(*e.rhs(), schema, ok);
      if (!*ok) return nullptr;
      n->type = TypeId::kInt64;
      return n;
    }
    case ExprKind::kNot: {
      n->lhs = CompileNode(*e.lhs(), schema, ok);
      if (!*ok) return nullptr;
      n->type = TypeId::kInt64;
      return n;
    }
  }
  *ok = false;
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

/// Materializes visible cell k with its exact row-path Value.
Value ValueFromVec(const VecVal& v, size_t k) {
  if (v.is_const) return v.cval;
  if (v.IsNullAt(k)) return Value::Null();
  switch (v.type) {
    case TypeId::kInt64:
      return Value::Int64(v.ints[k]);
    case TypeId::kDate:
      return Value::Date(v.ints[k]);
    case TypeId::kDouble:
      return Value::Double(v.dbls[k]);
    case TypeId::kString:
      return Value::String(v.dict->At(v.codes[k]));
    case TypeId::kNull:
      return Value::Null();
  }
  return Value::Null();
}

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

bool CmpDoubles(CompareOp op, double a, double b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return a != b;
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return a <= b;
    case CompareOp::kGt:
      return a > b;
    case CompareOp::kGe:
      return a >= b;
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

bool EvalNodeVec(const VecExpr& n, const ColumnTable& ct, const RowBatch& b,
                 VecCounters* cnt, VecVal* out);

/// Boolean image of `v` over `m` visible rows (row-path ToBool semantics).
bool ToBoolVec(const VecVal& v, size_t m, VecCounters* cnt,
               std::vector<uint8_t>* out) {
  out->assign(m, 0);
  if (v.is_const) {
    if (ToBoolValue(v.cval)) out->assign(m, 1);
    return true;
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
      return true;
    case TypeId::kDouble:
      for (size_t k = 0; k < m; ++k) {
        (*out)[k] = (!v.IsNullAt(k) && v.dbls[k] != 0.0) ? 1 : 0;
      }
      return true;
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
      return true;
    }
    case TypeId::kNull:
      return true;  // all false
  }
  return false;
}

bool EvalCompareVec(const VecExpr& n, const VecVal& l, const VecVal& r,
                    size_t m, VecCounters* cnt, VecVal* out) {
  out->type = TypeId::kInt64;
  out->ints.assign(m, 0);
  // A null operand compares to Int64(0) — a constant-null side zeroes the
  // whole result.
  if ((l.is_const && l.cval.is_null()) || (r.is_const && r.cval.is_null())) {
    return true;
  }
  if (l.is_const && r.is_const) {
    int res = CmpValues(n.cop, l.cval, r.cval) ? 1 : 0;
    out->ints.assign(m, res);
    return true;
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
    return true;
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
      return true;
    }
    if (l.dict == r.dict) {
      if (n.cop == CompareOp::kEq || n.cop == CompareOp::kNe) {
        const bool want_eq = n.cop == CompareOp::kEq;
        for (size_t k = 0; k < m; ++k) {
          if (l.IsNullAt(k) || r.IsNullAt(k)) continue;
          out->ints[k] = ((l.codes[k] == r.codes[k]) == want_eq) ? 1 : 0;
        }
        return true;
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
    return true;
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
    return true;
  }
}

bool EvalNodeVec(const VecExpr& n, const ColumnTable& ct, const RowBatch& b,
                 VecCounters* cnt, VecVal* out) {
  const size_t m = b.size();
  out->type = n.type;
  switch (n.kind) {
    case ExprKind::kLiteral:
      out->is_const = true;
      out->cval = n.literal;
      return true;
    case ExprKind::kColumn: {
      const ColumnVec& c = ct.column(n.col);
      if (c.type == TypeId::kNull) {
        out->is_const = true;
        out->cval = Value::Null();
        return true;
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
      return true;
    }
    case ExprKind::kArith: {
      VecVal l, r;
      if (!EvalNodeVec(*n.lhs, ct, b, cnt, &l) ||
          !EvalNodeVec(*n.rhs, ct, b, cnt, &r)) {
        return false;
      }
      if (l.is_const && r.is_const) {
        out->is_const = true;
        out->cval = FoldArith(n.aop, n.type, l.cval, r.cval);
        return true;
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
      return true;
    }
    case ExprKind::kCompare: {
      VecVal l, r;
      if (!EvalNodeVec(*n.lhs, ct, b, cnt, &l) ||
          !EvalNodeVec(*n.rhs, ct, b, cnt, &r)) {
        return false;
      }
      return EvalCompareVec(n, l, r, m, cnt, out);
    }
    case ExprKind::kLogical: {
      VecVal l, r;
      std::vector<uint8_t> lb, rb;
      if (!EvalNodeVec(*n.lhs, ct, b, cnt, &l) ||
          !ToBoolVec(l, m, cnt, &lb) ||
          !EvalNodeVec(*n.rhs, ct, b, cnt, &r) ||
          !ToBoolVec(r, m, cnt, &rb)) {
        return false;
      }
      out->ints.resize(m);
      if (n.lop == LogicalOp::kAnd) {
        for (size_t k = 0; k < m; ++k) out->ints[k] = (lb[k] & rb[k]) ? 1 : 0;
      } else {
        for (size_t k = 0; k < m; ++k) out->ints[k] = (lb[k] | rb[k]) ? 1 : 0;
      }
      return true;
    }
    case ExprKind::kNot: {
      VecVal l;
      std::vector<uint8_t> lb;
      if (!EvalNodeVec(*n.lhs, ct, b, cnt, &l) ||
          !ToBoolVec(l, m, cnt, &lb)) {
        return false;
      }
      out->ints.resize(m);
      for (size_t k = 0; k < m; ++k) out->ints[k] = lb[k] ? 0 : 1;
      return true;
    }
  }
  return false;
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

/// Columnar image of rows `ids` of `src` with multiplicities `mult`
/// (dictionaries shared, nothing re-interned).
std::shared_ptr<const ColumnTable> GatherTable(const ColumnTable& src,
                                               const std::vector<uint32_t>& ids,
                                               std::vector<int64_t> mult) {
  auto out = std::make_shared<ColumnTable>(src.schema());
  for (size_t c = 0; c < src.num_columns(); ++c) {
    GatherColumnInto(src.column(c), ids, out->mutable_column(c));
  }
  *out->mutable_mult() = std::move(mult);
  out->Finish();
  return out;
}

/// Columnar image of a join output: left columns gathered by lids, right
/// columns by rids.
std::shared_ptr<const ColumnTable> GatherJoinTable(
    const Schema& out_schema, const ColumnTable& lct,
    const std::vector<uint32_t>& lids, const ColumnTable& rct,
    const std::vector<uint32_t>& rids, std::vector<int64_t> mult) {
  auto out = std::make_shared<ColumnTable>(out_schema);
  const size_t ln = lct.num_columns();
  for (size_t c = 0; c < ln; ++c) {
    GatherColumnInto(lct.column(c), lids, out->mutable_column(c));
  }
  for (size_t c = 0; c < rct.num_columns(); ++c) {
    GatherColumnInto(rct.column(c), rids, out->mutable_column(ln + c));
  }
  *out->mutable_mult() = std::move(mult);
  out->Finish();
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Gate.

bool Enabled() {
  if (g_enabled_override >= 0) return g_enabled_override != 0;
  static const bool env_enabled = EnvEnabled();
  return env_enabled;
}

void TestOnlySetEnabled(int mode) { g_enabled_override = mode; }

// ---------------------------------------------------------------------------
// Filter.

bool TryFilter(const Rows& input, const ScalarExpr::Ptr& predicate,
               OperatorStats* stats, ThreadPool* pool,
               const CancelToken* cancel, Rows* out) {
  (void)pool;
  (void)cancel;
  std::shared_ptr<const ColumnTable> ct = input.Columnar();
  if (ct == nullptr) return false;
  bool ok = true;
  std::unique_ptr<VecExpr> expr = CompileNode(*predicate, input.schema, &ok);
  if (!ok) return false;

  VecCounters cnt;
  const std::vector<int64_t>& mult = ct->mult();
  std::vector<uint32_t> sel;
  sel.reserve(ct->num_rows());
  int64_t scanned = 0, produced = 0;

  bool supported = true;
  ForEachBatch(*ct, [&](const RowBatch& b) {
    if (!supported) return;
    ++cnt.batches;
    cnt.rows += static_cast<int64_t>(b.size());
    scanned += b.abs_card;
    VecVal v;
    std::vector<uint8_t> pass;
    if (!EvalNodeVec(*expr, *ct, b, &cnt, &v) ||
        !ToBoolVec(v, b.size(), &cnt, &pass)) {
      supported = false;
      return;
    }
    for (size_t k = 0; k < b.size(); ++k) {
      if (!pass[k]) continue;
      uint32_t id = static_cast<uint32_t>(b.row(k));
      int64_t c = mult[id];
      produced += std::llabs(c);
      if (c == 0) continue;  // Rows::Add drops zero counts; match it
      sel.push_back(id);
    }
  });
  if (!supported) return false;

  std::vector<int64_t> out_mult;
  out_mult.reserve(sel.size());
  for (uint32_t id : sel) out_mult.push_back(mult[id]);
  std::shared_ptr<const ColumnTable> gathered =
      GatherTable(*ct, sel, std::move(out_mult));
  *out = Rows::Select(input, std::move(sel), std::move(gathered));
  if (stats != nullptr) {
    stats->rows_scanned += scanned;
    stats->rows_produced += produced;
  }
  cnt.Flush();
  return true;
}

// ---------------------------------------------------------------------------
// Project.

bool TryProject(const Rows& input, const std::vector<ProjectItem>& items,
                OperatorStats* stats, ThreadPool* pool,
                const CancelToken* cancel, Rows* out) {
  (void)pool;
  (void)cancel;
  std::shared_ptr<const ColumnTable> ct = input.Columnar();
  if (ct == nullptr) return false;
  // Zero-multiplicity rows never occur in operator pipelines (Add drops
  // them), and the sequential/parallel row paths disagree on them — stay
  // on the row path for such degenerate inputs.
  for (int64_t m : ct->mult()) {
    if (m == 0) return false;
  }
  bool ok = true;
  std::vector<std::unique_ptr<VecExpr>> exprs;
  std::vector<Column> out_cols;
  exprs.reserve(items.size());
  for (const ProjectItem& item : items) {
    exprs.push_back(CompileNode(*item.expr, input.schema, &ok));
    if (!ok) return false;
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

  const size_t n = ct->num_rows();
  const std::vector<int64_t>& mult = ct->mult();
  *out = Rows(out_schema);
  RowVec& out_rows = out->mutable_rows();
  out_rows.reserve(n);
  int64_t scanned = 0;

  bool supported = true;
  ForEachBatch(*ct, [&](const RowBatch& b) {
    if (!supported) return;
    ++cnt.batches;
    cnt.rows += static_cast<int64_t>(b.size());
    scanned += b.abs_card;
    const size_t m = b.size();
    std::vector<VecVal> vals(exprs.size());
    for (size_t a = 0; a < exprs.size(); ++a) {
      if (!EvalNodeVec(*exprs[a], *ct, b, &cnt, &vals[a])) {
        supported = false;
        return;
      }
    }
    for (size_t k = 0; k < m; ++k) {
      std::vector<Value> values;
      values.reserve(exprs.size());
      for (const VecVal& v : vals) values.push_back(ValueFromVec(v, k));
      out_rows.emplace_back(Tuple(std::move(values)), mult[b.row(k)]);
    }
    // Payload columns: append this batch's slices.
    for (size_t a = 0; a < exprs.size(); ++a) {
      ColumnVec* dst = payload->mutable_column(a);
      const VecVal& v = vals[a];
      switch (exprs[a]->type) {
        case TypeId::kInt64:
        case TypeId::kDate:
        case TypeId::kNull: {
          for (size_t k = 0; k < m; ++k) {
            bool null = v.IsNullAt(k);
            dst->ints.push_back(null || exprs[a]->type == TypeId::kNull
                                    ? 0
                                    : v.IntAt(k));
            if (null && dst->nulls.empty() &&
                exprs[a]->type != TypeId::kNull) {
              dst->nulls.resize(dst->ints.size() - 1, 0);
            }
            if (!dst->nulls.empty() || exprs[a]->type == TypeId::kNull) {
              if (dst->nulls.size() < dst->ints.size()) {
                dst->nulls.resize(dst->ints.size(), 0);
              }
              dst->nulls[dst->ints.size() - 1] = null ? 1 : 0;
            }
          }
          break;
        }
        case TypeId::kDouble: {
          for (size_t k = 0; k < m; ++k) {
            bool null = v.IsNullAt(k);
            dst->dbls.push_back(null ? 0.0 : v.ImageAt(k));
            if (null && dst->nulls.empty()) {
              dst->nulls.resize(dst->dbls.size() - 1, 0);
            }
            if (!dst->nulls.empty()) {
              if (dst->nulls.size() < dst->dbls.size()) {
                dst->nulls.resize(dst->dbls.size(), 0);
              }
              dst->nulls[dst->dbls.size() - 1] = null ? 1 : 0;
            }
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
  if (!supported) return false;

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
  out->SetCachedCardinalities(ct->SignedCardBetween(0, n),
                              ct->AbsCardBetween(0, n));
  out->AttachColumnar(std::move(payload));
  if (stats != nullptr) {
    stats->rows_scanned += scanned;
    stats->rows_produced += scanned;
  }
  cnt.Flush();
  return true;
}

// ---------------------------------------------------------------------------
// Hash join.

namespace {

/// Radix partitions for the parallel build — same layout as the row-path
/// ParallelHashJoin (top hash bits pick the partition, bottom bits the
/// bucket), so the determinism argument carries over verbatim.
constexpr size_t kVecJoinPartitionBits = 6;
constexpr size_t kVecJoinPartitions = size_t{1} << kVecJoinPartitionBits;
constexpr size_t kVecJoinPartitionShift = 64 - kVecJoinPartitionBits;

struct VecJoinPartition {
  std::vector<uint32_t> ids;
  std::vector<int32_t> heads;
  std::vector<int32_t> chain;
  uint64_t mask = 0;
};

}  // namespace

bool TryHashJoin(const Rows& left, const Rows& right,
                 const std::vector<size_t>& left_idx,
                 const std::vector<size_t>& right_idx, OperatorStats* stats,
                 ThreadPool* pool, const CancelToken* cancel, Rows* out) {
  std::shared_ptr<const ColumnTable> lct = left.Columnar();
  std::shared_ptr<const ColumnTable> rct = right.Columnar();
  if (lct == nullptr || rct == nullptr) return false;

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

  Schema out_schema = Schema::Concat(left.schema, right.schema);

  // Build-side hashes, batch-at-a-time (pre-hashed key columns).
  std::vector<uint64_t> hashes(n);
  const bool parallel = ShouldParallelize(pool, ln + n);

  std::vector<uint32_t> out_lids, out_rids;
  std::vector<int64_t> out_mult;

  if (parallel) {
    // Counter parity with the sequential branch below: kEngine counters
    // must not depend on the pool size, so report the same row/batch
    // totals the batch loops would have.
    const size_t step = BatchRows();
    cnt.rows += static_cast<int64_t>(n + ln);
    cnt.batches += static_cast<int64_t>((n + step - 1) / step) +
                   static_cast<int64_t>((ln + step - 1) / step);
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
    // Sequential: one flat chained table over the full build side.  The
    // chain inserts rows in ascending order with head = most recent, so a
    // probe visits equal-key rows in DESCENDING build index — exactly the
    // row path's order.
    size_t nbuckets = 16;
    while (nbuckets < n * 2) nbuckets <<= 1;
    const uint64_t mask = nbuckets - 1;
    std::vector<int32_t> heads(nbuckets, -1);
    std::vector<int32_t> chain(n);
    int64_t scanned = 0;
    ForEachBatch(*rct, [&](const RowBatch& b) {
      ++cnt.batches;
      scanned += b.abs_card;
      for (size_t k = 0; k < b.size(); ++k) {
        size_t i = b.row(k);
        uint64_t h = RowKeyHash(rcols, i);
        hashes[i] = h;
        chain[i] = heads[h & mask];
        heads[h & mask] = static_cast<int32_t>(i);
      }
    });
    cnt.rows += static_cast<int64_t>(n);
    cnt.key_mixes += static_cast<int64_t>(n) * arity;
    if (stats != nullptr) {
      stats->rows_scanned += scanned;
      stats->hash_build_rows += static_cast<int64_t>(n);
    }

    int64_t probe_scanned = 0, produced = 0;
    ForEachBatch(*lct, [&](const RowBatch& b) {
      ++cnt.batches;
      probe_scanned += b.abs_card;
      for (size_t k = 0; k < b.size(); ++k) {
        size_t i = b.row(k);
        uint64_t h = RowKeyHash(lcols, i);
        int64_t lc = lmult[i];
        for (int32_t j = heads[h & mask]; j >= 0; j = chain[j]) {
          if (hashes[j] != h) continue;
          ++cnt.key_cmps;
          if (!eq.Eq(i, static_cast<size_t>(j))) continue;
          int64_t rc = rmult[j];
          int64_t prod = lc * rc;
          if (prod != 0) {
            out_lids.push_back(static_cast<uint32_t>(i));
            out_rids.push_back(static_cast<uint32_t>(j));
            out_mult.push_back(prod);
          }
          produced += std::llabs(prod);
        }
      }
    });
    cnt.rows += static_cast<int64_t>(ln);
    cnt.key_mixes += static_cast<int64_t>(ln) * arity;
    if (stats != nullptr) {
      stats->rows_scanned += probe_scanned;
      stats->hash_probes += static_cast<int64_t>(ln);
      stats->rows_produced += produced;
    }
  }

  *out = Rows::FromColumnar(GatherJoinTable(out_schema, *lct, out_lids, *rct,
                                             out_rids, std::move(out_mult)));
  cnt.Flush();
  return true;
}

// ---------------------------------------------------------------------------
// Aggregate.

bool TryAggregate(const Rows& input, const std::vector<std::string>& group_by,
                  const std::vector<AggSpec>& aggs, OperatorStats* stats,
                  ThreadPool* pool, const CancelToken* cancel, Rows* out) {
  (void)pool;
  (void)cancel;
  std::shared_ptr<const ColumnTable> ct = input.Columnar();
  if (ct == nullptr) return false;

  std::vector<size_t> key_idx;
  std::vector<Column> out_cols;
  for (const std::string& name : group_by) {
    int i = input.schema.IndexOf(name);
    if (i < 0) return false;  // row path aborts on the same input
    key_idx.push_back(static_cast<size_t>(i));
    out_cols.push_back(input.schema.column(i));
  }

  bool ok = true;
  std::vector<std::unique_ptr<VecExpr>> args(aggs.size());
  std::vector<bool> sum_is_int;
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].fn == AggFn::kSum) {
      if (aggs[a].arg == nullptr) return false;  // row path aborts
      args[a] = CompileNode(*aggs[a].arg, input.schema, &ok);
      if (!ok) return false;
      // SUM over a string-typed argument aborts in the row path
      // (NumericValue); fall back so the behavior stays identical.
      if (args[a]->type == TypeId::kString) return false;
      bool is_int = args[a]->type == TypeId::kInt64;
      sum_is_int.push_back(is_int);
      out_cols.push_back(
          Column{aggs[a].name, is_int ? TypeId::kInt64 : TypeId::kDouble});
    } else {
      sum_is_int.push_back(true);
      out_cols.push_back(Column{aggs[a].name, TypeId::kInt64});
    }
  }
  out_cols.push_back(Column{kGroupCountColumn, TypeId::kInt64});

  VecCounters cnt;
  const size_t n = ct->num_rows();
  const std::vector<int64_t>& mult = ct->mult();
  const int64_t arity = static_cast<int64_t>(key_idx.size());
  std::vector<const ColumnVec*> kcols;
  for (size_t i : key_idx) kcols.push_back(&ct->column(i));
  KeyEq eq = MakeKeyEq(*ct, key_idx, *ct, key_idx);
  cnt.value_hashes += eq.setup_value_hashes;

  // Evaluate every SUM argument over the whole input, batch-at-a-time,
  // into flat argument columns (int64 exact sums / double images).
  std::vector<std::vector<int64_t>> arg_ints(aggs.size());
  std::vector<std::vector<double>> arg_dbls(aggs.size());
  std::vector<std::vector<uint8_t>> arg_nulls(aggs.size());
  bool supported = true;
  ForEachBatch(*ct, [&](const RowBatch& b) {
    if (!supported) return;
    ++cnt.batches;
    cnt.rows += static_cast<int64_t>(b.size());
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (aggs[a].fn != AggFn::kSum) continue;
      VecVal v;
      if (!EvalNodeVec(*args[a], *ct, b, &cnt, &v)) {
        supported = false;
        return;
      }
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
        // Mirror the row path: SUM of a non-int argument accumulates
        // NumericValue(); a null contributes nothing.
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
  if (!supported) return false;

  // Flat chained group table, mirroring the sequential row path: groups
  // are created in first-occurrence order and accumulated in input order.
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

  *out = Rows(Schema(std::move(out_cols)));
  RowVec& out_rows = out->mutable_rows();
  out_rows.reserve(first_row.size());
  int64_t produced = 0;
  for (size_t g = 0; g < first_row.size(); ++g) {
    bool all_zero = gcount[g] == 0;
    if (all_zero) {
      for (size_t a = 0; a < aggs.size() && all_zero; ++a) {
        if (sum_is_int[a] ? gi[a][g] != 0 : gd[a][g] != 0.0) all_zero = false;
      }
    }
    if (all_zero) continue;
    Tuple row = input.rows()[first_row[g]].first.Project(key_idx);
    for (size_t a = 0; a < aggs.size(); ++a) {
      row.Append(sum_is_int[a] ? Value::Int64(gi[a][g])
                               : Value::Double(gd[a][g]));
    }
    row.Append(Value::Int64(gcount[g]));
    out_rows.emplace_back(std::move(row), 1);
    produced += 1;
  }
  out->SetCachedCardinalities(produced, produced);
  if (stats != nullptr) {
    stats->rows_scanned += scanned;
    stats->rows_produced += produced;
  }
  cnt.Flush();
  return true;
}

}  // namespace vec
}  // namespace wuw
