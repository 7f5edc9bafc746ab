#include "storage/column_table.h"

#include <algorithm>
#include <cstdlib>
#include <functional>

#include "common/check.h"
#include "obs/metrics.h"

namespace wuw {

uint32_t StringDict::Intern(const std::string& s) {
  auto it = lookup_.find(s);
  if (it != lookup_.end()) return it->second;
  WUW_CHECK(strings_.size() < kNullStringCode, "string dictionary overflow");
  uint32_t code = static_cast<uint32_t>(strings_.size());
  strings_.push_back(s);
  hashes_.push_back(Mix64(std::hash<std::string>{}(s)));
  lookup_.emplace(s, code);
  return code;
}

uint32_t StringDict::Find(const std::string& s) const {
  auto it = lookup_.find(s);
  return it == lookup_.end() ? kNullStringCode : it->second;
}

size_t ColumnVec::size() const {
  switch (type) {
    case TypeId::kString:
      return codes.size();
    case TypeId::kDouble:
      return dbls.size();
    default:
      return ints.size();
  }
}

Value ColumnVec::ValueAt(size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (type) {
    case TypeId::kInt64:
      return Value::Int64(ints[i]);
    case TypeId::kDate:
      return Value::Date(ints[i]);
    case TypeId::kDouble:
      return Value::Double(dbls[i]);
    case TypeId::kString:
      return Value::String(dict->At(codes[i]));
    case TypeId::kNull:
      return Value::Null();
  }
  return Value::Null();
}

ColumnTable::ColumnTable(Schema schema) : schema_(std::move(schema)) {
  columns_.resize(schema_.num_columns());
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].type = schema_.column(c).type;
  }
}

std::shared_ptr<ColumnTable> ColumnTable::FromRows(
    const Schema& schema,
    const std::vector<std::pair<Tuple, int64_t>>& rows) {
  if (rows.size() >= kNullStringCode) return nullptr;
  auto out = std::make_shared<ColumnTable>(schema);
  const size_t ncols = schema.num_columns();
  const size_t n = rows.size();
  std::vector<std::shared_ptr<StringDict>> dicts(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    ColumnVec& col = out->columns_[c];
    switch (col.type) {
      case TypeId::kString:
        dicts[c] = std::make_shared<StringDict>();
        col.codes.reserve(n);
        break;
      case TypeId::kDouble:
        col.dbls.reserve(n);
        break;
      default:
        col.ints.reserve(n);
        break;
    }
  }
  out->mult_.reserve(n);

  for (const auto& [tuple, m] : rows) {
    if (tuple.size() != ncols) return nullptr;
    for (size_t c = 0; c < ncols; ++c) {
      ColumnVec& col = out->columns_[c];
      const Value& v = tuple.value(c);
      const bool null = v.is_null();
      // A non-null cell must carry exactly the declared type: anything else
      // (legal in the untyped row engine) cannot round-trip through the
      // typed array, so the whole batch stays row-major.
      if (!null && v.type() != col.type) return nullptr;
      switch (col.type) {
        case TypeId::kInt64:
        case TypeId::kDate:
        case TypeId::kNull:
          col.ints.push_back(null ? 0
                                  : (col.type == TypeId::kDate ? v.AsDate()
                                                               : v.AsInt64()));
          break;
        case TypeId::kDouble:
          col.dbls.push_back(null ? 0.0 : v.AsDouble());
          break;
        case TypeId::kString:
          col.codes.push_back(null ? kNullStringCode
                                   : dicts[c]->Intern(v.AsString()));
          break;
      }
      if (null && col.type != TypeId::kString) {
        if (col.nulls.empty()) col.nulls.resize(n, 0);
        col.nulls[out->mult_.size()] = 1;
      }
    }
    out->mult_.push_back(m);
  }
  int64_t interned = 0;
  for (size_t c = 0; c < ncols; ++c) {
    if (out->columns_[c].type == TypeId::kString) {
      interned += static_cast<int64_t>(dicts[c]->size());
      out->columns_[c].dict = std::move(dicts[c]);
    }
  }
  out->Finish();
  // One row->column conversion; interning is the only Value-level hashing
  // the vectorized engine ever pays for strings (once per distinct string,
  // amortized across every kernel that reuses the cached table).
  WUW_METRIC_ADD("engine.vec.conversions", obs::MetricClass::kEngine, 1);
  WUW_METRIC_ADD("engine.vec.value_hashes", obs::MetricClass::kEngine,
                 interned);
  return out;
}

bool TupleFitsSchema(const Schema& schema, const Tuple& tuple) {
  if (tuple.size() != schema.num_columns()) return false;
  for (size_t c = 0; c < tuple.size(); ++c) {
    const Value& v = tuple.value(c);
    if (!v.is_null() && v.type() != schema.column(c).type) return false;
  }
  return true;
}

bool ColumnTable::Accepts(const Tuple& tuple) const {
  return mult_.size() + 1 < kNullStringCode && TupleFitsSchema(schema_, tuple);
}

namespace {

/// A copy of `from` with room for `capacity` elements (none when empty:
/// an inactive payload or an absent null mask stays unallocated).
template <typename T>
std::vector<T> ReservedCopy(const std::vector<T>& from, size_t capacity) {
  std::vector<T> out;
  if (from.empty()) return out;
  out.reserve(capacity);
  out.assign(from.begin(), from.end());
  return out;
}

/// `col`'s dictionary, made writable: created when absent, copied while
/// anyone else holds it.  Every dict is allocated mutable.
StringDict* WritableDict(ColumnVec* col) {
  if (col->dict == nullptr) {
    col->dict = std::make_shared<StringDict>();
  } else if (col->dict.use_count() != 1) {
    col->dict = std::make_shared<StringDict>(*col->dict);
  }
  return const_cast<StringDict*>(col->dict.get());
}

/// CompactDicts for one column: a dictionary holding more than
/// 2 x rows + 64 strings is replaced by one holding the strings the codes
/// use, in first-occurrence order, and the codes are rewritten.
void CompactDict(ColumnVec* col) {
  const size_t bound = 2 * col->codes.size() + 64;
  if (col->dict == nullptr || col->dict->size() <= bound) return;
  std::vector<uint32_t> remap(col->dict->size(), kNullStringCode);
  auto fresh = std::make_shared<StringDict>();
  for (uint32_t& code : col->codes) {
    if (code == kNullStringCode) continue;
    uint32_t& to = remap[code];
    if (to == kNullStringCode) to = fresh->Intern(col->dict->At(code));
    code = to;
  }
  WUW_METRIC_ADD("engine.vec.value_hashes", obs::MetricClass::kEngine,
                 static_cast<int64_t>(fresh->size()));
  col->dict = std::move(fresh);
}

template <typename T>
void AppendGathered(const std::vector<T>& from,
                    const std::vector<uint32_t>& ids, std::vector<T>* to) {
  const size_t base = to->size();
  to->resize(base + ids.size());
  for (size_t k = 0; k < ids.size(); ++k) (*to)[base + k] = from[ids[k]];
}

}  // namespace

std::shared_ptr<ColumnTable> ColumnTable::CopyForEdit() const {
  auto out = std::make_shared<ColumnTable>();
  out->schema_ = schema_;
  const size_t capacity = EditCapacity(num_rows());
  out->columns_.resize(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    const ColumnVec& from = columns_[c];
    ColumnVec& to = out->columns_[c];
    to.type = from.type;
    to.ints = ReservedCopy(from.ints, capacity);
    to.dbls = ReservedCopy(from.dbls, capacity);
    to.codes = ReservedCopy(from.codes, capacity);
    to.dict = from.dict;
    to.nulls = ReservedCopy(from.nulls, capacity);
  }
  out->mult_ = ReservedCopy(mult_, capacity);
  out->abs_total_ = abs_total_;
  out->signed_total_ = signed_total_;
  return out;
}

void ColumnTable::AppendRow(const Tuple& tuple, int64_t m) {
  const size_t row = mult_.size();
  for (size_t c = 0; c < columns_.size(); ++c) {
    ColumnVec& col = columns_[c];
    const Value& v = tuple.value(c);
    const bool null = v.is_null();
    switch (col.type) {
      case TypeId::kInt64:
      case TypeId::kDate:
      case TypeId::kNull:
        col.ints.push_back(
            null ? 0 : (col.type == TypeId::kDate ? v.AsDate() : v.AsInt64()));
        break;
      case TypeId::kDouble:
        col.dbls.push_back(null ? 0.0 : v.AsDouble());
        break;
      case TypeId::kString: {
        uint32_t code = kNullStringCode;
        if (!null && col.dict != nullptr) code = col.dict->Find(v.AsString());
        if (!null && code == kNullStringCode) {
          // Outputs gathered from this table share its dict and must never
          // see it grow, so a shared dict is copied before the first new
          // string.
          code = WritableDict(&col)->Intern(v.AsString());
          WUW_METRIC_ADD("engine.vec.value_hashes", obs::MetricClass::kEngine,
                         1);
        }
        col.codes.push_back(code);
        break;
      }
    }
    if (null && col.type != TypeId::kString) {
      if (col.nulls.empty()) col.nulls.resize(row, 0);
      col.nulls.push_back(1);
    } else if (!col.nulls.empty() && col.type != TypeId::kString) {
      col.nulls.push_back(0);
    }
  }
  mult_.push_back(m);
  abs_total_ += std::llabs(m);
  signed_total_ += m;
}

void ColumnTable::AppendRows(const ColumnTable& src,
                             const std::vector<uint32_t>& ids) {
  WUW_CHECK(src.num_columns() == num_columns(),
            "AppendRows: the source has another arity");
  WUW_CHECK(num_rows() + ids.size() < kNullStringCode,
            "AppendRows: too many rows for a column image");
  const size_t base = num_rows();
  for (size_t c = 0; c < columns_.size(); ++c) {
    ColumnVec& to = columns_[c];
    const ColumnVec& from = src.columns_[c];
    WUW_CHECK(to.type == from.type,
              "AppendRows: a source column has another type");
    switch (to.type) {
      case TypeId::kString: {
        if (to.dict == from.dict) {
          AppendGathered(from.codes, ids, &to.codes);
          break;
        }
        // A large dictionary this column shares (a table's, say) is
        // compacted to the strings its rows use before a new string is
        // interned, rather than copied whole.
        CompactDict(&to);
        // from-code -> to-code, filled on first use (kNullStringCode =
        // not seen yet; NULL cells never consult it).
        std::vector<uint32_t> remap(from.dict != nullptr ? from.dict->size()
                                                         : 0,
                                    kNullStringCode);
        to.codes.reserve(base + ids.size());
        for (uint32_t id : ids) {
          const uint32_t code = from.codes[id];
          if (code != kNullStringCode && remap[code] == kNullStringCode) {
            const std::string& str = from.dict->At(code);
            const uint32_t known =
                to.dict != nullptr ? to.dict->Find(str) : kNullStringCode;
            remap[code] =
                known != kNullStringCode ? known : WritableDict(&to)->Intern(str);
          }
          to.codes.push_back(code == kNullStringCode ? code : remap[code]);
        }
        break;
      }
      case TypeId::kDouble:
        AppendGathered(from.dbls, ids, &to.dbls);
        break;
      default:
        AppendGathered(from.ints, ids, &to.ints);
        break;
    }
    if (to.type == TypeId::kString) continue;
    if (!from.nulls.empty()) {
      if (to.nulls.empty()) to.nulls.resize(base, 0);
      AppendGathered(from.nulls, ids, &to.nulls);
    } else if (!to.nulls.empty()) {
      to.nulls.resize(base + ids.size(), 0);
    }
  }
  mult_.reserve(base + ids.size());
  for (uint32_t id : ids) {
    mult_.push_back(src.mult_[id]);
    abs_total_ += std::llabs(src.mult_[id]);
    signed_total_ += src.mult_[id];
  }
}

void ColumnTable::RemoveRow(size_t i) {
  const size_t last = mult_.size() - 1;
  for (ColumnVec& col : columns_) {
    switch (col.type) {
      case TypeId::kString:
        col.codes[i] = col.codes[last];
        col.codes.pop_back();
        break;
      case TypeId::kDouble:
        col.dbls[i] = col.dbls[last];
        col.dbls.pop_back();
        break;
      default:
        col.ints[i] = col.ints[last];
        col.ints.pop_back();
        break;
    }
    if (!col.nulls.empty()) {
      col.nulls[i] = col.nulls[last];
      col.nulls.pop_back();
    }
  }
  mult_[i] = mult_[last];
  mult_.pop_back();
}

void ColumnTable::CompactDicts() {
  for (ColumnVec& col : columns_) CompactDict(&col);
}

void ColumnTable::Finish() {
  abs_total_ = AbsCardBetween(0, mult_.size());
  signed_total_ = SignedCardBetween(0, mult_.size());
}

int64_t ColumnTable::AbsCardBetween(size_t begin, size_t end) const {
  int64_t sum = 0;
  for (size_t i = begin; i < end; ++i) sum += std::llabs(mult_[i]);
  return sum;
}

int64_t ColumnTable::SignedCardBetween(size_t begin, size_t end) const {
  int64_t sum = 0;
  for (size_t i = begin; i < end; ++i) sum += mult_[i];
  return sum;
}

Tuple ColumnTable::TupleAt(size_t i) const {
  std::vector<Value> values;
  values.reserve(columns_.size());
  for (const ColumnVec& col : columns_) values.push_back(col.ValueAt(i));
  return Tuple(std::move(values));
}

namespace {

/// Cell i equals cell j under Value's equality; strings compare by code
/// (a dictionary holds each string once).
bool CellsEqual(const ColumnVec& col, size_t i, size_t j) {
  const bool in = CellIsNull(col, i), jn = CellIsNull(col, j);
  if (in || jn) return in == jn;
  if (col.type == TypeId::kString) return col.codes[i] == col.codes[j];
  return NumericImageAt(col, i) == NumericImageAt(col, j);
}

/// CellHashAt of a cell equal to `v`: the same normalized double image for
/// every numeric type, the dictionary's string hash, kNullCellHash.
uint64_t ValueCellHash(const Value& v) {
  switch (v.type()) {
    case TypeId::kNull:
      return kNullCellHash;
    case TypeId::kString:
      return Mix64(std::hash<std::string>{}(v.AsString()));
    default: {
      double d = v.NumericValue();
      if (d == 0.0) d = 0.0;
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return Mix64(bits);
    }
  }
}

/// Cell i equals `v` under Value's equality.
bool CellEqualsValue(const ColumnVec& col, size_t i, const Value& v) {
  if (CellIsNull(col, i) || v.is_null()) {
    return CellIsNull(col, i) && v.is_null();
  }
  if (col.type == TypeId::kString) {
    return v.type() == TypeId::kString &&
           col.dict->At(col.codes[i]) == v.AsString();
  }
  return v.type() != TypeId::kString &&
         NumericImageAt(col, i) == v.NumericValue();
}

}  // namespace

namespace {

template <typename T, bool kHasNulls>
void FoldNumericHashes(const T* cells, const uint8_t* nulls, size_t n,
                       uint64_t* hashes) {
  for (size_t i = 0; i < n; ++i) {
    uint64_t cell = kNullCellHash;
    if (!kHasNulls || nulls[i] == 0) {
      double d = static_cast<double>(cells[i]);
      if (d == 0.0) d = 0.0;  // normalize -0.0, as CellHashAt does
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      cell = Mix64(bits);
    }
    hashes[i] = CombineKeyHash(hashes[i], cell);
  }
}

}  // namespace

void FoldCellHashes(const ColumnVec& col, size_t begin, size_t end,
                    uint64_t* hashes) {
  const size_t n = end - begin;
  const uint8_t* nulls = col.nulls.empty() ? nullptr : col.nulls.data() + begin;
  switch (col.type) {
    case TypeId::kString:
      for (size_t i = 0; i < n; ++i) {
        const uint32_t code = col.codes[begin + i];
        hashes[i] = CombineKeyHash(
            hashes[i],
            code == kNullStringCode ? kNullCellHash : col.dict->HashOf(code));
      }
      break;
    case TypeId::kNull:
      for (size_t i = 0; i < n; ++i) {
        hashes[i] = CombineKeyHash(hashes[i], kNullCellHash);
      }
      break;
    case TypeId::kDouble:
      nulls != nullptr ? FoldNumericHashes<double, true>(
                             col.dbls.data() + begin, nulls, n, hashes)
                       : FoldNumericHashes<double, false>(
                             col.dbls.data() + begin, nulls, n, hashes);
      break;
    default:
      nulls != nullptr ? FoldNumericHashes<int64_t, true>(
                             col.ints.data() + begin, nulls, n, hashes)
                       : FoldNumericHashes<int64_t, false>(
                             col.ints.data() + begin, nulls, n, hashes);
      break;
  }
}

std::vector<uint64_t> ColumnTable::RowHashes() const {
  const size_t n = num_rows();
  std::vector<uint64_t> hashes(n, kKeyHashSeed);
  for (const ColumnVec& col : columns_) {
    FoldCellHashes(col, 0, n, hashes.data());
  }
  return hashes;
}

uint64_t ColumnTable::PrefixHash(size_t i, size_t n) const {
  uint64_t h = kKeyHashSeed;
  for (size_t c = 0; c < n; ++c) {
    h = CombineKeyHash(h, CellHashAt(columns_[c], i));
  }
  return h;
}

uint64_t ColumnTable::TupleRowHash(const Tuple& tuple) {
  uint64_t h = kKeyHashSeed;
  for (const Value& v : tuple.values()) {
    h = CombineKeyHash(h, ValueCellHash(v));
  }
  return h;
}

bool ColumnTable::RowsEqual(size_t i, size_t j) const {
  for (const ColumnVec& col : columns_) {
    if (!CellsEqual(col, i, j)) return false;
  }
  return true;
}

bool ColumnTable::PrefixEquals(size_t i, const Tuple& prefix) const {
  if (prefix.size() > columns_.size()) return false;
  for (size_t c = 0; c < prefix.size(); ++c) {
    if (!CellEqualsValue(columns_[c], i, prefix.value(c))) return false;
  }
  return true;
}

ColumnMinMax ColumnTable::Stats(size_t c) const {
  const ColumnVec& col = columns_[c];
  ColumnMinMax out;
  const size_t n = num_rows();
  switch (col.type) {
    case TypeId::kInt64:
    case TypeId::kDate: {
      int64_t lo = 0, hi = 0;
      for (size_t i = 0; i < n; ++i) {
        if (col.IsNull(i)) continue;
        int64_t v = col.ints[i];
        if (!out.has_values || v < lo) lo = v;
        if (!out.has_values || v > hi) hi = v;
        out.has_values = true;
      }
      if (out.has_values) {
        out.min = col.type == TypeId::kDate ? Value::Date(lo) : Value::Int64(lo);
        out.max = col.type == TypeId::kDate ? Value::Date(hi) : Value::Int64(hi);
      }
      break;
    }
    case TypeId::kDouble: {
      double lo = 0, hi = 0;
      for (size_t i = 0; i < n; ++i) {
        if (col.IsNull(i)) continue;
        double v = col.dbls[i];
        if (!out.has_values || v < lo) lo = v;
        if (!out.has_values || v > hi) hi = v;
        out.has_values = true;
      }
      if (out.has_values) {
        out.min = Value::Double(lo);
        out.max = Value::Double(hi);
      }
      break;
    }
    case TypeId::kString: {
      uint32_t lo = 0, hi = 0;
      for (size_t i = 0; i < n; ++i) {
        uint32_t code = col.codes[i];
        if (code == kNullStringCode) continue;
        if (!out.has_values || col.dict->At(code) < col.dict->At(lo)) lo = code;
        if (!out.has_values || col.dict->At(hi) < col.dict->At(code)) hi = code;
        out.has_values = true;
      }
      if (out.has_values) {
        out.min = Value::String(col.dict->At(lo));
        out.max = Value::String(col.dict->At(hi));
      }
      break;
    }
    case TypeId::kNull:
      break;
  }
  return out;
}


}  // namespace wuw
