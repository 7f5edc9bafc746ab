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

size_t StringDict::ApproxBytes() const {
  size_t bytes = strings_.capacity() * sizeof(std::string) +
                 hashes_.capacity() * sizeof(uint64_t);
  for (const std::string& s : strings_) bytes += s.capacity();
  // unordered_map node ≈ key string + hash + two pointers.
  bytes += lookup_.size() * (sizeof(std::string) + 3 * sizeof(void*));
  return bytes;
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
    const std::vector<std::pair<Tuple, int64_t>>& rows, size_t spare_rows) {
  if (rows.size() >= kNullStringCode) return nullptr;
  auto out = std::make_shared<ColumnTable>(schema);
  const size_t ncols = schema.num_columns();
  const size_t n = rows.size();
  const size_t capacity = n + spare_rows;
  std::vector<std::shared_ptr<StringDict>> dicts(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    ColumnVec& col = out->columns_[c];
    switch (col.type) {
      case TypeId::kString:
        dicts[c] = std::make_shared<StringDict>();
        col.codes.reserve(capacity);
        break;
      case TypeId::kDouble:
        col.dbls.reserve(capacity);
        break;
      default:
        col.ints.reserve(capacity);
        break;
    }
  }
  out->mult_.reserve(capacity);

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

bool ColumnTable::Accepts(const Tuple& tuple) const {
  if (tuple.size() != columns_.size() || mult_.size() + 1 >= kNullStringCode) {
    return false;
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    const Value& v = tuple.value(c);
    if (!v.is_null() && v.type() != columns_[c].type) return false;
  }
  return true;
}

bool ColumnTable::AppendRow(const Tuple& tuple, int64_t m) {
  if (!Accepts(tuple)) return false;
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
          // string.  Every dict is allocated mutable.
          if (col.dict == nullptr) {
            col.dict = std::make_shared<StringDict>();
          } else if (col.dict.use_count() != 1) {
            col.dict = std::make_shared<StringDict>(*col.dict);
          }
          code = const_cast<StringDict*>(col.dict.get())->Intern(v.AsString());
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
  return true;
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

bool ColumnTable::DictsOverBound() const {
  for (const ColumnVec& col : columns_) {
    if (col.dict != nullptr && col.dict->size() > 2 * num_rows() + 64) {
      return true;
    }
  }
  return false;
}

void ColumnTable::CompactDicts() {
  const size_t bound = 2 * num_rows() + 64;
  for (ColumnVec& col : columns_) {
    if (col.dict == nullptr || col.dict->size() <= bound) continue;
    std::vector<uint32_t> remap(col.dict->size(), kNullStringCode);
    auto fresh = std::make_shared<StringDict>();
    for (uint32_t& code : col.codes) {
      if (code == kNullStringCode) continue;
      uint32_t& to = remap[code];
      if (to == kNullStringCode) to = fresh->Intern(col.dict->At(code));
      code = to;
    }
    WUW_METRIC_ADD("engine.vec.value_hashes", obs::MetricClass::kEngine,
                   static_cast<int64_t>(fresh->size()));
    col.dict = std::move(fresh);
  }
}

void ColumnTable::Finish() {
  const size_t n = mult_.size();
  abs_prefix_.assign(n + 1, 0);
  signed_prefix_.assign(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    abs_prefix_[i + 1] = abs_prefix_[i] + std::llabs(mult_[i]);
    signed_prefix_[i + 1] = signed_prefix_[i] + mult_[i];
  }
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

std::vector<uint64_t> ColumnTable::RowHashes() const {
  const size_t n = num_rows();
  std::vector<uint64_t> hashes(n, kKeyHashSeed);
  for (const ColumnVec& col : columns_) {
    for (size_t i = 0; i < n; ++i) {
      hashes[i] = CombineKeyHash(hashes[i], CellHashAt(col, i));
    }
  }
  return hashes;
}

uint64_t ColumnTable::RowHash(size_t i) const {
  uint64_t h = kKeyHashSeed;
  for (const ColumnVec& col : columns_) {
    h = CombineKeyHash(h, CellHashAt(col, i));
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

bool ColumnTable::RowEquals(size_t i, const Tuple& tuple) const {
  if (tuple.size() != columns_.size()) return false;
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (!CellEqualsValue(columns_[c], i, tuple.value(c))) return false;
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

size_t ColumnTable::ApproxBytes() const {
  size_t bytes = mult_.capacity() * sizeof(int64_t) +
                 abs_prefix_.capacity() * sizeof(int64_t) +
                 signed_prefix_.capacity() * sizeof(int64_t);
  for (const ColumnVec& col : columns_) {
    bytes += col.ints.capacity() * sizeof(int64_t) +
             col.dbls.capacity() * sizeof(double) +
             col.codes.capacity() * sizeof(uint32_t) +
             col.nulls.capacity();
    if (col.dict != nullptr) bytes += col.dict->ApproxBytes();
  }
  return bytes;
}

}  // namespace wuw
