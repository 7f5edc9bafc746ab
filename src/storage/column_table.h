// Column-major relation storage: the batch engine's representation.
//
// A ColumnTable holds one dense typed array per schema column (int64/date
// columns as raw int64, doubles as raw double, strings dictionary-encoded
// as uint32 codes into an interned StringDict) plus a signed multiplicity
// column.  The vectorized kernels (algebra/vectorized.h) consume and
// produce this layout batch-at-a-time (algebra/row_batch.h), touching raw
// arrays in tight typed loops instead of per-row Value variant dispatch.
//
// Every operator edge is a ColumnTable (Rows, algebra/rows.h, is one plus
// its schema).  Tuples enter through AppendRow and leave through TupleAt,
// and every cell round-trips with its original TypeId, so SortedRows /
// ContentsEqual / golden output comparisons cannot tell the forms apart.
// A tuple whose cells violate their declared column types does not fit
// (Accepts is false).
//
// A ColumnTable is also every Table's storage (storage/table.h): the table
// is its image plus a row index over it (RowHash, TupleRowHash,
// RowEquals), and Table::Add edits the image with AppendRow, SetMult and
// RemoveRow (insert, multiplicity change, swap-with-last delete).  Deletes
// leave dictionary strings whose last row is gone until CompactDicts finds
// them over its bound; a null mask can outlive its last NULL.  Table edits
// an image only while it owns it alone, and copies it (CopyForEdit)
// otherwise; every image anyone else can see is finished and never
// changes.  An image is also what the extent pager writes and reads back
// (storage/page.h).
#ifndef WUW_STORAGE_COLUMN_TABLE_H_
#define WUW_STORAGE_COLUMN_TABLE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/schema.h"
#include "storage/tuple.h"

namespace wuw {

/// Code reserved for NULL cells of string columns.
inline constexpr uint32_t kNullStringCode = UINT32_MAX;

/// An interned string pool shared by dictionary-encoded columns.  Each
/// distinct string gets a dense code in first-occurrence order and a
/// precomputed hash, so per-row work on a string column is one array
/// lookup regardless of string length.  Interning happens single-threaded
/// at conversion time or in ColumnTable::AppendRow; a dict that anyone
/// else holds is read-only (AppendRow copies it before interning), so it
/// is safe to share across kernel workers via shared_ptr.
class StringDict {
 public:
  /// Code of `s`, interning it on first sight.
  uint32_t Intern(const std::string& s);

  /// Code of `s` if already interned, else kNullStringCode.
  uint32_t Find(const std::string& s) const;

  const std::string& At(uint32_t code) const { return strings_[code]; }
  /// Precomputed hash of the string behind `code` (internal engine hash;
  /// deliberately not Value::Hash — see vectorized.h on why kernels may
  /// hash differently without changing any output).
  uint64_t HashOf(uint32_t code) const { return hashes_[code]; }
  size_t size() const { return strings_.size(); }

 private:
  std::vector<std::string> strings_;
  std::vector<uint64_t> hashes_;
  std::unordered_map<std::string, uint32_t> lookup_;
};

/// One column's dense cell storage.  Exactly one payload vector is active,
/// selected by the declared type; `nulls` marks NULL cells of numeric
/// columns (empty vector = no nulls; string columns encode NULL as
/// kNullStringCode instead).
struct ColumnVec {
  TypeId type = TypeId::kNull;
  /// kInt64 / kDate payload (dates keep their yyyymmdd int64 ordinal).
  std::vector<int64_t> ints;
  /// kDouble payload.
  std::vector<double> dbls;
  /// kString payload: dictionary codes (kNullStringCode = NULL).
  std::vector<uint32_t> codes;
  std::shared_ptr<const StringDict> dict;
  /// Numeric NULL mask; empty means "no null cells".  Also used by kNull
  /// columns (every cell null).
  std::vector<uint8_t> nulls;

  size_t size() const;
  bool IsNull(size_t i) const {
    if (type == TypeId::kString) return codes[i] == kNullStringCode;
    return !nulls.empty() && nulls[i] != 0;
  }
  /// Materializes cell `i` with its exact original TypeId.
  Value ValueAt(size_t i) const;
};

// ---------------------------------------------------------------------------
// Cell hashing and equality, shared by the vectorized kernels
// (algebra/vectorized.cc) and a faulted-in table's row index
// (ColumnTable::RowHashes / TupleRowHash, storage/table.h).  The hash is
// engine-internal (see algebra/vectorized.h); the only requirement is
// consistency with Value equality: equal cells must hash equally.
// Numerics therefore hash through their normalized double image (Value
// compares numerics by image), strings through content-based per-code
// dictionary hashes, NULLs through one constant (NULL == NULL).

/// The splitmix64 finalizer.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

inline constexpr uint64_t kNullCellHash = 0x9e3779b97f4a7c15ULL;

inline bool CellIsNull(const ColumnVec& c, size_t i) {
  if (c.type == TypeId::kString) return c.codes[i] == kNullStringCode;
  if (c.type == TypeId::kNull) return true;
  return c.IsNull(i);
}

/// Cell i of a numeric column as Value compares it.
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
  double d = NumericImageAt(c, i);
  if (d == 0.0) d = 0.0;  // normalize -0.0 (mirrors Value::Hash)
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return Mix64(bits);
}

/// Folds a cell hash into a row's key hash (the boost hash_combine
/// scheme); the seed and sequence are irrelevant to correctness.
inline uint64_t CombineKeyHash(uint64_t h, uint64_t cell) {
  return h ^ (cell + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

inline constexpr uint64_t kKeyHashSeed = 0x345678;

/// Folds CellHashAt(col, i) into hashes[i - begin] by CombineKeyHash for
/// every row i in [begin, end): a row hash a column at a time, with the
/// type and null tests taken once per call instead of once per cell.
void FoldCellHashes(const ColumnVec& col, size_t begin, size_t end,
                    uint64_t* hashes);

/// `tuple` has the schema's arity and every non-null cell is of its
/// column's declared type: what a typed image (and so a Table) can hold.
bool TupleFitsSchema(const Schema& schema, const Tuple& tuple);

/// Per-column min/max over non-null cells (the stats the round-trip
/// property suite checks against a row-order recompute).
struct ColumnMinMax {
  bool has_values = false;  // false when every cell is NULL (or no rows)
  Value min;
  Value max;
};

/// A column-major signed multiset: schema, one ColumnVec per column, and a
/// parallel signed multiplicity vector, with its abs/signed totals (set by
/// Finish()).
class ColumnTable {
 public:
  ColumnTable() = default;
  explicit ColumnTable(Schema schema);

  /// The row capacity an editable image of `rows` rows reserves, so the
  /// appends that follow a copy or a fault-in do not reallocate: an eighth
  /// spare plus 16.
  static size_t EditCapacity(size_t rows) { return rows + rows / 8 + 16; }

  /// A copy whose arrays reserve EditCapacity(num_rows()) rows, with the
  /// same totals.  Shares the string dictionaries (AppendRow copies a
  /// shared one before interning).
  std::shared_ptr<ColumnTable> CopyForEdit() const;

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return mult_.size(); }
  size_t num_columns() const { return columns_.size(); }
  const ColumnVec& column(size_t c) const { return columns_[c]; }
  ColumnVec* mutable_column(size_t c) { return &columns_[c]; }
  const std::vector<int64_t>& mult() const { return mult_; }
  std::vector<int64_t>* mutable_mult() { return &mult_; }

  /// True when the table can hold `tuple`: the schema's arity, every
  /// non-null cell of its column's declared type, and fewer than
  /// kNullStringCode rows after it: a typed array cannot hold anything
  /// else losslessly.
  bool Accepts(const Tuple& tuple) const;

  /// Appends one row-major row; requires Accepts(tuple).  A shared string
  /// dictionary is copied before its first new string.  Keeps the totals.
  void AppendRow(const Tuple& tuple, int64_t m);

  /// Appends rows `ids` of `src`, whose columns have this table's types,
  /// in that order.  String codes are re-coded into this table's
  /// dictionaries unless both columns share one: a dictionary over
  /// CompactDicts' bound is compacted first, and a string new to it is
  /// interned on first use, after a shared one is copied.  Keeps the
  /// totals.
  void AppendRows(const ColumnTable& src, const std::vector<uint32_t>& ids);

  /// Sets row `i`'s multiplicity.  Totals are stale until Finish().
  void SetMult(size_t i, int64_t m) { mult_[i] = m; }

  /// Removes row `i` by moving the last row into its place (Table::Add's
  /// swap-with-last delete).  Totals are stale until Finish().
  void RemoveRow(size_t i);

  /// Rebuilds every string dictionary holding more than 2 x num_rows() + 64
  /// strings (deletes left it mostly dead entries) from the strings its
  /// codes still use, in first-occurrence row order — the dictionary
  /// appending the same rows afresh would build — and rewrites the codes.  A
  /// shared dictionary is replaced, never changed.  The bound makes this
  /// amortized O(1) per edit; other dictionaries are left as they are.
  void CompactDicts();

  /// Recomputes the abs/signed totals after SetMult, RemoveRow or a
  /// direct write to mult_.  Every constructor of a finished table that
  /// does not build it by appends must call this once.
  void Finish();

  /// Sum of |mult| over all rows (as of the last Finish() after an edit
  /// other than an append).
  int64_t abs_total() const { return abs_total_; }
  /// Sum of mult over all rows (likewise).
  int64_t signed_total() const { return signed_total_; }

  /// Sum of |mult| over rows [begin, end), summed on the call.
  int64_t AbsCardBetween(size_t begin, size_t end) const;
  /// Sum of mult over rows [begin, end), summed on the call.
  int64_t SignedCardBetween(size_t begin, size_t end) const;

  /// Materializes row `i` (exact cell types).
  Tuple TupleAt(size_t i) const;

  /// Row hashes for a row index over the image: the kernels' key hash
  /// over every column (CellHashAt folded by CombineKeyHash from
  /// kKeyHashSeed).  RowHashes computes all of them a column at a time.
  std::vector<uint64_t> RowHashes() const;
  uint64_t RowHash(size_t i) const { return PrefixHash(i, columns_.size()); }
  /// The same hash over row i's first n columns.
  uint64_t PrefixHash(size_t i, size_t n) const;
  /// RowHash of any row equal to `tuple` (PrefixHash of any row whose
  /// prefix equals it): cells of another numeric type hash by the same
  /// double image.
  static uint64_t TupleRowHash(const Tuple& tuple);

  /// Rows i and j are equal as tuples (Tuple::operator==: NULL equals
  /// NULL, numerics compare by their double image, strings by content).
  bool RowsEqual(size_t i, size_t j) const;
  /// Row i equals `tuple` (same rules; a tuple of another arity never does).
  bool RowEquals(size_t i, const Tuple& tuple) const {
    return tuple.size() == columns_.size() && PrefixEquals(i, tuple);
  }
  /// Row i's first prefix.size() cells equal `prefix` (same rules).
  bool PrefixEquals(size_t i, const Tuple& prefix) const;

  /// Min/max of column `c` over non-null cells.
  ColumnMinMax Stats(size_t c) const;

 private:
  Schema schema_;
  std::vector<ColumnVec> columns_;
  std::vector<int64_t> mult_;
  int64_t abs_total_ = 0;
  int64_t signed_total_ = 0;
};

}  // namespace wuw

#endif  // WUW_STORAGE_COLUMN_TABLE_H_
