// Pipeline row batches: the intermediate representation flowing between
// relational operators.
//
// A Rows value is a signed multiset — each row carries a signed
// multiplicity.  Positive multiplicities are ordinary rows; negative ones
// are deletions flowing through delta computations.  Both full tables and
// delta relations convert into Rows for processing.
//
// A batch is its schema plus one shared, finished column image
// (storage/column_table.h), the form every kernel (algebra/vectorized.h)
// reads and writes.  Copying a batch, or scanning a table (FromTable),
// shares the image in O(1).  Add appends a tuple to it, copying the image
// first while anyone else holds it, so an image anyone else can see never
// changes; a tuple the image cannot hold (another arity, or a cell of
// another type than its column's) is an invariant violation and aborts,
// as in Table::Add.  Cardinalities are the image's totals.  Readers of
// single rows use ColumnTable::TupleAt.
#ifndef WUW_ALGEBRA_ROWS_H_
#define WUW_ALGEBRA_ROWS_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "storage/column_table.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/tuple.h"

namespace wuw {

/// A signed multiset of tuples with a schema.
struct Rows {
  Schema schema;

  Rows();
  explicit Rows(Schema s);
  Rows(const Rows& other) = default;
  Rows& operator=(const Rows& other) = default;
  /// A moved-from batch is empty, with no columns.
  Rows(Rows&& other) noexcept;
  Rows& operator=(Rows&& other) noexcept;
  ~Rows();

  /// Number of (row, multiplicity) entries.
  size_t size() const { return image_->num_rows(); }
  bool empty() const { return size() == 0; }

  /// Appends `t` with multiplicity `count` (nothing when `count` is 0).
  void Add(const Tuple& t, int64_t count);

  /// Appends every row of `other` (same column types) whose multiplicity
  /// is not 0, in order, as Add would.  An empty batch of the same schema
  /// shares `other`'s image instead of copying it.
  void Append(const Rows& other);

  /// Sum of multiplicities (may be negative for deltas).
  int64_t SignedCardinality() const { return image_->signed_total(); }

  /// Sum of |multiplicity| — the "size" of the batch as an operand, which
  /// is what the linear work metric charges for scanning it.
  int64_t AbsCardinality() const { return image_->abs_total(); }

  /// Snapshot of a table: its image, shared in O(1).
  static Rows FromTable(const Table& table);

  /// The batch whose content is exactly `table` (non-null, finished).
  static Rows FromColumnar(std::shared_ptr<const ColumnTable> table);

  /// The batch's image (never null).
  std::shared_ptr<const ColumnTable> Columnar() const { return image_; }

 private:
  Rows(Schema s, std::shared_ptr<const ColumnTable> image)
      : schema(std::move(s)), image_(std::move(image)) {}

  /// The image, made writable: copied first while anyone else holds it.
  ColumnTable* MutableImage();

  std::shared_ptr<const ColumnTable> image_;
};

}  // namespace wuw

#endif  // WUW_ALGEBRA_ROWS_H_
