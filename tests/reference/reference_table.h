// Naive reference table: the oracle storage/table.h's Table is checked
// against.
//
// A vector of (tuple, multiplicity) pairs with a linear find by
// Tuple::operator==, and no index, image or hashing.  Add follows the
// counting-table contract — append a new tuple, change a multiplicity,
// delete by moving the last pair into the hole, and clamp a delete of an
// absent tuple to a no-op — so the reference models the dense order a
// Table keeps, not just its contents, and a test can compare rows in order.
#ifndef WUW_TESTS_REFERENCE_REFERENCE_TABLE_H_
#define WUW_TESTS_REFERENCE_REFERENCE_TABLE_H_

#include <cstdint>
#include <utility>

#include "storage/tuple.h"

namespace wuw::reference {

class Table {
 public:
  /// Table::Add's contract: returns the resulting multiplicity.
  int64_t Add(const Tuple& tuple, int64_t count) {
    if (count == 0) return Count(tuple);
    ++mutation_count_;
    const size_t pos = Find(tuple);
    if (pos == rows_.size()) {
      if (count < 0) return 0;  // clamp: deleting an absent tuple
      rows_.emplace_back(tuple, count);
      cardinality_ += count;
      return count;
    }
    const int64_t next = rows_[pos].second + count;
    if (next > 0) {
      cardinality_ += count;
      rows_[pos].second = next;
      return next;
    }
    cardinality_ -= rows_[pos].second;
    rows_[pos] = rows_.back();
    rows_.pop_back();
    return 0;
  }

  int64_t Count(const Tuple& tuple) const {
    const size_t pos = Find(tuple);
    return pos == rows_.size() ? 0 : rows_[pos].second;
  }

  void Clear() {
    rows_.clear();
    cardinality_ = 0;
    ++mutation_count_;
  }

  /// The live pairs in dense order.
  const RowVec& rows() const { return rows_; }
  int64_t cardinality() const { return cardinality_; }
  size_t distinct_size() const { return rows_.size(); }
  /// Table::mutation_count's rule: one per Add with a non-zero count, and
  /// one per Clear.
  int64_t mutation_count() const { return mutation_count_; }

 private:
  size_t Find(const Tuple& tuple) const {
    size_t pos = 0;
    while (pos < rows_.size() && !(rows_[pos].first == tuple)) ++pos;
    return pos;
  }

  RowVec rows_;
  int64_t cardinality_ = 0;
  int64_t mutation_count_ = 0;
};

}  // namespace wuw::reference

#endif  // WUW_TESTS_REFERENCE_REFERENCE_TABLE_H_
