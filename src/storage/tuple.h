// Tuples: fixed-width rows of Values, hashable and totally ordered so they
// can key the counting tables and group-by maps.
//
// Tuples are copy-on-write: copying one (scans materializing Rows, hash
// join outputs referencing inputs, delta accumulation) bumps a reference
// count instead of cloning the value vector.  Mutating accessors
// (Append / mutable_value) detach first.
#ifndef WUW_STORAGE_TUPLE_H_
#define WUW_STORAGE_TUPLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "storage/value.h"

namespace wuw {

/// A row of scalar values.  Tuples do not carry their schema; the containing
/// Table / DeltaRelation does.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values)
      : values_(std::make_shared<std::vector<Value>>(std::move(values))) {}

  size_t size() const { return values_ ? values_->size() : 0; }
  const Value& value(size_t i) const { return (*values_)[i]; }
  Value& mutable_value(size_t i) {
    Detach();
    return (*values_)[i];
  }
  const std::vector<Value>& values() const {
    static const std::vector<Value> kEmpty;
    return values_ ? *values_ : kEmpty;
  }

  void Append(Value v) {
    Detach();
    values_->push_back(std::move(v));
  }

  /// Concatenation, used by joins.
  static Tuple Concat(const Tuple& a, const Tuple& b);

  /// Projection onto a list of column indices.
  Tuple Project(const std::vector<size_t>& indices) const;

  bool operator==(const Tuple& other) const;
  bool operator!=(const Tuple& other) const { return !(*this == other); }
  bool operator<(const Tuple& other) const;

  size_t Hash() const;

  std::string ToString() const;

 private:
  void Detach() {
    if (!values_) {
      values_ = std::make_shared<std::vector<Value>>();
    } else if (values_.use_count() > 1) {
      values_ = std::make_shared<std::vector<Value>>(*values_);
    }
  }

  std::shared_ptr<std::vector<Value>> values_;
};

/// A signed multiset image: (tuple, multiplicity) pairs.
using RowVec = std::vector<std::pair<Tuple, int64_t>>;

/// Hash functor for unordered containers keyed by Tuple.
struct TupleHash {
  size_t operator()(const Tuple& t) const { return t.Hash(); }
};

}  // namespace wuw

#endif  // WUW_STORAGE_TUPLE_H_
