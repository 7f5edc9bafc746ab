// Delta relations: the δV of the paper.
//
// A delta relation is a signed multiset over a view's schema.  Positive
// multiplicities are "plus tuples" (insertions), negative are "minus
// tuples" (deletions); the paper models an update as a deletion followed by
// an insertion, which is exactly a {-old, +new} pair here.
#ifndef WUW_DELTA_DELTA_RELATION_H_
#define WUW_DELTA_DELTA_RELATION_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "algebra/rows.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace wuw {

/// The changes of one view, as a signed multiset keyed by tuple.
class DeltaRelation {
 public:
  DeltaRelation() = default;
  explicit DeltaRelation(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }

  /// Adds `count` signed copies of `tuple`; exact cancellation removes the
  /// entry.
  void Add(const Tuple& tuple, int64_t count);

  /// Absorbs a whole batch of signed rows.
  void AddRows(const Rows& rows);

  /// Merges another delta batch into this one (deferred maintenance:
  /// several periods' changes accumulate before one update window).  The
  /// merge equals applying both batches in sequence — signed multiset
  /// composition is additive, so later deletions cancel earlier inserts.
  void Merge(const DeltaRelation& other);

  /// |δV| under the linear work metric: total plus tuples + minus tuples.
  int64_t AbsCardinality() const { return plus_count_ + minus_count_; }

  /// Net change to |V| when this delta is installed.
  int64_t NetCardinality() const { return plus_count_ - minus_count_; }

  int64_t plus_count() const { return plus_count_; }
  int64_t minus_count() const { return minus_count_; }

  bool empty() const { return entries_.empty(); }
  size_t distinct_size() const { return entries_.size(); }

  /// Materializes as signed Rows for pipeline processing.  The batch is
  /// built once and memoized until the next Add/AddRows/Merge; every call
  /// returns an O(1) copy sharing its row block and columnar mirror, so
  /// all scans of this delta convert it once.  Thread-safe.
  Rows ToRows() const;

  void ForEach(const std::function<void(const Tuple&, int64_t)>& fn) const;

  std::string ToString(size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::unordered_map<Tuple, int64_t, TupleHash> entries_;
  int64_t plus_count_ = 0;
  int64_t minus_count_ = 0;

  /// The ToRows() memo.  Term and stage workers call ToRows() concurrently,
  /// hence the mutex.  A copy or assignment target starts empty (it builds
  /// its own on first use) and a moved-from delta loses its memo, so a
  /// memo always matches its object's entries.
  struct RowsMemo {
    RowsMemo() = default;
    RowsMemo(const RowsMemo&) {}
    RowsMemo(RowsMemo&& other) noexcept { other.rows.reset(); }
    RowsMemo& operator=(const RowsMemo&) {
      rows.reset();
      return *this;
    }
    RowsMemo& operator=(RowsMemo&& other) noexcept {
      rows.reset();
      other.rows.reset();
      return *this;
    }

    std::mutex mu;
    std::optional<Rows> rows;
  };
  mutable RowsMemo memo_;
};

}  // namespace wuw

#endif  // WUW_DELTA_DELTA_RELATION_H_
