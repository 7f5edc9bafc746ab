// Relation schemas: ordered, named, typed columns.
#ifndef WUW_STORAGE_SCHEMA_H_
#define WUW_STORAGE_SCHEMA_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "storage/value.h"

namespace wuw {

/// One column of a relation.
struct Column {
  std::string name;
  TypeId type;
};

/// An ordered list of columns with O(1) name lookup.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns);

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Returns the index of `name`, or -1 if absent.
  int IndexOf(const std::string& name) const;

  /// Index of `name`; aborts if absent (use for statically-known columns).
  size_t MustIndexOf(const std::string& name) const;

  bool HasColumn(const std::string& name) const { return IndexOf(name) >= 0; }

  /// Concatenates two schemas; duplicate names are qualified by the caller.
  static Schema Concat(const Schema& a, const Schema& b);

  /// The columns at `indices`, in that order.
  Schema Project(const std::vector<size_t>& indices) const;

  bool operator==(const Schema& other) const;

  std::string ToString() const;

 private:
  std::vector<Column> columns_;
  std::unordered_map<std::string, size_t> by_name_;
};

}  // namespace wuw

#endif  // WUW_STORAGE_SCHEMA_H_
