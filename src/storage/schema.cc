#include "storage/schema.h"

#include "common/check.h"

namespace wuw {

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {
  for (size_t i = 0; i < columns_.size(); ++i) {
    auto [it, inserted] = by_name_.emplace(columns_[i].name, i);
    (void)it;
    WUW_CHECK(inserted, ("duplicate column name: " + columns_[i].name).c_str());
  }
}

int Schema::IndexOf(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? -1 : static_cast<int>(it->second);
}

size_t Schema::MustIndexOf(const std::string& name) const {
  int i = IndexOf(name);
  WUW_CHECK(i >= 0, ("unknown column: " + name).c_str());
  return static_cast<size_t>(i);
}

Schema Schema::Concat(const Schema& a, const Schema& b) {
  std::vector<Column> cols = a.columns();
  cols.insert(cols.end(), b.columns().begin(), b.columns().end());
  return Schema(std::move(cols));
}

Schema Schema::Project(const std::vector<size_t>& indices) const {
  std::vector<Column> cols;
  cols.reserve(indices.size());
  for (size_t i : indices) cols.push_back(columns_[i]);
  return Schema(std::move(cols));
}

bool Schema::operator==(const Schema& other) const {
  if (columns_.size() != other.columns_.size()) return false;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name != other.columns_[i].name ||
        columns_[i].type != other.columns_[i].type) {
      return false;
    }
  }
  return true;
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ", ";
    out += columns_[i].name;
    out += ":";
    out += TypeName(columns_[i].type);
  }
  out += ")";
  return out;
}

}  // namespace wuw
