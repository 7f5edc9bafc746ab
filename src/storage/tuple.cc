#include "storage/tuple.h"

namespace wuw {

Tuple Tuple::Concat(const Tuple& a, const Tuple& b) {
  std::vector<Value> values;
  values.reserve(a.size() + b.size());
  values.insert(values.end(), a.values().begin(), a.values().end());
  values.insert(values.end(), b.values().begin(), b.values().end());
  return Tuple(std::move(values));
}

Tuple Tuple::Project(const std::vector<size_t>& indices) const {
  std::vector<Value> values;
  values.reserve(indices.size());
  for (size_t i : indices) values.push_back(value(i));
  return Tuple(std::move(values));
}

bool Tuple::operator==(const Tuple& other) const {
  // Cells compare even for a shared representation: a NaN cell makes a
  // tuple unequal to every tuple, itself included, as Value equality does.
  if (size() != other.size()) return false;
  for (size_t i = 0; i < size(); ++i) {
    if (value(i) != other.value(i)) return false;
  }
  return true;
}

bool Tuple::operator<(const Tuple& other) const {
  size_t n = std::min(size(), other.size());
  for (size_t i = 0; i < n; ++i) {
    if (value(i) < other.value(i)) return true;
    if (other.value(i) < value(i)) return false;
  }
  return size() < other.size();
}

size_t Tuple::Hash() const {
  size_t h = 0x345678;
  for (const Value& v : values()) {
    h ^= v.Hash() + 0x9e3779b9 + (h << 6) + (h >> 2);
  }
  return h;
}

std::string Tuple::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < size(); ++i) {
    if (i > 0) out += ", ";
    out += value(i).ToString();
  }
  out += "]";
  return out;
}

}  // namespace wuw
