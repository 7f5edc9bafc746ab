#include "delta/delta_relation.h"

namespace wuw {

void DeltaRelation::Add(const Tuple& tuple, int64_t count) {
  if (count == 0) return;
  memo_.rows.reset();
  auto it = entries_.find(tuple);
  int64_t before = (it == entries_.end()) ? 0 : it->second;
  int64_t after = before + count;
  // Maintain plus/minus totals incrementally.
  plus_count_ -= std::max<int64_t>(before, 0);
  minus_count_ -= std::max<int64_t>(-before, 0);
  plus_count_ += std::max<int64_t>(after, 0);
  minus_count_ += std::max<int64_t>(-after, 0);
  if (after == 0) {
    if (it != entries_.end()) entries_.erase(it);
  } else if (it == entries_.end()) {
    entries_.emplace(tuple, after);
  } else {
    it->second = after;
  }
}

void DeltaRelation::AddRows(const Rows& rows) {
  std::shared_ptr<const ColumnTable> image = rows.Columnar();
  for (size_t i = 0; i < image->num_rows(); ++i) {
    Add(image->TupleAt(i), image->mult()[i]);
  }
}

void DeltaRelation::Merge(const DeltaRelation& other) {
  other.ForEach([&](const Tuple& tuple, int64_t count) { Add(tuple, count); });
}

Rows DeltaRelation::ToRows() const {
  std::lock_guard<std::mutex> lock(memo_.mu);
  if (!memo_.rows.has_value()) {
    Rows& out = memo_.rows.emplace(schema_);
    for (const auto& [tuple, count] : entries_) out.Add(tuple, count);
  }
  return *memo_.rows;
}

void DeltaRelation::ForEach(
    const std::function<void(const Tuple&, int64_t)>& fn) const {
  for (const auto& [tuple, count] : entries_) fn(tuple, count);
}

std::string DeltaRelation::ToString(size_t max_rows) const {
  std::string out = "delta" + schema_.ToString() + " {\n";
  size_t shown = 0;
  for (const auto& [tuple, count] : entries_) {
    if (shown++ >= max_rows) {
      out += "  ...\n";
      break;
    }
    out += (count > 0 ? "  +" : "  ") + std::to_string(count) + " " +
           tuple.ToString() + "\n";
  }
  out += "} (+" + std::to_string(plus_count_) + "/-" +
         std::to_string(minus_count_) + ")";
  return out;
}

}  // namespace wuw
