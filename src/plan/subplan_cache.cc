#include "plan/subplan_cache.h"

#include <sstream>

#include "common/check.h"
#include "fault/fault_injection.h"
#include "obs/metrics.h"
#include "storage/column_table.h"

namespace wuw {

int64_t ApproxRowsBytes(const Rows& rows) {
  // Charge each (tuple, multiplicity) entry its value payloads plus fixed
  // bookkeeping (shared_ptr control block, vector headers, multiplicity).
  // COW sharing across copies means this over-approximates total resident
  // bytes, which is the safe direction for a budget.
  constexpr int64_t kPerRowOverhead = 48;
  int64_t bytes = 0;
  if (!rows.rows_materialized()) {
    // Columnar-only batch: the same charge read off the columns, so
    // admission never builds rows.  Every tuple has one Value per column.
    std::shared_ptr<const ColumnTable> ct = rows.Columnar();
    const int64_t n = static_cast<int64_t>(ct->num_rows());
    bytes = n * (kPerRowOverhead + static_cast<int64_t>(ct->num_columns() *
                                                        sizeof(Value)));
    for (size_t c = 0; c < ct->num_columns(); ++c) {
      const ColumnVec& col = ct->column(c);
      if (col.type != TypeId::kString) continue;
      for (uint32_t code : col.codes) {
        if (code != kNullStringCode) {
          bytes += static_cast<int64_t>(col.dict->At(code).size());
        }
      }
    }
    return bytes;
  }
  for (const auto& [tuple, mult] : rows.rows()) {
    (void)mult;
    bytes += kPerRowOverhead;
    for (const Value& v : tuple.values()) {
      bytes += static_cast<int64_t>(sizeof(Value));
      if (v.type() == TypeId::kString) {
        bytes += static_cast<int64_t>(v.AsString().size());
      }
    }
  }
  return bytes;
}

std::string SubplanCacheStats::ToString() const {
  std::ostringstream out;
  out << "hits=" << hits << " misses=" << misses
      << " insertions=" << insertions << " evictions=" << evictions
      << " rejected=" << rejected << " bytes_in_use=" << bytes_in_use
      << " bytes_evicted=" << bytes_evicted
      << " cost_saved=" << static_cast<int64_t>(cost_saved);
  return out.str();
}

std::shared_ptr<const Rows> SubplanCache::Lookup(
    const std::string& fingerprint) {
  WUW_FAULT_POINT("subplan_cache.lookup");
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(fingerprint);
  if (it == entries_.end()) {
    stats_.misses += 1;
    WUW_METRIC_ADD("cache.misses", obs::MetricClass::kEngine, 1);
    return nullptr;
  }
  stats_.hits += 1;
  stats_.cost_saved += it->second.recompute_cost;
  WUW_METRIC_ADD("cache.hits", obs::MetricClass::kEngine, 1);
  WUW_METRIC_ADD("cache.cost_saved", obs::MetricClass::kEngine,
                 static_cast<int64_t>(it->second.recompute_cost));
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return it->second.rows;
}

void SubplanCache::Insert(const std::string& fingerprint,
                          std::shared_ptr<const Rows> rows,
                          double recompute_cost) {
  WUW_CHECK(rows != nullptr, "cannot cache a null result");
  WUW_FAULT_POINT("subplan_cache.insert");
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.count(fingerprint) > 0) return;
  int64_t bytes = ApproxRowsBytes(*rows);
  if (options_.byte_budget == 0 ||
      (options_.byte_budget > 0 && bytes > options_.byte_budget)) {
    // Budget 0 admits nothing — including zero-byte (empty) results, so
    // "admit nothing" means literally no hits — and a positive budget
    // rejects single results larger than itself.
    stats_.rejected += 1;
    WUW_METRIC_ADD("cache.rejected", obs::MetricClass::kEngine, 1);
    return;
  }
  EvictFor(bytes);
  lru_.push_front(fingerprint);
  entries_.emplace(fingerprint,
                   Entry{std::move(rows), bytes, recompute_cost, lru_.begin()});
  stats_.insertions += 1;
  stats_.bytes_in_use += bytes;
  WUW_METRIC_ADD("cache.insertions", obs::MetricClass::kEngine, 1);
  WUW_METRIC_ADD("cache.bytes_inserted", obs::MetricClass::kEngine, bytes);
}

void SubplanCache::EvictFor(int64_t needed) {
  if (options_.byte_budget < 0) return;  // unbounded
  while (!entries_.empty() &&
         stats_.bytes_in_use + needed > options_.byte_budget) {
    // Victim = cheapest to recompute per byte retained; ties (and the
    // common all-equal-cost case) fall back to least recently used by
    // scanning the LRU list back to front.
    auto victim = entries_.end();
    double victim_score = 0;
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      auto e = entries_.find(*it);
      double score = e->second.recompute_cost /
                     static_cast<double>(e->second.bytes + 1);
      if (victim == entries_.end() || score < victim_score) {
        victim = e;
        victim_score = score;
      }
    }
    stats_.evictions += 1;
    stats_.bytes_in_use -= victim->second.bytes;
    stats_.bytes_evicted += victim->second.bytes;
    WUW_METRIC_ADD("cache.evictions", obs::MetricClass::kEngine, 1);
    WUW_METRIC_ADD("cache.bytes_evicted", obs::MetricClass::kEngine,
                   victim->second.bytes);
    lru_.erase(victim->second.lru_pos);
    entries_.erase(victim);
  }
}

void SubplanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  stats_.bytes_in_use = 0;
}

SubplanCacheStats SubplanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace wuw
