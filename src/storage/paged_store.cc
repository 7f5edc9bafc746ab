#include "storage/paged_store.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"

namespace wuw {
namespace paged {

int64_t ResolvedSpillBytes(const PagedOptions& options) {
  if (options.spill_bytes > 0) return options.spill_bytes;
  return std::max<int64_t>(1, options.budget_bytes / 4);
}

int64_t ResolvedPoolBytes(const PagedOptions& options) {
  if (options.pool_bytes > 0) return options.pool_bytes;
  return std::max<int64_t>(4 * static_cast<int64_t>(options.page_bytes),
                           options.budget_bytes / 4);
}

std::string ParsePagedSpec(const std::string& spec, PagedOptions* out) {
  PagedOptions options;
  bool have_budget = false;
  std::string remaining = spec;
  while (!remaining.empty()) {
    size_t semi = remaining.find(';');
    std::string clause = remaining.substr(0, semi);
    remaining =
        semi == std::string::npos ? "" : remaining.substr(semi + 1);
    if (clause.empty()) continue;
    size_t eq = clause.find('=');
    // A bare integer is shorthand for mb=<N>.
    std::string key = eq == std::string::npos ? "mb" : clause.substr(0, eq);
    std::string value =
        eq == std::string::npos ? clause : clause.substr(eq + 1);
    if (key == "dir") {
      if (value.empty()) return "empty dir in clause '" + clause + "'";
      options.dir = value;
      continue;
    }
    char* rest = nullptr;
    errno = 0;
    long long n = std::strtoll(value.c_str(), &rest, 10);
    if (value.empty() || rest == nullptr || *rest != '\0' || errno != 0 ||
        n < 0) {
      return "bad integer in clause '" + clause + "'";
    }
    if (key == "mb") {
      options.budget_bytes = static_cast<int64_t>(n) << 20;
      have_budget = true;
    } else if (key == "bytes") {
      options.budget_bytes = n;
      have_budget = true;
    } else if (key == "page_bytes") {
      options.page_bytes = static_cast<size_t>(n);
    } else if (key == "partitions") {
      options.partitions = static_cast<size_t>(n);
    } else if (key == "spill_bytes") {
      options.spill_bytes = n;
    } else if (key == "pool_bytes") {
      options.pool_bytes = n;
    } else {
      return "unknown clause '" + clause + "'";
    }
  }
  if (!have_budget || options.budget_bytes <= 0) {
    return "a positive budget is required (mb=<N> or bytes=<N>)";
  }
  if (options.page_bytes < 64 || options.page_bytes > (16u << 20)) {
    return "page_bytes out of range [64, 16Mi]";
  }
  if (options.partitions < 1 || options.partitions > 256 ||
      (options.partitions & (options.partitions - 1)) != 0) {
    return "partitions must be a power of two in [1, 256]";
  }
  *out = std::move(options);
  return "";
}

const PagedOptions* EnvPaged() {
  static const PagedOptions* options = []() -> const PagedOptions* {
    const char* spec = std::getenv("WUW_MEM_MB");
    if (spec == nullptr || *spec == '\0') return nullptr;
    auto* parsed = new PagedOptions();
    std::string error = ParsePagedSpec(spec, parsed);
    if (!error.empty()) {
      std::fprintf(stderr, "WUW_MEM_MB ignored: %s\n", error.c_str());
      delete parsed;
      return nullptr;
    }
    return parsed;
  }();
  return options;
}

namespace {

std::atomic<const PagedOptions*> g_operator_spill{nullptr};

/// Arms the kernels' spill gate from the environment at static-init time,
/// so every binary (not just ones that construct a Warehouse) honors
/// WUW_MEM_MB on its operator paths.
[[maybe_unused]] const bool g_env_spill_armed = [] {
  if (const PagedOptions* env = EnvPaged()) {
    g_operator_spill.store(env, std::memory_order_relaxed);
  }
  return true;
}();

std::atomic<int64_t> g_store_counter{0};

}  // namespace

const PagedOptions* OperatorSpill() {
  return g_operator_spill.load(std::memory_order_relaxed);
}

ScopedOperatorSpill::ScopedOperatorSpill(const PagedOptions& options)
    : options_(options),
      prev_(g_operator_spill.load(std::memory_order_relaxed)) {
  g_operator_spill.store(&options_, std::memory_order_relaxed);
}

ScopedOperatorSpill::~ScopedOperatorSpill() {
  g_operator_spill.store(prev_, std::memory_order_relaxed);
}

PagedStore::PagedStore(PagedOptions options) : options_(std::move(options)) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path base = options_.dir.empty() ? fs::temp_directory_path(ec)
                                       : fs::path(options_.dir);
  fs::create_directories(base, ec);
  fs::path mine =
      base / ("wuw_paged_" + std::to_string(::getpid()) + "_" +
              std::to_string(
                  g_store_counter.fetch_add(1, std::memory_order_relaxed)));
  ec.clear();
  fs::create_directories(mine, ec);
  WUW_CHECK(!ec, "cannot create paged spill directory");
  dir_ = mine.string();
}

PagedStore::~PagedStore() {
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

void PagedStore::RegisterLocked(const std::string& name) {
  if (entries_.count(name) > 0) return;
  Entry entry;
  entry.reg_order = static_cast<int64_t>(order_.size());
  entry.path = dir_ + "/ext_" + std::to_string(entry.reg_order) + ".pages";
  entries_.emplace(name, std::move(entry));
  order_.push_back(name);
}

void PagedStore::Register(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  RegisterLocked(name);
}

void PagedStore::OnAccess(const std::string& name, Table* table) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    RegisterLocked(name);
    it = entries_.find(name);
  }
  Entry& entry = it->second;
  entry.last_used = seq_;
  if (entry.hibernated) FaultInLocked(name, &entry, table);
}

void PagedStore::FaultInLocked(const std::string& name, Entry* entry,
                               Table* table) {
  TableImage img;
  std::string error = LoadTableImage(entry->path, &img);
  if (!error.empty()) {
    throw std::runtime_error("paged: extent image for " + name +
                             " unreadable: " + error);
  }
  // The image is the hibernated dense order, so every downstream scan
  // order is reproduced exactly; the precise mutation count keeps the
  // publish audit and image-staleness checks coherent.  A corrupt image
  // leaves the table hibernated.
  error = table->RestorePayload(std::move(img.columns), img.cardinality,
                                img.mutation_count);
  if (!error.empty()) {
    throw std::runtime_error("paged: extent image for " + name +
                             " is corrupt: " + error);
  }
  entry->hibernated = false;
  faults_.fetch_add(1, std::memory_order_relaxed);
  internal::g_faults.fetch_add(1, std::memory_order_relaxed);
  WUW_METRIC_ADD("paged.faults", obs::MetricClass::kEngine, 1);
}

void PagedStore::HibernateLocked(const std::string& name, Entry* entry,
                                 Table* table) {
  if (!entry->has_image || entry->image_mutations != table->mutation_count()) {
    std::string error =
        SaveTableImage(*table, entry->path, options_.page_bytes);
    if (!error.empty()) {
      throw std::runtime_error("paged: cannot spill extent " + name + ": " +
                               error);
    }
    entry->has_image = true;
    entry->image_mutations = table->mutation_count();
  }
  // Only after a durable image: a kill at paged.io.write above leaves the
  // extent resident and the store consistent.
  table->ReleasePayload();
  entry->hibernated = true;
  evictions_.fetch_add(1, std::memory_order_relaxed);
  internal::g_evictions.fetch_add(1, std::memory_order_relaxed);
  WUW_METRIC_ADD("paged.evictions", obs::MetricClass::kEngine, 1);
}

void PagedStore::EvictLocked(Catalog* catalog, bool ignore_budget) {
  struct Candidate {
    uint64_t last_used;
    int64_t reg_order;
    const std::string* name;
    Table* table;
  };
  int64_t total = 0;
  std::vector<Candidate> candidates;
  for (const std::string& name : order_) {
    Entry& entry = entries_[name];
    if (entry.hibernated) continue;
    auto it = catalog->tables_.find(name);
    if (it == catalog->tables_.end()) continue;
    Table* table = it->second.get();
    if (entry.bytes_mutations != table->mutation_count()) {
      entry.approx_bytes = ApproxTableBytes(*table);
      entry.bytes_mutations = table->mutation_count();
    }
    total += entry.approx_bytes;
    // Published slots are pinned by a snapshot (use_count > 1): never
    // hibernated, so read snapshots stay servable.  Extents touched this
    // round (last_used == seq_) are the working set.  Empty extents free
    // nothing.
    if (it->second.use_count() > 1) continue;
    if (entry.last_used >= seq_) continue;
    if (entry.approx_bytes == 0) continue;
    candidates.push_back(
        {entry.last_used, entry.reg_order, &name, table});
  }
  if (!ignore_budget && total <= options_.budget_bytes) return;
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.last_used != b.last_used ? a.last_used < b.last_used
                                                : a.reg_order < b.reg_order;
            });
  for (const Candidate& victim : candidates) {
    if (!ignore_budget && total <= options_.budget_bytes) break;
    Entry& entry = entries_[*victim.name];
    HibernateLocked(*victim.name, &entry, victim.table);
    total -= entry.approx_bytes;
  }
}

void PagedStore::Touch(const std::vector<std::string>& names,
                       Catalog* catalog, bool evict) {
  if (evict) {
    std::lock_guard<std::mutex> lock(mu_);
    ++seq_;
  }
  // Fault the working set in through the accessor hooks (which also stamp
  // last_used to the fresh clock).
  for (const std::string& name : names) catalog->MustGetTable(name);
  if (!evict) return;
  std::lock_guard<std::mutex> lock(mu_);
  EvictLocked(catalog, /*ignore_budget=*/false);
}

void PagedStore::TestOnlyEvictAll(Catalog* catalog) {
  std::lock_guard<std::mutex> lock(mu_);
  ++seq_;
  EvictLocked(catalog, /*ignore_budget=*/true);
}

bool PagedStore::IsHibernated(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it != entries_.end() && it->second.hibernated;
}

int64_t PagedStore::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& [name, entry] : entries_) {
    if (!entry.hibernated) total += entry.approx_bytes;
  }
  return total;
}

}  // namespace paged
}  // namespace wuw
