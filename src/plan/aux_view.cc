#include "plan/aux_view.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "common/check.h"
#include "expr/printer.h"
#include "storage/table.h"

namespace wuw {

namespace {

/// Parses a non-negative int64; returns false on any malformed input.
bool ParseInt64(const std::string& text, int64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size() || v < 0) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

/// Structural analysis of sources(parent)[0..k): which join edges and
/// filter conjuncts belong inside the prefix, plus the canonical recipe
/// string that identifies the materialization across parents.  Mirrors
/// BuildJoinPlan's classification (view/join_pipeline.cc) exactly — the
/// prefix def must compute precisely what the parent pipeline's first k
/// steps compute (a no-column conjunct runs at source 0's scan, so inside
/// every prefix).
struct PrefixParts {
  bool constructible = false;
  std::vector<JoinCondition> joins;
  std::vector<ScalarExpr::Ptr> filters;
  std::string recipe;
};

PrefixParts AnalyzePrefix(const Vdag& vdag, const ViewDefinition& parent,
                          size_t k) {
  PrefixParts parts;
  const std::vector<std::string>& sources = parent.sources();
  if (k < 2 || k >= sources.size()) return parts;
  std::vector<const Schema*> schemas;
  schemas.reserve(sources.size());
  for (const std::string& src : sources) {
    if (!vdag.HasView(src)) return parts;
    schemas.push_back(&vdag.OutputSchema(src));
  }

  auto owner_of = [&](const std::string& col) {
    for (size_t s = 0; s < schemas.size(); ++s) {
      if (schemas[s]->HasColumn(col)) return static_cast<int>(s);
    }
    return -1;
  };

  // Join edges with both ends inside the prefix; every prefix step must
  // consume at least one (no cross joins hiding in a materialization).
  std::vector<bool> step_has_edge(k, false);
  for (const JoinCondition& jc : parent.joins()) {
    int a = owner_of(jc.left_column);
    int b = owner_of(jc.right_column);
    if (a < 0 || b < 0) return parts;
    int last = std::max(a, b);
    if (last < static_cast<int>(k)) {
      parts.joins.push_back(jc);
      step_has_edge[last] = true;
    }
  }
  for (size_t i = 1; i < k; ++i) {
    if (!step_has_edge[i]) return parts;
  }

  // Filter conjuncts the pipeline runs at a step < k (single-source ones
  // at their scan, multi-source ones at the join step owning their last
  // column — same rule as BuildJoinPlan).
  for (const ScalarExpr::Ptr& conjunct : parent.filters()) {
    std::vector<std::string> cols = conjunct->ReferencedColumns();
    int single = -1;
    int last = 0;
    bool spans = false;
    for (const std::string& col : cols) {
      int owner = owner_of(col);
      if (owner < 0) return parts;
      if (single == -1) single = owner;
      if (owner != single) spans = true;
      last = std::max(last, owner);
    }
    const int step = (!cols.empty() && !spans) ? single : last;
    if (step < static_cast<int>(k)) parts.filters.push_back(conjunct);
  }

  std::string recipe;
  for (size_t i = 0; i < k; ++i) {
    if (i > 0) recipe += ",";
    recipe += sources[i];
  }
  recipe += "|";
  for (size_t i = 0; i < parts.joins.size(); ++i) {
    if (i > 0) recipe += "&";
    recipe += parts.joins[i].left_column + "=" + parts.joins[i].right_column;
  }
  recipe += "|";
  for (size_t i = 0; i < parts.filters.size(); ++i) {
    if (i > 0) recipe += "&";
    recipe += ExprToSql(parts.filters[i]);
  }
  parts.recipe = std::move(recipe);
  parts.constructible = true;
  return parts;
}

/// The prefix materialization's definition: an SPJ view over the prefix
/// sources whose output is the concatenated source schema verbatim, so an
/// aux-extent scan is column-for-column interchangeable with the parent
/// pipeline's k-th intermediate.
std::shared_ptr<const ViewDefinition> BuildPrefixDef(
    const Vdag& vdag, const ViewDefinition& parent, size_t k,
    const PrefixParts& parts, const std::string& aux_name) {
  ViewDefinitionBuilder builder(aux_name);
  for (size_t i = 0; i < k; ++i) builder.From(parent.sources()[i]);
  for (const JoinCondition& jc : parts.joins) {
    builder.JoinOn(jc.left_column, jc.right_column);
  }
  for (const ScalarExpr::Ptr& f : parts.filters) builder.Where(f);
  for (size_t i = 0; i < k; ++i) {
    for (const Column& col : vdag.OutputSchema(parent.sources()[i]).columns()) {
      builder.SelectColumn(col.name);
    }
  }
  return builder.Build();
}

}  // namespace

std::string ParseAuxViewSpec(const std::string& spec, AuxViewOptions* out) {
  AuxViewOptions parsed;
  if (spec.empty()) return "WUW_AUX_VIEWS: empty spec";
  if (spec == "1" || spec == "on") {
    *out = parsed;
    return "";
  }
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    std::string clause = spec.substr(pos, end - pos);
    pos = end + 1;
    if (clause.empty()) continue;
    size_t eq = clause.find('=');
    if (eq == std::string::npos) {
      return "WUW_AUX_VIEWS: clause is not key=value: '" + clause + "'";
    }
    const std::string key = clause.substr(0, eq);
    const std::string value = clause.substr(eq + 1);
    int64_t number = 0;
    if (!ParseInt64(value, &number)) {
      return "WUW_AUX_VIEWS: bad value in '" + clause + "'";
    }
    if (key == "max") {
      parsed.max_views = number;
    } else if (key == "min_windows") {
      parsed.min_windows = number;
    } else if (key == "min_uses") {
      parsed.min_uses = number;
    } else if (key == "min_rows") {
      parsed.min_rows = number;
    } else if (key == "auto") {
      if (number != 0 && number != 1) {
        return "WUW_AUX_VIEWS: auto must be 0 or 1";
      }
      parsed.auto_promote = number == 1;
    } else {
      return "WUW_AUX_VIEWS: unknown key '" + key + "'";
    }
  }
  *out = parsed;
  return "";
}

const AuxViewOptions* EnvAuxViews() {
  static const AuxViewOptions* cached = []() -> const AuxViewOptions* {
    const char* spec = std::getenv("WUW_AUX_VIEWS");
    if (spec == nullptr || spec[0] == '\0') return nullptr;
    static AuxViewOptions options;
    std::string error = ParseAuxViewSpec(spec, &options);
    if (!error.empty()) {
      std::fprintf(stderr, "warning: ignoring %s\n", error.c_str());
      return nullptr;
    }
    return &options;
  }();
  return cached;
}

const AuxTermBinding* FindAuxBinding(
    const AuxBindingSnapshot& snapshot, const ViewDefinition& def,
    const std::vector<bool>& use_delta,
    const std::function<int64_t(const std::string&)>& version_of,
    const Catalog& catalog) {
  auto it = snapshot.by_view.find(def.name());
  if (it == snapshot.by_view.end()) return nullptr;
  const std::vector<std::string>& sources = def.sources();
  for (const AuxTermBinding& binding : it->second) {  // longest prefix first
    const size_t k = binding.prefix_len;
    if (k < 2 || k >= sources.size() || k > use_delta.size() ||
        binding.prefix_sources.size() != k) {
      continue;
    }
    bool applicable = true;
    int64_t prefix_rows = 0;
    for (size_t i = 0; i < k && applicable; ++i) {
      if (use_delta[i] || binding.prefix_sources[i] != sources[i]) {
        applicable = false;
        break;
      }
      const Table* table = catalog.GetTable(sources[i]);
      if (table == nullptr) {
        applicable = false;
        break;
      }
      prefix_rows += table->cardinality();
    }
    if (!applicable) continue;
    for (const auto& [src, version] : binding.required_versions) {
      if (version_of(src) != version) {
        applicable = false;
        break;
      }
    }
    if (!applicable || version_of(binding.aux_view) != binding.aux_version) {
      continue;
    }
    const Table* aux = catalog.GetTable(binding.aux_view);
    // Strict benefit: never substitute a scan that reads no fewer rows.
    if (aux == nullptr || aux->cardinality() >= prefix_rows) continue;
    return &binding;
  }
  return nullptr;
}

AuxViewRegistry::AuxViewRegistry(AuxViewOptions options)
    : options_(options) {}

void AuxViewRegistry::set_options(AuxViewOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  options_ = options;
}

void AuxViewRegistry::TallyComp(const ViewDefinition& def,
                                const std::vector<std::string>& over) {
  const size_t n = def.num_sources();
  if (n < 3) return;  // prefixes need k in [2, n): nonempty only for n >= 3
  std::vector<size_t> y_positions;
  y_positions.reserve(over.size());
  for (const std::string& view : over) {
    int index = def.SourceIndex(view);
    if (index >= 0) y_positions.push_back(static_cast<size_t>(index));
  }
  if (y_positions.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t k = 2; k < n; ++k) {
    // Terms substitutable by a k-prefix: mask bits of Y positions < k all
    // zero, at least one bit set among positions >= k.
    int64_t y_beyond = 0;
    for (size_t pos : y_positions) {
      if (pos >= k) ++y_beyond;
    }
    if (y_beyond <= 0 || y_beyond >= 62) continue;
    Candidate& candidate = candidates_[{def.name(), k}];
    const int64_t uses = (int64_t{1} << y_beyond) - 1;
    candidate.uses_in_window += uses;
    candidate.total_uses += uses;
  }
}

std::shared_ptr<const AuxBindingSnapshot> AuxViewRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_;
}

AuxCostInfo AuxViewRegistry::BuildCostInfo() const {
  std::lock_guard<std::mutex> lock(mu_);
  AuxCostInfo info;
  for (const Binding& binding : bindings_) {
    info.alternatives.push_back(AuxCostAlternative{
        binding.pub.parent, binding.pub.aux_view, binding.pub.prefix_len,
        binding.pub.prefix_sources});
  }
  return info;
}

std::unique_ptr<AuxViewRegistry> AuxViewRegistry::Copy() const {
  std::lock_guard<std::mutex> lock(mu_);
  auto out = std::make_unique<AuxViewRegistry>(options_);
  out->candidates_ = candidates_;
  out->bindings_ = bindings_;
  out->recipe_to_aux_ = recipe_to_aux_;
  out->pending_recipes_ = pending_recipes_;
  out->next_id_ = next_id_;
  out->RebuildSnapshotLocked();
  return out;
}

std::vector<AuxViewRegistry::AuxRefresh> AuxViewRegistry::CollectStale(
    const std::function<int64_t(const std::string&)>& version_of) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<AuxRefresh> out;
  std::set<std::string> seen;
  for (const Binding& binding : bindings_) {
    if (!seen.insert(binding.pub.aux_view).second) continue;
    bool source_drift = false;
    for (const auto& [src, version] : binding.pub.required_versions) {
      if (version_of(src) != version) {
        source_drift = true;
        break;
      }
    }
    const bool aux_drift =
        version_of(binding.pub.aux_view) != binding.pub.aux_version;
    // Sources moved but the materialization did not: the window's strategy
    // predates this aux view (or skipped it), so recompute before commit.
    if (source_drift && !aux_drift) {
      out.push_back(AuxRefresh{binding.pub.aux_view, binding.def});
    }
  }
  return out;
}

std::vector<AuxViewRegistry::AuxPromotion> AuxViewRegistry::CloseWindow(
    const Vdag& vdag, const Catalog& catalog) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, candidate] : candidates_) {
    candidate.last_window_uses = candidate.uses_in_window;
    if (candidate.uses_in_window >= options_.min_uses) {
      ++candidate.hot_windows;
    } else {
      candidate.hot_windows = 0;
    }
    candidate.uses_in_window = 0;
  }
  std::vector<AuxPromotion> out;
  if (!options_.auto_promote) return out;

  std::set<std::string> bound_parents;
  std::set<std::string> bound_aux;
  for (const Binding& binding : bindings_) {
    bound_parents.insert(binding.pub.parent);
    bound_aux.insert(binding.pub.aux_view);
  }

  // Best eligible prefix length per parent: maximize (substitutions beyond
  // the maintenance multiplier) x prefix rows — the "benefit x frequency -
  // maintenance cost" rank with the unknown |aux| taken optimistically;
  // the warehouse re-checks against the *actual* materialized cardinality
  // before accepting.  candidates_ is an ordered map, so selection is
  // deterministic.
  struct Pick {
    size_t prefix_len = 0;
    double score = 0;
    int64_t prefix_rows = 0;
    int64_t window_uses = 0;
  };
  std::map<std::string, Pick> picks;
  for (auto& [key, candidate] : candidates_) {
    const std::string& parent = key.first;
    const size_t k = key.second;
    if (candidate.rejected || candidate.promoted) continue;
    if (bound_parents.count(parent) > 0) continue;
    if (candidate.hot_windows < options_.min_windows) continue;
    if (!vdag.IsDerivedView(parent)) continue;
    const ViewDefinition& def = *vdag.definition(parent);
    if (k < 2 || k >= def.num_sources()) continue;
    // Screening: each changed prefix source costs one read of the other
    // k-1 prefix extents per window to maintain the aux view, so fewer
    // than k substitutions per window cannot pay for themselves even if
    // the materialization were free.
    const double spare = static_cast<double>(candidate.last_window_uses) -
                         static_cast<double>(k - 1);
    if (spare <= 0) continue;
    int64_t prefix_rows = 0;
    bool have_tables = true;
    for (size_t i = 0; i < k; ++i) {
      const Table* table = catalog.GetTable(def.sources()[i]);
      if (table == nullptr) {
        have_tables = false;
        break;
      }
      prefix_rows += table->cardinality();
    }
    if (!have_tables || prefix_rows < options_.min_rows) continue;
    const double score = spare * static_cast<double>(prefix_rows);
    auto it = picks.find(parent);
    if (it == picks.end() || score > it->second.score ||
        (score == it->second.score && k < it->second.prefix_len)) {
      picks[parent] =
          Pick{k, score, prefix_rows, candidate.last_window_uses};
    }
  }

  int64_t new_slots =
      options_.max_views - static_cast<int64_t>(bound_aux.size());
  // Recipes proposed earlier in THIS window: recipe_to_aux_ only learns a
  // recipe at Bind (after the warehouse materializes), so without this map
  // two parents sharing a prefix in the same window would each mint their
  // own aux view instead of sharing one (the classic MQO case).
  std::map<std::string, std::string> this_window;
  for (const auto& [parent, pick] : picks) {
    const ViewDefinition& def = *vdag.definition(parent);
    PrefixParts parts = AnalyzePrefix(vdag, def, pick.prefix_len);
    if (!parts.constructible) {
      // Cross joins / unresolvable columns never become constructible:
      // reject permanently so the advisor stops proposing them.
      candidates_[{parent, pick.prefix_len}].rejected = true;
      continue;
    }
    AuxPromotion promotion;
    promotion.parent = parent;
    promotion.prefix_len = pick.prefix_len;
    promotion.prefix_extent_rows = pick.prefix_rows;
    promotion.window_uses = pick.window_uses;
    promotion.prefix_sources.assign(
        def.sources().begin(),
        def.sources().begin() + static_cast<long>(pick.prefix_len));
    auto shared = recipe_to_aux_.find(parts.recipe);
    auto sibling = this_window.find(parts.recipe);
    if (shared != recipe_to_aux_.end()) {
      // Classic MQO sharing: another parent already materialized this
      // recipe — reuse its extent, record only a new binding.
      promotion.aux_view = shared->second;
      promotion.already_materialized = true;
    } else if (sibling != this_window.end()) {
      // Shared with an earlier promotion of this same window; the warehouse
      // processes promotions in order, so the extent exists (or the sibling
      // was rejected — the warehouse skips the binding in that case).
      promotion.aux_view = sibling->second;
      promotion.already_materialized = true;
    } else {
      if (new_slots <= 0) continue;  // capacity full; retry next window
      --new_slots;
      promotion.aux_view = kAuxViewPrefix + std::to_string(next_id_++);
      this_window.emplace(parts.recipe, promotion.aux_view);
    }
    promotion.def = BuildPrefixDef(vdag, def, pick.prefix_len, parts,
                                   promotion.aux_view);
    pending_recipes_[promotion.aux_view] = parts.recipe;
    out.push_back(std::move(promotion));
  }
  return out;
}

void AuxViewRegistry::MarkRejected(const std::string& parent,
                                   size_t prefix_len) {
  std::lock_guard<std::mutex> lock(mu_);
  candidates_[{parent, prefix_len}].rejected = true;
}

void AuxViewRegistry::Bind(const AuxPromotion& promotion) {
  std::lock_guard<std::mutex> lock(mu_);
  Binding binding;
  binding.pub.parent = promotion.parent;
  binding.pub.aux_view = promotion.aux_view;
  binding.pub.prefix_len = promotion.prefix_len;
  binding.pub.prefix_sources = promotion.prefix_sources;
  for (const std::string& src : promotion.prefix_sources) {
    binding.pub.required_versions.emplace_back(src, 0);
  }
  binding.def = promotion.def;
  bindings_.push_back(std::move(binding));
  candidates_[{promotion.parent, promotion.prefix_len}].promoted = true;
  auto recipe = pending_recipes_.find(promotion.aux_view);
  if (recipe != pending_recipes_.end()) {
    recipe_to_aux_.emplace(recipe->second, promotion.aux_view);
  }
  // Snapshot rebuild happens in the Restamp that ends this same commit.
}

void AuxViewRegistry::Restamp(
    const std::function<int64_t(const std::string&)>& version_of,
    const Catalog& catalog) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_recipes_.clear();
  for (Binding& binding : bindings_) {
    for (auto& [src, version] : binding.pub.required_versions) {
      version = version_of(src);
    }
    binding.pub.aux_version = version_of(binding.pub.aux_view);
    const Table* table = catalog.GetTable(binding.pub.aux_view);
    binding.aux_mutations = table != nullptr ? table->mutation_count() : 0;
  }
  RebuildSnapshotLocked();
}

std::vector<std::string> AuxViewRegistry::AuditViolations(
    const std::function<int64_t(const std::string&)>& version_of,
    const Catalog& catalog) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const Binding& binding : bindings_) {
    if (!seen.insert(binding.pub.aux_view).second) continue;
    const Table* table = catalog.GetTable(binding.pub.aux_view);
    if (table == nullptr) continue;
    const bool mutated = table->mutation_count() != binding.aux_mutations;
    const bool bumped =
        version_of(binding.pub.aux_view) != binding.pub.aux_version;
    if (mutated && !bumped) out.push_back(binding.pub.aux_view);
  }
  return out;
}

size_t AuxViewRegistry::NumAuxViews() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::set<std::string> aux;
  for (const Binding& binding : bindings_) aux.insert(binding.pub.aux_view);
  return aux.size();
}

std::vector<std::string> AuxViewRegistry::BoundAuxNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::set<std::string> aux;
  for (const Binding& binding : bindings_) aux.insert(binding.pub.aux_view);
  return std::vector<std::string>(aux.begin(), aux.end());
}

void AuxViewRegistry::RebuildSnapshotLocked() {
  if (bindings_.empty()) {
    snapshot_ = nullptr;
    return;
  }
  auto snapshot = std::make_shared<AuxBindingSnapshot>();
  for (const Binding& binding : bindings_) {
    snapshot->by_view[binding.pub.parent].push_back(binding.pub);
  }
  for (auto& [view, list] : snapshot->by_view) {
    std::sort(list.begin(), list.end(),
              [](const AuxTermBinding& a, const AuxTermBinding& b) {
                if (a.prefix_len != b.prefix_len) {
                  return a.prefix_len > b.prefix_len;  // longest first
                }
                return a.aux_view < b.aux_view;
              });
  }
  snapshot_ = std::move(snapshot);
}

}  // namespace wuw
