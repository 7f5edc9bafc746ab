#include "storage/catalog.h"

#include "common/check.h"
#include "storage/paged_store.h"

namespace wuw {

Catalog::Catalog(Catalog&& other) { *this = std::move(other); }

Catalog& Catalog::operator=(Catalog&& other) {
  if (this == &other) return *this;
  // A moved catalog detaches from its pager: the pager is owned by the
  // source's Warehouse and may not outlive it, so carrying the raw pointer
  // into the destination would dangle the moment that warehouse dies
  // (exactly what helpers like GroundTruthAfterChanges do — move the
  // catalog out of a short-lived clone).  Fault every hibernated extent
  // back in first: detaching with released payloads would silently read
  // empty extents.
  if (other.pager_ != nullptr) {
    for (const std::string& name : other.names_) other.GetTable(name);
  }
  tables_ = std::move(other.tables_);
  names_ = std::move(other.names_);
  pager_ = nullptr;
  other.pager_ = nullptr;
  return *this;
}

Table* Catalog::CreateTable(const std::string& name, Schema schema) {
  WUW_CHECK(!HasTable(name), ("table already exists: " + name).c_str());
  auto table = std::make_shared<Table>(std::move(schema));
  Table* raw = table.get();
  tables_.emplace(name, std::move(table));
  names_.push_back(name);
  return raw;
}

Table* Catalog::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return nullptr;
  if (pager_ != nullptr) pager_->OnAccess(name, it->second.get());
  return it->second.get();
}

const Table* Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return nullptr;
  // The pager hook may fault the extent's payload back in — a logically
  // const restoration of the identical contents (same dense order, same
  // mutation count), safe because the slot holds a non-const Table.
  if (pager_ != nullptr) pager_->OnAccess(name, it->second.get());
  return it->second.get();
}

Table* Catalog::MustGetTable(const std::string& name) {
  Table* t = GetTable(name);
  WUW_CHECK(t != nullptr, ("no such table: " + name).c_str());
  return t;
}

const Table* Catalog::MustGetTable(const std::string& name) const {
  const Table* t = GetTable(name);
  WUW_CHECK(t != nullptr, ("no such table: " + name).c_str());
  return t;
}

bool Catalog::HasTable(const std::string& name) const {
  return tables_.count(name) > 0;
}

int64_t Catalog::Cardinality(const std::string& name) const {
  auto it = tables_.find(name);
  WUW_CHECK(it != tables_.end(), ("no such table: " + name).c_str());
  return it->second->cardinality();
}

void Catalog::DeclareKeyIndex(const std::string& name,
                              const std::vector<std::string>& columns) {
  auto it = tables_.find(name);
  WUW_CHECK(it != tables_.end(), ("no such table: " + name).c_str());
  Table& table = *it->second;
  std::vector<size_t> positions;
  positions.reserve(columns.size());
  for (const std::string& column : columns) {
    positions.push_back(table.schema().MustIndexOf(column));
  }
  table.DeclareKeyIndex(positions);
}

std::shared_ptr<const Table> Catalog::SharedTable(
    const std::string& name) const {
  auto it = tables_.find(name);
  WUW_CHECK(it != tables_.end(), ("no such table: " + name).c_str());
  // Publication pins this slot (use_count > 1), which the pager treats as
  // unevictable — but the extent must be resident *now* for readers, so
  // run the fault-in hook before handing the reference out.
  if (pager_ != nullptr) pager_->OnAccess(name, it->second.get());
  return it->second;
}

void Catalog::ReplaceTable(const std::string& name,
                           std::shared_ptr<Table> table) {
  WUW_CHECK(table != nullptr, "ReplaceTable needs a table");
  auto it = tables_.find(name);
  WUW_CHECK(it != tables_.end(), ("no such table: " + name).c_str());
  it->second = std::move(table);
}

Catalog Catalog::Clone() const {
  Catalog out;
  for (const std::string& name : names_) {
    // A Table copy shares the image and index until either side edits.
    const Table* src = MustGetTable(name);
    *out.CreateTable(name, src->schema()) = *src;
  }
  return out;
}

bool Catalog::ContentsEqual(const Catalog& other) const {
  // Hidden auxiliary views ("__aux_<n>", literal duplicated from
  // plan/aux_view.h's kAuxViewPrefix — storage must not include plan
  // headers) are system-managed materializations: one side may have
  // promoted them while the other did not, and equality of the *visible*
  // warehouse is what callers mean.  Aux extents are compared explicitly
  // where their freshness is the point (aux_view_property_test).
  auto hidden = [](const std::string& name) {
    return name.rfind("__aux_", 0) == 0;
  };
  size_t mine_visible = 0, theirs_visible = 0;
  for (const std::string& name : names_) mine_visible += !hidden(name);
  for (const std::string& name : other.names_) theirs_visible += !hidden(name);
  if (mine_visible != theirs_visible) return false;
  for (const std::string& name : names_) {
    if (hidden(name)) continue;
    const Table* mine = GetTable(name);
    const Table* theirs = other.GetTable(name);
    if (theirs == nullptr || !mine->ContentsEqual(*theirs)) return false;
  }
  return true;
}

}  // namespace wuw
