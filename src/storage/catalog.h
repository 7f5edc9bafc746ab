// Catalog: the named collection of materialized tables at the warehouse.
#ifndef WUW_STORAGE_CATALOG_H_
#define WUW_STORAGE_CATALOG_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/table.h"

namespace wuw {

namespace paged {
class PagedStore;
}  // namespace paged

/// Maps view names to their materialized extents.  The Warehouse (exec/)
/// couples a Catalog with a Vdag and pending deltas; the Catalog itself is
/// pure storage.
class Catalog {
 public:
  Catalog() = default;

  // Movable, not copyable (tables can be large); use Clone() when a test
  // needs an independent copy of the database state.
  //
  // A move DETACHES the destination from any pager: the pager is owned by
  // the source's Warehouse and may not outlive it (test helpers move
  // catalogs out of short-lived clones).  Hibernated extents are faulted
  // back in first, so the detached catalog is fully resident — which makes
  // the move potentially throwing (page I/O).  The Warehouse move ops
  // detach-then-reattach around the member move instead, so warehouse
  // moves stay cheap and keep their arming.
  Catalog(Catalog&& other);
  Catalog& operator=(Catalog&& other);
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Creates an empty table; aborts if the name exists.
  Table* CreateTable(const std::string& name, Schema schema);

  /// Lookup; nullptr if absent.
  Table* GetTable(const std::string& name);
  const Table* GetTable(const std::string& name) const;

  /// Lookup; aborts if absent.
  Table* MustGetTable(const std::string& name);
  const Table* MustGetTable(const std::string& name) const;

  bool HasTable(const std::string& name) const;

  /// Names in creation order (stable across runs, used for reporting).
  const std::vector<std::string>& table_names() const { return names_; }

  /// The owning shared slot for `name` — what snapshot publication pins
  /// (storage/read_snapshot.h); aborts if absent.  A published slot must
  /// never be mutated again: writers ReplaceTable() a copy first.
  std::shared_ptr<const Table> SharedTable(const std::string& name) const;

  /// Swaps in a new extent object for an existing name (the copy-on-write
  /// detach).  Concurrent ReplaceTable calls for *distinct* names are safe:
  /// the map's node set is fixed after creation, so only disjoint slots are
  /// written.  Aborts if the name is absent.
  void ReplaceTable(const std::string& name, std::shared_ptr<Table> table);

  /// Declares a KeyIndex on `name`'s extent over the named columns, in
  /// key order (Table::DeclareKeyIndex), WITHOUT the pager hook: a
  /// hibernated extent builds it when it faults back in.  Aborts if the
  /// name or a column is absent.
  void DeclareKeyIndex(const std::string& name,
                       const std::vector<std::string>& columns);

  /// Copy of all tables; each shares its source's storage copy-on-write,
  /// so an edit on either side never shows on the other.
  Catalog Clone() const;

  /// True iff both catalogs hold the same *visible* tables with identical
  /// contents.  Hidden auxiliary views ("__aux_<n>", plan/aux_view.h) are
  /// skipped on both sides: they are system-managed materializations one
  /// side may have promoted and the other not.
  bool ContentsEqual(const Catalog& other) const;

  /// Attaches the WUW_MEM_MB extent pager (storage/paged_store.h): every
  /// accessor above then faults hibernated extents back in before
  /// returning a table.  Null detaches.  NOTE: Clone() returns a catalog
  /// with no pager, and moves detach (see above) — the owning Warehouse
  /// re-attaches after assigning a clone.
  void SetPager(paged::PagedStore* pager) { pager_ = pager; }
  paged::PagedStore* pager() const { return pager_; }

  /// Cardinality of `name` WITHOUT the pager hook: the count survives
  /// hibernation (Table::ReleasePayload preserves it), so size estimation
  /// (Warehouse::EstimatedSizes) never faults extents in.  Aborts if
  /// absent.
  int64_t Cardinality(const std::string& name) const;

 private:
  /// The pager walks slots hook-free during eviction (use_count pinning,
  /// payload release) — going through the public accessors there would
  /// re-stamp its own LRU clock.
  friend class paged::PagedStore;
  /// shared_ptr slots so snapshot states can pin an extent version past its
  /// replacement (epoch-based reclamation = last pin frees it).
  std::unordered_map<std::string, std::shared_ptr<Table>> tables_;
  std::vector<std::string> names_;
  /// WUW_MEM_MB hook; disarmed (default) accessors pay one null check.
  paged::PagedStore* pager_ = nullptr;
};

}  // namespace wuw

#endif  // WUW_STORAGE_CATALOG_H_
