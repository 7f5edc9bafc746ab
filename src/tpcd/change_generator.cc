#include "tpcd/change_generator.h"

#include <cmath>

#include "common/check.h"
#include "tpcd/tpcd_schema.h"

namespace wuw {
namespace tpcd {

DeltaRelation MakeDeletionDelta(const Table& current, double fraction,
                                uint64_t seed) {
  DeltaRelation delta(current.schema());
  if (fraction <= 0) return delta;
  current.ForEach([&](const Tuple& tuple, int64_t count) {
    // Deterministic per-tuple coin flip: hash the tuple with the seed.
    uint64_t h = tuple.Hash() ^ (seed * 0x9e3779b97f4a7c15ull);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (u < fraction) delta.Add(tuple, -count);
  });
  return delta;
}

DeltaRelation MakeInsertionDelta(const std::string& table, int64_t count,
                                 int64_t key_floor,
                                 const GeneratorOptions& options) {
  Table fresh(SchemaFor(table));
  GeneratorOptions opts = options;
  opts.seed = options.seed ^ 0xD31ull ^ static_cast<uint64_t>(key_floor);
  int64_t first_key = key_floor + 1;
  if (table == kSupplier) {
    FillSupplier(&fresh, opts, first_key, count);
  } else if (table == kCustomer) {
    FillCustomer(&fresh, opts, first_key, count);
  } else if (table == kOrders) {
    FillOrders(&fresh, opts, first_key, count);
  } else if (table == kLineitem) {
    // Insert lineitems for ~count/4 fresh orders (4 lines per order on
    // average, mirroring the generator's fan-out).
    FillLineitem(&fresh, opts, first_key, std::max<int64_t>(1, count / 4));
  } else if (table == kNation || table == kRegion) {
    WUW_CHECK(false, "NATION/REGION are static dimension tables");
  } else {
    WUW_CHECK(false, ("unknown TPC-D table: " + table).c_str());
  }
  DeltaRelation delta(fresh.schema());
  fresh.ForEach([&](const Tuple& t, int64_t c) { delta.Add(t, c); });
  return delta;
}

void ApplyPaperChangeWorkload(Warehouse* warehouse, double delete_fraction,
                              double insert_fraction, uint64_t seed) {
  GeneratorOptions options;
  options.seed = seed;

  // Shared key floor for new ORDERS/LINEITEM so freshly loaded orders come
  // with their line items (otherwise inserts would never join and no
  // derived view would see them).
  int64_t shared_floor = 1000000;
  for (const std::string table : {kOrders, kLineitem}) {
    if (warehouse->catalog().HasTable(table)) {
      shared_floor = std::max(
          shared_floor,
          warehouse->catalog().MustGetTable(table)->cardinality() * 2 +
              1000000);
    }
  }

  for (const std::string table :
       {kCustomer, kOrders, kLineitem, kSupplier, kNation}) {
    if (!warehouse->catalog().HasTable(table)) continue;
    const Table& current = *warehouse->catalog().MustGetTable(table);
    DeltaRelation delta =
        MakeDeletionDelta(current, delete_fraction, seed ^ table[0]);
    if (insert_fraction > 0 && table != std::string(kNation)) {
      int64_t count = static_cast<int64_t>(
          std::llround(current.cardinality() * insert_fraction));
      if (count > 0) {
        bool shared = table == std::string(kOrders) ||
                      table == std::string(kLineitem);
        // Synthetic keys are dense from 1, so 2x cardinality over-bounds
        // the max key (deleted keys are never reused).
        int64_t floor =
            shared ? shared_floor : current.cardinality() * 2 + 1000000;
        DeltaRelation inserts = MakeInsertionDelta(table, count, floor,
                                                   options);
        inserts.ForEach(
            [&](const Tuple& t, int64_t c) { delta.Add(t, c); });
      }
    }
    warehouse->SetBaseDelta(table, std::move(delta));
  }
}

SourceChangeStream::SourceChangeStream(const Warehouse& warehouse,
                                       const GeneratorOptions& options)
    : options_(options) {
  int64_t max_cardinality = 0;
  for (const std::string& base : warehouse.vdag().BaseViews()) {
    const Table* table = warehouse.catalog().MustGetTable(base);
    Table* mirror = source_.CreateTable(base, table->schema());
    *mirror = *table;
    // The mirror is never probed; sharing the warehouse's join-key indexes
    // would make its first edit copy them and every edit maintain them.
    mirror->DropKeyIndexes();
    bases_.push_back(base);
    max_cardinality = std::max(max_cardinality, table->cardinality());
  }
  // Fresh keys live far above anything loaded or inserted so far.
  next_key_floor_ = max_cardinality * 2 + 1000000;
}

std::unordered_map<std::string, DeltaRelation> SourceChangeStream::NextBatch(
    double delete_fraction, double insert_fraction) {
  ++batch_number_;
  std::unordered_map<std::string, DeltaRelation> batch;
  int64_t floor = next_key_floor_;
  int64_t max_new_keys = 0;
  for (const std::string& base : bases_) {
    Table* mirror = source_.MustGetTable(base);
    DeltaRelation delta(mirror->schema());
    if (base != std::string(kRegion) && base != std::string(kNation)) {
      delta = MakeDeletionDelta(*mirror, delete_fraction,
                                options_.seed * 131 + batch_number_ * 17 +
                                    base[0]);
      if (insert_fraction > 0) {
        int64_t count = static_cast<int64_t>(
            std::llround(mirror->cardinality() * insert_fraction));
        if (count > 0) {
          // ORDERS and LINEITEM share the key floor so new orders arrive
          // with their line items.
          GeneratorOptions opts = options_;
          opts.seed = options_.seed + batch_number_;
          DeltaRelation inserts = MakeInsertionDelta(base, count, floor, opts);
          inserts.ForEach(
              [&](const Tuple& t, int64_t c) { delta.Add(t, c); });
          max_new_keys = std::max(max_new_keys, count * 2);
        }
      }
    }
    // Apply to the mirror: the next batch sees this one's effects.
    delta.ForEach([&](const Tuple& t, int64_t c) { mirror->Add(t, c); });
    batch.emplace(base, std::move(delta));
  }
  next_key_floor_ = floor + std::max<int64_t>(max_new_keys, 1) + 1000;
  return batch;
}

}  // namespace tpcd
}  // namespace wuw
