// Shared fixtures: small deterministic warehouses and VDAGs used across
// the test suite.
//
// Every view in the "uniform family" exposes the column triple
// (<name>_k : key, <name>_v : value, <name>_g : small group id), which lets
// tests compose derived-over-derived definitions mechanically.
#ifndef WUW_TESTS_TEST_UTIL_H_
#define WUW_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algebra/rows.h"
#include "exec/warehouse.h"
#include "graph/vdag.h"
#include "reference/reference_views.h"
#include "storage/column_table.h"
#include "tpcd/change_generator.h"
#include "tpcd/tpcd_generator.h"
#include "view/view_definition.h"

namespace wuw {
namespace testutil {

/// The effective seed for a property/fuzz suite: `WUW_SEED` if set (so a
/// nightly or a repro run can redirect every randomized suite from one
/// knob), else `default_seed` (fixed, so PR CI is deterministic).
inline uint64_t PropertySeed(uint64_t default_seed) {
  const char* env = std::getenv("WUW_SEED");
  if (env == nullptr || *env == '\0') return default_seed;
  return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
}

/// One-command repro line for gtest failure output.  Use as
/// `SCOPED_TRACE(testutil::SeedTrace(seed));` so every assertion that
/// fails under this seed prints how to rerun it.
inline std::string SeedTrace(uint64_t seed) {
  return "repro: WUW_SEED=" + std::to_string(seed) +
         " (effective generator seed " + std::to_string(seed) + ")";
}

/// The rows of a batch by value, in order: each row's tuple
/// (ColumnTable::TupleAt) and multiplicity.
inline RowVec RowsOf(const Rows& rows) {
  std::shared_ptr<const ColumnTable> image = rows.Columnar();
  RowVec out;
  out.reserve(image->num_rows());
  for (size_t i = 0; i < image->num_rows(); ++i) {
    out.emplace_back(image->TupleAt(i), image->mult()[i]);
  }
  return out;
}

/// The finished column image of (schema, rows), in order, zero
/// multiplicities included, appended row by row (ColumnTable::AppendRow);
/// null if a row does not fit `schema` (ColumnTable::Accepts).
inline std::shared_ptr<ColumnTable> ImageFromRows(const Schema& schema,
                                                  const RowVec& rows) {
  auto image = std::make_shared<ColumnTable>(schema);
  for (const auto& [tuple, count] : rows) {
    if (!image->Accepts(tuple)) return nullptr;
    image->AppendRow(tuple, count);
  }
  image->Finish();
  return image;
}

/// The batch holding exactly `rows`, in order, zero multiplicities
/// included (Rows::Add drops those).  Every row must fit `schema`.
inline Rows MakeRows(const Schema& schema, const RowVec& rows) {
  std::shared_ptr<ColumnTable> image = ImageFromRows(schema, rows);
  if (image == nullptr) std::abort();  // a row that does not fit
  return Rows::FromColumnar(std::move(image));
}

/// Builds a random VDAG over `num_bases` base views and `num_derived`
/// derived views.  Every view follows the triple-column convention, so
/// derived-over-derived definitions compose mechanically.  At most one
/// aggregate source per definition (two would collide on __count).
inline Vdag RandomVdag(tpcd::Rng* rng, size_t num_bases, size_t num_derived);

/// Schema (name_k INT, name_v INT, name_g INT).
inline Schema TripleSchema(const std::string& name) {
  return Schema({{name + "_k", TypeId::kInt64},
                 {name + "_v", TypeId::kInt64},
                 {name + "_g", TypeId::kInt64}});
}

/// Fills a triple-schema table with `rows` rows: keys 1..rows (with the
/// multiples of `hole_every` skipped so joins have selectivity), values
/// pseudorandom, groups in 0..4.
inline void FillTriple(Table* table, int64_t rows, uint64_t seed,
                       int64_t hole_every = 0) {
  tpcd::Rng rng(seed);
  for (int64_t k = 1; k <= rows; ++k) {
    if (hole_every > 0 && k % hole_every == 0) continue;
    table->Add(Tuple({Value::Int64(k), Value::Int64(rng.Range(0, 99)),
                      Value::Int64(k % 5)}),
               1);
  }
}

/// SPJ view `name` over `sources` (all triple-schema): joins all sources on
/// their _k columns, sums their _v columns, keeps the first source's group.
inline std::shared_ptr<const ViewDefinition> SpjTripleView(
    const std::string& name, const std::vector<std::string>& sources,
    bool with_filter = false) {
  ViewDefinitionBuilder b(name);
  for (const std::string& s : sources) b.From(s);
  for (size_t i = 1; i < sources.size(); ++i) {
    b.JoinOn(sources[0] + "_k", sources[i] + "_k");
  }
  if (with_filter) {
    b.Where(ScalarExpr::Compare(CompareOp::kNe,
                                ScalarExpr::Column(sources[0] + "_v"),
                                ScalarExpr::Literal(Value::Int64(0))));
  }
  ScalarExpr::Ptr vsum = ScalarExpr::Column(sources[0] + "_v");
  for (size_t i = 1; i < sources.size(); ++i) {
    vsum = ScalarExpr::Arith(ArithOp::kAdd, vsum,
                             ScalarExpr::Column(sources[i] + "_v"));
  }
  b.Select(ScalarExpr::Column(sources[0] + "_k"), name + "_k")
      .Select(vsum, name + "_v")
      .Select(ScalarExpr::Column(sources[0] + "_g"), name + "_g");
  return b.Build();
}

/// Aggregate view `name` over `sources`: joins on _k, groups by the first
/// source's _g (exposed as both name_k and name_g so the triple convention
/// holds), SUM of the _v total as name_v.
inline std::shared_ptr<const ViewDefinition> AggTripleView(
    const std::string& name, const std::vector<std::string>& sources) {
  ViewDefinitionBuilder b(name);
  for (const std::string& s : sources) b.From(s);
  for (size_t i = 1; i < sources.size(); ++i) {
    b.JoinOn(sources[0] + "_k", sources[i] + "_k");
  }
  ScalarExpr::Ptr vsum = ScalarExpr::Column(sources[0] + "_v");
  for (size_t i = 1; i < sources.size(); ++i) {
    vsum = ScalarExpr::Arith(ArithOp::kAdd, vsum,
                             ScalarExpr::Column(sources[i] + "_v"));
  }
  b.Select(ScalarExpr::Column(sources[0] + "_g"), name + "_k")
      .Select(ScalarExpr::Arith(ArithOp::kMul,
                                ScalarExpr::Column(sources[0] + "_g"),
                                ScalarExpr::Literal(Value::Int64(1))),
              name + "_g")
      .Sum(vsum, name + "_v");
  return b.Build();
}

inline Vdag RandomVdag(tpcd::Rng* rng, size_t num_bases, size_t num_derived) {
  Vdag vdag;
  std::vector<std::string> pool;          // candidate sources
  std::vector<bool> is_aggregate_view;    // parallel to pool
  for (size_t i = 0; i < num_bases; ++i) {
    std::string name = "B" + std::to_string(i);
    vdag.AddBaseView(name, TripleSchema(name));
    pool.push_back(name);
    is_aggregate_view.push_back(false);
  }
  for (size_t i = 0; i < num_derived; ++i) {
    std::string name = "D" + std::to_string(i);
    size_t fanin = 1 + rng->Below(std::min<size_t>(3, pool.size()));
    std::vector<std::string> sources;
    bool has_aggregate_source = false;
    while (sources.size() < fanin) {
      size_t pick = rng->Below(pool.size());
      if (std::find(sources.begin(), sources.end(), pool[pick]) !=
          sources.end()) {
        continue;
      }
      if (is_aggregate_view[pick]) {
        if (has_aggregate_source) continue;
        has_aggregate_source = true;
      }
      sources.push_back(pool[pick]);
    }
    bool aggregate = rng->Below(3) == 0;
    vdag.AddDerivedView(aggregate
                            ? AggTripleView(name, sources)
                            : SpjTripleView(name, sources,
                                            /*with_filter=*/rng->Below(2)));
    pool.push_back(name);
    is_aggregate_view.push_back(aggregate);
  }
  return vdag;
}

/// The paper's Figure 3 shape: base A, B, C; V4 = B ⋈ C (SPJ);
/// V5 = aggregate over A and V4.
inline Vdag MakeFig3Vdag(bool v4_aggregate = false) {
  Vdag vdag;
  vdag.AddBaseView("A", TripleSchema("A"));
  vdag.AddBaseView("B", TripleSchema("B"));
  vdag.AddBaseView("C", TripleSchema("C"));
  if (v4_aggregate) {
    vdag.AddDerivedView(AggTripleView("V4", {"B", "C"}));
  } else {
    vdag.AddDerivedView(SpjTripleView("V4", {"B", "C"}));
  }
  vdag.AddDerivedView(AggTripleView("V5", {"A", "V4"}));
  return vdag;
}

/// The paper's Figure 10 "problem VDAG": V4 over {V2,V3}, V5 over
/// {V1,V2,V4} (V2 feeds both, V5 spans levels — neither tree nor uniform).
inline Vdag MakeFig10Vdag() {
  Vdag vdag;
  vdag.AddBaseView("V1", TripleSchema("V1"));
  vdag.AddBaseView("V2", TripleSchema("V2"));
  vdag.AddBaseView("V3", TripleSchema("V3"));
  vdag.AddDerivedView(SpjTripleView("V4", {"V2", "V3"}));
  vdag.AddDerivedView(SpjTripleView("V5", {"V1", "V2", "V4"}));
  return vdag;
}

/// A single-view VDAG: derived `name` over the given base views.
inline Vdag MakeStarVdag(const std::string& name, size_t num_bases,
                         bool aggregate = false) {
  Vdag vdag;
  std::vector<std::string> bases;
  for (size_t i = 0; i < num_bases; ++i) {
    std::string base = "B" + std::to_string(i);
    vdag.AddBaseView(base, TripleSchema(base));
    bases.push_back(base);
  }
  vdag.AddDerivedView(aggregate ? AggTripleView(name, bases)
                                : SpjTripleView(name, bases));
  return vdag;
}

/// Loads every base view of `vdag` with triple data and materializes the
/// derived views.  Different tables get different sizes/holes so strategy
/// costs are asymmetric.
inline Warehouse MakeLoadedWarehouse(Vdag vdag, int64_t base_rows,
                                     uint64_t seed) {
  Warehouse w(std::move(vdag));
  int64_t rows = base_rows;
  uint64_t s = seed;
  for (const std::string& name : w.vdag().BaseViews()) {
    FillTriple(w.base_table(name), rows, ++s, /*hole_every=*/7);
    rows = rows * 3 / 2 + 5;  // size asymmetry across base views
  }
  w.RecomputeDerived();
  return w;
}

/// Applies a deterministic mixed change batch to every base view:
/// `delete_fraction` of rows deleted plus `insert_rows` fresh rows.
inline void ApplyTripleChanges(Warehouse* w, double delete_fraction,
                               int64_t insert_rows, uint64_t seed) {
  uint64_t s = seed;
  for (const std::string& name : w->vdag().BaseViews()) {
    const Table& table = *w->catalog().MustGetTable(name);
    DeltaRelation delta =
        tpcd::MakeDeletionDelta(table, delete_fraction, ++s);
    tpcd::Rng rng(s ^ 0xABCD);
    for (int64_t i = 0; i < insert_rows; ++i) {
      // Fresh keys above any existing key; also re-insert into existing
      // keys occasionally to exercise multiset semantics.
      int64_t k = rng.Below(4) == 0 ? rng.Range(1, 50)
                                    : 1000000 + rng.Range(1, 10000);
      delta.Add(Tuple({Value::Int64(k), Value::Int64(rng.Range(0, 99)),
                       Value::Int64(k % 5)}),
                1);
    }
    w->SetBaseDelta(name, std::move(delta));
  }
}

/// The ground-truth final state for convergence tests: a clone's catalog
/// with the base deltas installed and every derived view evaluated by the
/// independent reference evaluator (reference/reference_views.h), not by
/// the engine under test.
inline Catalog GroundTruthAfterChanges(const Warehouse& w) {
  Warehouse clone = w.Clone();
  // Install base deltas directly.  Mutate through base_table / MutableExtent
  // (version bump + copy-on-write detach) so an armed clone keeps its
  // published snapshot frozen and passes the publish audit.
  std::map<std::string, reference::Relation> bases;
  for (const std::string& name : clone.vdag().BaseViews()) {
    const DeltaRelation& delta = clone.base_delta(name);
    Table* table = clone.base_table(name);
    delta.ForEach([&](const Tuple& t, int64_t c) { table->Add(t, c); });
    reference::Relation& rows = bases[name];
    table->ForEach([&](const Tuple& t, int64_t c) { rows.emplace_back(t, c); });
  }
  for (const auto& [name, rows] :
       reference::EvalDerivedViews(clone.vdag(), std::move(bases))) {
    Table* table = clone.MutableExtent(name);
    table->Clear();
    for (const auto& [tuple, count] : rows) table->Add(tuple, count);
    clone.NoteExtentChanged(name);
  }
  return std::move(clone.catalog());
}

}  // namespace testutil
}  // namespace wuw

#endif  // WUW_TESTS_TEST_UTIL_H_
