#include "algebra/aggregate.h"

#include <cstdlib>
#include <queue>

#include "algebra/key_util.h"
#include "algebra/spill_util.h"
#include "algebra/vectorized.h"
#include "common/check.h"
#include "expr/evaluator.h"
#include "obs/metrics.h"
#include "storage/paged_store.h"

namespace wuw {

namespace {

/// Per-group accumulator.  Integer sums accumulate exactly in int64 so
/// that different evaluation orders (different strategies) agree bitwise.
/// Grouping hashes key columns in place (no per-row key allocation); the
/// key tuple of each group points at its first input row.
struct Acc {
  Tuple exemplar;  // a row whose key columns identify this group
  std::vector<int64_t> int_sums;
  std::vector<double> dbl_sums;
  int64_t count = 0;
};

/// One spill partition's aggregation state.  Groups record the global
/// index of their first input row: within a partition groups are created
/// in ascending first_row order, so a k-way merge on first_row reproduces
/// the global first-occurrence order exactly.
struct AggPartition {
  std::vector<Acc> groups;
  std::vector<uint32_t> first_row;
};

/// WUW_MEM_MB grace aggregation, for an input over the spill threshold:
/// rows partition by the TOP hash bits into a page-backed spill
/// (algebra/spill_util.h), then each partition accumulates independently —
/// operator memory is bounded by one partition plus the spill pool's
/// budget.  Determinism argument: a group's rows share one full hash,
/// hence one partition, and each partition accumulates in ascending input
/// order (bit-identical double SUMs); groups record their first input
/// row, so the k-way merge on first_row reproduces the vectorized kernel's
/// first-occurrence order — and therefore its emitted row order — byte
/// for byte.  OperatorStats are charged as that kernel charges them.
Rows GraceAggregate(const Rows& input, const std::vector<std::string>& group_by,
                    const std::vector<AggSpec>& aggs, OperatorStats* stats,
                    const paged::PagedOptions& options) {
  std::vector<size_t> key_idx;
  std::vector<Column> out_cols;
  for (const std::string& name : group_by) {
    size_t i = input.schema.MustIndexOf(name);
    key_idx.push_back(i);
    out_cols.push_back(input.schema.column(i));
  }

  std::vector<BoundExpr> args;
  std::vector<bool> sum_is_int;
  for (const AggSpec& spec : aggs) {
    if (spec.fn == AggFn::kSum) {
      WUW_CHECK(spec.arg != nullptr, "SUM requires an argument expression");
      args.push_back(BoundExpr::Bind(spec.arg, input.schema));
      WUW_CHECK(args.back().result_type() != TypeId::kString,
                "SUM over a string argument (ValidateDefinition rejects it)");
      bool is_int = args.back().result_type() == TypeId::kInt64;
      sum_is_int.push_back(is_int);
      out_cols.push_back(
          Column{spec.name, is_int ? TypeId::kInt64 : TypeId::kDouble});
    } else {
      args.emplace_back();  // placeholder, unused
      sum_is_int.push_back(true);
      out_cols.push_back(Column{spec.name, TypeId::kInt64});
    }
  }
  out_cols.push_back(Column{kGroupCountColumn, TypeId::kInt64});

  // COUNT(arg) is really COUNT(*) here: the maintainable language has no
  // NULL-filtering COUNT(col).
  auto accumulate = [&](Acc* acc, const Tuple& tuple, int64_t mult) {
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (aggs[a].fn == AggFn::kCount) {
        acc->int_sums[a] += mult;
      } else if (sum_is_int[a]) {
        Value v = args[a].Eval(tuple);
        if (!v.is_null()) acc->int_sums[a] += mult * v.AsInt64();
      } else {
        Value v = args[a].Eval(tuple);
        if (!v.is_null()) {
          acc->dbl_sums[a] += static_cast<double>(mult) * v.NumericValue();
        }
      }
    }
    acc->count += mult;
  };

  auto emit = [&](Rows* out, const Acc& acc) {
    bool all_zero = acc.count == 0;
    if (all_zero) {
      for (size_t a = 0; a < aggs.size() && all_zero; ++a) {
        if (sum_is_int[a] ? acc.int_sums[a] != 0 : acc.dbl_sums[a] != 0.0) {
          all_zero = false;
        }
      }
    }
    if (all_zero) return;
    Tuple row = acc.exemplar.Project(key_idx);
    for (size_t a = 0; a < aggs.size(); ++a) {
      row.Append(sum_is_int[a] ? Value::Int64(acc.int_sums[a])
                               : Value::Double(acc.dbl_sums[a]));
    }
    row.Append(Value::Int64(acc.count));
    out->Add(std::move(row), 1);
    if (stats != nullptr) stats->rows_produced += 1;
  };

  const size_t n = input.size();
  // KeyHash touches every key column of every row, and each SUM argument
  // evaluates its bound tree once per row.
  size_t num_sums = 0;
  for (const AggSpec& spec : aggs) {
    if (spec.fn == AggFn::kSum) ++num_sums;
  }
  WUW_METRIC_ADD("engine.row.value_hashes", obs::MetricClass::kEngine,
                 static_cast<int64_t>(n * key_idx.size()));
  WUW_METRIC_ADD("engine.row.expr_evals", obs::MetricClass::kEngine,
                 static_cast<int64_t>(n * num_sums));

  const size_t nparts = options.partitions;
  size_t bits = 0;
  while ((size_t{1} << bits) < nparts) ++bits;
  const size_t shift = sizeof(size_t) * 8 - bits;
  spill::PartitionedSpill spilled(options, nparts);
  for (size_t i = 0; i < n; ++i) {
    const auto& [tuple, mult] = input.rows()[i];
    if (stats != nullptr) stats->rows_scanned += std::llabs(mult);
    size_t h = KeyHash(tuple, key_idx);
    spilled.Append(bits == 0 ? size_t{0} : h >> shift,
                   static_cast<uint32_t>(i), h, mult, tuple);
  }
  spilled.Finish();

  std::vector<AggPartition> parts(nparts);
  int64_t key_cmps = 0;
  for (size_t p = 0; p < nparts; ++p) {
    std::vector<spill::SpillRecord> recs = spilled.ReadPartition(p);
    if (recs.empty()) continue;
    AggPartition& part = parts[p];
    size_t nbuckets = 16;
    while (nbuckets < recs.size() + 16) nbuckets <<= 1;
    const size_t pmask = nbuckets - 1;
    std::vector<int32_t> heads(nbuckets, -1);
    std::vector<int32_t> chain;
    std::vector<size_t> ghashes;
    for (const spill::SpillRecord& rec : recs) {
      Acc* acc = nullptr;
      for (int32_t g = heads[rec.hash & pmask]; g >= 0; g = chain[g]) {
        if (ghashes[g] != rec.hash) continue;
        ++key_cmps;
        if (KeysEqual(rec.tuple, key_idx, part.groups[g].exemplar,
                      key_idx)) {
          acc = &part.groups[g];
          break;
        }
      }
      if (acc == nullptr) {
        int32_t id = static_cast<int32_t>(part.groups.size());
        part.groups.push_back(Acc{rec.tuple,
                                  std::vector<int64_t>(aggs.size(), 0),
                                  std::vector<double>(aggs.size(), 0.0),
                                  0});
        part.first_row.push_back(rec.idx);
        ghashes.push_back(rec.hash);
        chain.push_back(heads[rec.hash & pmask]);
        heads[rec.hash & pmask] = id;
        acc = &part.groups.back();
      }
      accumulate(acc, rec.tuple, rec.count);
    }
  }
  // Candidate sets are the KeyHash-equal (row, group) pairs.
  WUW_METRIC_ADD("engine.row.value_cmps", obs::MetricClass::kEngine,
                 key_cmps);

  Rows out((Schema(std::move(out_cols))));
  size_t total_groups = 0;
  for (const AggPartition& part : parts) total_groups += part.groups.size();
  out.mutable_rows().reserve(total_groups);
  using HeapItem = std::pair<uint32_t, uint32_t>;  // (first_row, partition)
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
  std::vector<size_t> cursor(nparts, 0);
  for (size_t p = 0; p < nparts; ++p) {
    if (!parts[p].groups.empty()) {
      heap.emplace(parts[p].first_row[0], static_cast<uint32_t>(p));
    }
  }
  while (!heap.empty()) {
    auto [first, p] = heap.top();
    heap.pop();
    emit(&out, parts[p].groups[cursor[p]]);
    if (++cursor[p] < parts[p].groups.size()) {
      heap.emplace(parts[p].first_row[cursor[p]], p);
    }
  }
  return out;
}

}  // namespace

Rows AggregateSigned(const Rows& input, const std::vector<std::string>& group_by,
                     const std::vector<AggSpec>& aggs, OperatorStats* stats,
                     ThreadPool* /*pool*/, const CancelToken* /*cancel*/) {
  // WUW_MEM_MB: an oversized input takes the grace-partition spill route so
  // a paged run bounds its operator memory wherever the input is big.
  // Disarmed: one relaxed atomic load.
  const paged::PagedOptions* spill_opts = paged::OperatorSpill();
  if (spill_opts != nullptr &&
      spill::RowsExceedBytes(input, paged::ResolvedSpillBytes(*spill_opts))) {
    return GraceAggregate(input, group_by, aggs, stats, *spill_opts);
  }
  return vec::TryAggregate(input, group_by, aggs, stats);
}

}  // namespace wuw
