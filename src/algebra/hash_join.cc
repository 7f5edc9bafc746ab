#include "algebra/hash_join.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>

#include "algebra/key_util.h"
#include "algebra/spill_util.h"
#include "algebra/vectorized.h"
#include "common/check.h"
#include "obs/metrics.h"
#include "storage/paged_store.h"

namespace wuw {

namespace {

/// One input row as the grace join sees it: global input-row index, full
/// key hash, multiplicity, and the (borrowed) tuple.
struct KeyedRow {
  uint32_t idx;
  size_t hash;
  int64_t count;
  const Tuple* tuple;
};

/// Flat chained hash table over one side's rows, built by head insertion
/// over ascending row index — so a chain walk yields the rows of one hash
/// in DESCENDING index order.
class ChainedTable {
 public:
  explicit ChainedTable(std::vector<KeyedRow> rows) : rows_(std::move(rows)) {
    size_t nbuckets = 16;
    while (nbuckets < rows_.size() * 2) nbuckets <<= 1;
    mask_ = nbuckets - 1;
    heads_.assign(nbuckets, -1);
    chain_.resize(rows_.size());
    for (size_t j = 0; j < rows_.size(); ++j) {
      chain_[j] = heads_[rows_[j].hash & mask_];
      heads_[rows_[j].hash & mask_] = static_cast<int32_t>(j);
    }
  }

  /// Calls `fn(row)` for every row whose full hash equals `hash`.
  template <typename Fn>
  void ForEachHashMatch(size_t hash, Fn&& fn) const {
    for (int32_t j = heads_[hash & mask_]; j >= 0; j = chain_[j]) {
      const KeyedRow& row = rows_[static_cast<size_t>(j)];
      if (row.hash == hash) fn(row);
    }
  }

 private:
  std::vector<KeyedRow> rows_;
  std::vector<int32_t> heads_;
  std::vector<int32_t> chain_;
  size_t mask_ = 0;
};

/// Collects the grace join's matches tagged with their (probe, build) row
/// indices, then emits them in the vectorized kernel's order
/// (algebra/vectorized.h): probe rows ascending, and per probe row its
/// build matches in descending build index.  Each pair occurs at most
/// once, so that order is total and independent of how matches arrived.
class JoinMatches {
 public:
  JoinMatches(const std::vector<size_t>& left_idx,
              const std::vector<size_t>& right_idx,
              const std::vector<size_t>& columns)
      : left_idx_(left_idx), right_idx_(right_idx), columns_(columns) {}

  /// Key-compares a hash-equal (probe, build) pair; keeps it on a match.
  void Offer(const KeyedRow& probe, const KeyedRow& build) {
    ++key_cmps_;
    if (!KeysEqual(*probe.tuple, left_idx_, *build.tuple, right_idx_)) return;
    const int64_t count = probe.count * build.count;
    if (count != 0) {
      // The kept cells of probe ++ build.
      const size_t ln = probe.tuple->size();
      std::vector<Value> cells;
      cells.reserve(columns_.size());
      for (size_t p : columns_) {
        cells.push_back(p < ln ? probe.tuple->value(p)
                               : build.tuple->value(p - ln));
      }
      produced_.push_back(
          OutRow{probe.idx, build.idx, Tuple(std::move(cells)), count});
    }
    rows_produced_ += std::llabs(count);
  }

  Rows Finish(const Rows& left, const Rows& right, OperatorStats* stats) {
    if (stats != nullptr) stats->rows_produced += rows_produced_;
    // Candidates are the KeyHash-equal pairs.
    WUW_METRIC_ADD("engine.row.value_cmps", obs::MetricClass::kEngine,
                   key_cmps_);
    std::sort(produced_.begin(), produced_.end(),
              [](const OutRow& a, const OutRow& b) {
                return a.probe_idx != b.probe_idx ? a.probe_idx < b.probe_idx
                                                  : a.build_idx > b.build_idx;
              });
    Rows out(Schema::Concat(left.schema, right.schema).Project(columns_));
    RowVec& out_rows = out.mutable_rows();
    out_rows.reserve(produced_.size());
    for (OutRow& row : produced_) {
      out_rows.emplace_back(std::move(row.tuple), row.count);
    }
    return out;
  }

 private:
  struct OutRow {
    uint32_t probe_idx;
    uint32_t build_idx;
    Tuple tuple;
    int64_t count;
  };

  const std::vector<size_t>& left_idx_;
  const std::vector<size_t>& right_idx_;
  const std::vector<size_t>& columns_;
  std::vector<OutRow> produced_;
  int64_t key_cmps_ = 0;
  int64_t rows_produced_ = 0;
};

/// WUW_MEM_MB grace join, for when both sides exceed the spill threshold:
/// both sides partition by the TOP hash bits into a page-backed spill
/// (algebra/spill_util.h), then each partition builds and probes
/// independently — operator memory is bounded by one partition plus the
/// spill pool's budget instead of the whole build side.  Determinism
/// argument: a probe row's matches all live in its own partition (equal
/// keys share a full hash, hence a partition), and JoinMatches orders the
/// union of all partitions' matches exactly as the vectorized kernel
/// nests them.
Rows GraceHashJoin(const Rows& left, const Rows& right,
                   const std::vector<size_t>& left_idx,
                   const std::vector<size_t>& right_idx,
                   const std::vector<size_t>& columns, OperatorStats* stats,
                   const paged::PagedOptions& options) {
  const size_t nparts = options.partitions;
  size_t bits = 0;
  while ((size_t{1} << bits) < nparts) ++bits;
  const size_t shift = sizeof(size_t) * 8 - bits;
  auto part_of = [&](size_t h) { return bits == 0 ? size_t{0} : h >> shift; };

  // One KeyHash per key column of every build and probe row.
  WUW_METRIC_ADD("engine.row.value_hashes", obs::MetricClass::kEngine,
                 static_cast<int64_t>((left.size() + right.size()) *
                                      left_idx.size()));

  // Build partitions occupy [0, nparts), probe partitions
  // [nparts, 2*nparts) of one shared spill file; stat totals are charged
  // during the spill passes exactly as the vectorized kernel charges them.
  spill::PartitionedSpill spilled(options, nparts * 2);
  const RowVec& build_side = right.rows();
  for (size_t i = 0; i < build_side.size(); ++i) {
    const auto& [tuple, count] = build_side[i];
    if (stats != nullptr) {
      stats->rows_scanned += std::llabs(count);
      stats->hash_build_rows += 1;
    }
    size_t h = KeyHash(tuple, right_idx);
    spilled.Append(part_of(h), static_cast<uint32_t>(i), h, count, tuple);
  }
  const RowVec& probe_side = left.rows();
  for (size_t i = 0; i < probe_side.size(); ++i) {
    const auto& [tuple, count] = probe_side[i];
    if (stats != nullptr) {
      stats->rows_scanned += std::llabs(count);
      stats->hash_probes += 1;
    }
    size_t h = KeyHash(tuple, left_idx);
    spilled.Append(nparts + part_of(h), static_cast<uint32_t>(i), h, count,
                   tuple);
  }
  spilled.Finish();

  auto keyed = [](const spill::SpillRecord& rec) {
    return KeyedRow{rec.idx, rec.hash, rec.count, &rec.tuple};
  };
  JoinMatches matches(left_idx, right_idx, columns);
  for (size_t p = 0; p < nparts; ++p) {
    std::vector<spill::SpillRecord> build = spilled.ReadPartition(p);
    std::vector<spill::SpillRecord> probe =
        spilled.ReadPartition(nparts + p);
    if (probe.empty()) continue;
    std::vector<KeyedRow> build_rows;
    build_rows.reserve(build.size());
    for (const spill::SpillRecord& rec : build) {
      build_rows.push_back(keyed(rec));
    }
    const ChainedTable table(std::move(build_rows));
    for (const spill::SpillRecord& rec : probe) {
      const KeyedRow probe_row = keyed(rec);
      table.ForEachHashMatch(rec.hash, [&](const KeyedRow& build_row) {
        matches.Offer(probe_row, build_row);
      });
    }
  }
  return matches.Finish(left, right, stats);
}

}  // namespace

Rows HashJoinKernel::Run(const std::vector<const Rows*>& inputs,
                         OperatorStats* stats, ThreadPool* pool,
                         const CancelToken* cancel) const {
  WUW_CHECK(inputs.size() == 2, "HashJoinKernel takes exactly two inputs");
  return HashJoin(*inputs[0], *inputs[1], keys, stats, pool, cancel,
                  &columns);
}

Rows HashJoin(const Rows& left, const Rows& right, const JoinKeys& keys,
              OperatorStats* stats, ThreadPool* pool,
              const CancelToken* cancel, const std::vector<size_t>* columns) {
  WUW_CHECK(keys.left_columns.size() == keys.right_columns.size(),
            "join key arity mismatch");
  std::vector<size_t> left_idx, right_idx;
  for (const std::string& c : keys.left_columns) {
    left_idx.push_back(left.schema.MustIndexOf(c));
  }
  for (const std::string& c : keys.right_columns) {
    right_idx.push_back(right.schema.MustIndexOf(c));
  }

  // WUW_MEM_MB: an oversized build side never gets a resident hash table.
  // If the probe side fits under the spill threshold the vectorized kernel
  // hashes it instead and streams the build side past it; only when both
  // sides are oversized do they grace-partition through a spill.  Rows,
  // row order, and OperatorStats are bit-identical to the resident kernel
  // on every route.  Disarmed: one relaxed atomic load.
  vec::HashedSide hashed = vec::HashedSide::kRight;
  if (const paged::PagedOptions* spill_opts = paged::OperatorSpill();
      spill_opts != nullptr) {
    const int64_t threshold = paged::ResolvedSpillBytes(*spill_opts);
    if (spill::RowsExceedBytes(right, threshold)) {
      if (spill::RowsExceedBytes(left, threshold)) {
        std::vector<size_t> all;
        if (columns == nullptr) {
          all.resize(left.schema.num_columns() + right.schema.num_columns());
          std::iota(all.begin(), all.end(), size_t{0});
          columns = &all;
        }
        return GraceHashJoin(left, right, left_idx, right_idx, *columns,
                             stats, *spill_opts);
      }
      hashed = vec::HashedSide::kLeft;
      WUW_METRIC_ADD("paged.probe_side_joins", obs::MetricClass::kEngine, 1);
    }
  }
  return vec::TryHashJoin(left, right, left_idx, right_idx, stats, pool,
                          cancel, hashed, columns);
}

}  // namespace wuw
