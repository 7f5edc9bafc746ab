#include "algebra/hash_join.h"

#include <algorithm>
#include <array>
#include <cstdlib>

#include "algebra/key_util.h"
#include "algebra/spill_util.h"
#include "algebra/vectorized.h"
#include "common/check.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "storage/paged_store.h"

namespace wuw {

namespace {

/// Radix partitions for the parallel build: keys partition by the TOP hash
/// bits (bucket chains inside a partition use the bottom bits, so the two
/// never alias).  Equal keys hash equally and therefore land in the same
/// partition, which is what makes per-partition builds race-free without
/// any shared-state writes.
constexpr size_t kJoinPartitionBits = 6;
constexpr size_t kJoinPartitions = size_t{1} << kJoinPartitionBits;
constexpr size_t kJoinPartitionShift =
    sizeof(size_t) * 8 - kJoinPartitionBits;

/// One partition's flat chained hash table.  `ids[j]` maps the local slot j
/// back to the global build-row index; chains link local slots.
struct JoinPartition {
  std::vector<uint32_t> ids;
  std::vector<int32_t> heads;
  std::vector<int32_t> chain;
  size_t mask = 0;
};

/// Morsel-parallel join.  Determinism argument, step by step:
///  - partition row-id lists are written morsel-block by morsel-block in
///    morsel order, so each partition's ids ascend in global row order;
///  - each partition's chain is built over ascending ids, so a probe walks
///    matching rows in DESCENDING global index — exactly the order the
///    sequential single-table chain yields for the same key (rows of one
///    key share one full hash, hence one partition and one bucket in both
///    layouts, and both probes skip non-matching hashes);
///  - probe morsels buffer output locally and merge in morsel order, which
///    reproduces the sequential probe's row order byte for byte.
Rows ParallelHashJoin(const Rows& left, const Rows& right,
                      const std::vector<size_t>& left_idx,
                      const std::vector<size_t>& right_idx,
                      OperatorStats* stats, ThreadPool* pool,
                      const CancelToken* cancel) {
  const size_t n = right.size();
  const size_t build_morsels = (n + kMorselRows - 1) / kMorselRows;

  // Pass 1: hash every build row, count per-(morsel, partition).
  std::vector<size_t> hashes(n);
  std::vector<uint32_t> counts(build_morsels * kJoinPartitions, 0);
  std::vector<int64_t> scanned(build_morsels, 0);
  pool->ParallelFor(n, kMorselRows, [&](size_t begin, size_t end) {
    size_t m = begin / kMorselRows;
    uint32_t* cnt = &counts[m * kJoinPartitions];
    int64_t sc = 0;
    for (size_t i = begin; i < end; ++i) {
      sc += std::llabs(right.rows()[i].second);
      size_t h = KeyHash(right.rows()[i].first, right_idx);
      hashes[i] = h;
      ++cnt[h >> kJoinPartitionShift];
    }
    scanned[m] = sc;
  }, cancel);
  if (stats != nullptr) {
    for (int64_t sc : scanned) stats->rows_scanned += sc;
    stats->hash_build_rows += static_cast<int64_t>(n);
  }

  // Exclusive prefix over morsels, per partition: each morsel's scatter
  // window into its partition.  Concatenating windows in morsel order keeps
  // every partition's ids ascending in global row order.
  std::vector<JoinPartition> parts(kJoinPartitions);
  std::vector<uint32_t> offsets(build_morsels * kJoinPartitions);
  for (size_t p = 0; p < kJoinPartitions; ++p) {
    uint32_t run = 0;
    for (size_t m = 0; m < build_morsels; ++m) {
      offsets[m * kJoinPartitions + p] = run;
      run += counts[m * kJoinPartitions + p];
    }
    parts[p].ids.resize(run);
  }
  pool->ParallelFor(n, kMorselRows, [&](size_t begin, size_t end) {
    size_t m = begin / kMorselRows;
    std::array<uint32_t, kJoinPartitions> cursor;
    for (size_t p = 0; p < kJoinPartitions; ++p) {
      cursor[p] = offsets[m * kJoinPartitions + p];
    }
    for (size_t i = begin; i < end; ++i) {
      size_t p = hashes[i] >> kJoinPartitionShift;
      parts[p].ids[cursor[p]++] = static_cast<uint32_t>(i);
    }
  }, cancel);

  // Per-partition build: no writes escape the partition.
  pool->ParallelTasks(kJoinPartitions, /*max_workers=*/0, [&](size_t p) {
    JoinPartition& part = parts[p];
    const size_t m = part.ids.size();
    if (m == 0) return;
    size_t nbuckets = 16;
    while (nbuckets < m * 2) nbuckets <<= 1;
    part.mask = nbuckets - 1;
    part.heads.assign(nbuckets, -1);
    part.chain.resize(m);
    for (size_t j = 0; j < m; ++j) {
      size_t h = hashes[part.ids[j]];
      part.chain[j] = part.heads[h & part.mask];
      part.heads[h & part.mask] = static_cast<int32_t>(j);
    }
  }, cancel);

  // Morsel-parallel probe with per-morsel buffers.
  const size_t ln = left.size();
  const size_t probe_morsels = (ln + kMorselRows - 1) / kMorselRows;
  std::vector<std::vector<std::pair<Tuple, int64_t>>> buffers(probe_morsels);
  std::vector<OperatorStats> partial(probe_morsels);
  pool->ParallelFor(ln, kMorselRows, [&](size_t begin, size_t end) {
    size_t m = begin / kMorselRows;
    std::vector<std::pair<Tuple, int64_t>>& buf = buffers[m];
    OperatorStats& ps = partial[m];
    buf.reserve(end - begin);
    int64_t key_cmps = 0;
    for (size_t i = begin; i < end; ++i) {
      const auto& [ltuple, lcount] = left.rows()[i];
      ps.rows_scanned += std::llabs(lcount);
      ps.hash_probes += 1;
      size_t h = KeyHash(ltuple, left_idx);
      const JoinPartition& part = parts[h >> kJoinPartitionShift];
      if (part.heads.empty()) continue;
      for (int32_t j = part.heads[h & part.mask]; j >= 0; j = part.chain[j]) {
        uint32_t r = part.ids[j];
        if (hashes[r] != h) continue;
        ++key_cmps;
        const auto& [rtuple, rcount] = right.rows()[r];
        if (!KeysEqual(ltuple, left_idx, rtuple, right_idx)) continue;
        if (lcount * rcount != 0) {
          buf.emplace_back(Tuple::Concat(ltuple, rtuple), lcount * rcount);
        }
        ps.rows_produced += std::llabs(lcount * rcount);
      }
    }
    // Candidate sets are hash-equal pairs, identical in the sequential
    // layout, so this total is pool-invariant.
    WUW_METRIC_ADD("engine.row.value_cmps", obs::MetricClass::kEngine,
                   key_cmps);
  }, cancel);

  Rows out(Schema::Concat(left.schema, right.schema));
  size_t total = 0;
  for (const auto& buf : buffers) total += buf.size();
  RowVec& out_rows = out.mutable_rows();
  out_rows.reserve(total);
  for (auto& buf : buffers) {
    out_rows.insert(out_rows.end(), std::make_move_iterator(buf.begin()),
                    std::make_move_iterator(buf.end()));
  }
  if (stats != nullptr) {
    for (const OperatorStats& ps : partial) *stats += ps;
  }
  return out;
}

/// One input row as the spill-route joins see it: global input-row index,
/// full key hash, multiplicity, and the (borrowed) tuple.
struct KeyedRow {
  uint32_t idx;
  size_t hash;
  int64_t count;
  const Tuple* tuple;
};

/// Flat chained hash table over one side's rows, built by head insertion
/// over ascending row index — so a chain walk yields the rows of one hash
/// in DESCENDING index order, like the sequential kernel's build chain.
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

/// Collects a spill-route join's matches tagged with their (probe, build)
/// row indices, then emits them in the sequential kernel's order: probe
/// rows ascending, and per probe row its build matches in descending
/// build index (the sequential chain walk).  Each pair occurs at most
/// once, so that order is total and independent of how matches arrived.
class JoinMatches {
 public:
  JoinMatches(const std::vector<size_t>& left_idx,
              const std::vector<size_t>& right_idx)
      : left_idx_(left_idx), right_idx_(right_idx) {}

  /// Key-compares a hash-equal (probe, build) pair; keeps it on a match.
  void Offer(const KeyedRow& probe, const KeyedRow& build) {
    ++key_cmps_;
    if (!KeysEqual(*probe.tuple, left_idx_, *build.tuple, right_idx_)) return;
    const int64_t count = probe.count * build.count;
    if (count != 0) {
      produced_.push_back(OutRow{probe.idx, build.idx,
                                 Tuple::Concat(*probe.tuple, *build.tuple),
                                 count});
    }
    rows_produced_ += std::llabs(count);
  }

  Rows Finish(const Rows& left, const Rows& right, OperatorStats* stats) {
    if (stats != nullptr) stats->rows_produced += rows_produced_;
    // Candidate sets are hash-equal pairs, identical to the sequential
    // single-table chain.
    WUW_METRIC_ADD("engine.row.value_cmps", obs::MetricClass::kEngine,
                   key_cmps_);
    std::sort(produced_.begin(), produced_.end(),
              [](const OutRow& a, const OutRow& b) {
                return a.probe_idx != b.probe_idx ? a.probe_idx < b.probe_idx
                                                  : a.build_idx > b.build_idx;
              });
    Rows out(Schema::Concat(left.schema, right.schema));
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
  std::vector<OutRow> produced_;
  int64_t key_cmps_ = 0;
  int64_t rows_produced_ = 0;
};

/// Same per-row hashing totals as the resident row kernel.
void ChargeKeyHashes(const Rows& left, const Rows& right, size_t key_arity) {
  WUW_METRIC_ADD("engine.row.value_hashes", obs::MetricClass::kEngine,
                 static_cast<int64_t>((left.size() + right.size()) *
                                      key_arity));
}

/// WUW_MEM_MB probe-side join, for a build side over the spill threshold
/// whose probe side is under it: the small probe side goes into the chained
/// table and the build side streams past it in input order, so nothing
/// spills and operator memory is bounded by the probe side plus the
/// output.  JoinMatches restores the sequential order, and stats are
/// charged per row exactly as the sequential kernel charges them.
Rows ProbeSideHashJoin(const Rows& left, const Rows& right,
                       const std::vector<size_t>& left_idx,
                       const std::vector<size_t>& right_idx,
                       OperatorStats* stats) {
  ChargeKeyHashes(left, right, left_idx.size());
  std::vector<KeyedRow> probe_rows;
  const RowVec& probe_side = left.rows();
  probe_rows.reserve(probe_side.size());
  for (size_t i = 0; i < probe_side.size(); ++i) {
    const auto& [tuple, count] = probe_side[i];
    if (stats != nullptr) {
      stats->rows_scanned += std::llabs(count);
      stats->hash_probes += 1;
    }
    probe_rows.push_back(KeyedRow{static_cast<uint32_t>(i),
                                  KeyHash(tuple, left_idx), count, &tuple});
  }
  const ChainedTable table(std::move(probe_rows));
  JoinMatches matches(left_idx, right_idx);
  const RowVec& build_side = right.rows();
  for (size_t i = 0; i < build_side.size(); ++i) {
    const auto& [tuple, count] = build_side[i];
    if (stats != nullptr) {
      stats->rows_scanned += std::llabs(count);
      stats->hash_build_rows += 1;
    }
    const KeyedRow build{static_cast<uint32_t>(i), KeyHash(tuple, right_idx),
                         count, &tuple};
    table.ForEachHashMatch(build.hash, [&](const KeyedRow& probe) {
      matches.Offer(probe, build);
    });
  }
  return matches.Finish(left, right, stats);
}

/// WUW_MEM_MB grace join, for when both sides exceed the spill threshold:
/// both sides partition by the TOP hash bits into a page-backed spill
/// (algebra/spill_util.h), then each partition builds and probes
/// independently — operator memory is bounded by one partition plus the
/// spill pool's budget instead of the whole build side.  Determinism
/// argument: a probe row's matches all live in its own partition (equal
/// keys share a full hash, hence a partition), and JoinMatches orders the
/// union of all partitions' matches exactly as the sequential kernel
/// nests them.
Rows GraceHashJoin(const Rows& left, const Rows& right,
                   const std::vector<size_t>& left_idx,
                   const std::vector<size_t>& right_idx, OperatorStats* stats,
                   const paged::PagedOptions& options) {
  const size_t nparts = options.partitions;
  size_t bits = 0;
  while ((size_t{1} << bits) < nparts) ++bits;
  const size_t shift = sizeof(size_t) * 8 - bits;
  auto part_of = [&](size_t h) { return bits == 0 ? size_t{0} : h >> shift; };

  ChargeKeyHashes(left, right, left_idx.size());

  // Build partitions occupy [0, nparts), probe partitions
  // [nparts, 2*nparts) of one shared spill file; stat totals are charged
  // during the spill passes exactly as the sequential kernel charges them.
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
  JoinMatches matches(left_idx, right_idx);
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
  return HashJoin(*inputs[0], *inputs[1], keys, stats, pool, cancel);
}

Rows HashJoin(const Rows& left, const Rows& right, const JoinKeys& keys,
              OperatorStats* stats, ThreadPool* pool,
              const CancelToken* cancel) {
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
  // If the probe side fits under the spill threshold it is hashed instead
  // and the build side streams past it; only when both sides are oversized
  // do they grace-partition through a spill.  Checked before the
  // vectorized attempt so a paged run bounds its operator memory wherever
  // the build side is big; rows, row order, and OperatorStats are
  // bit-identical on every route (the vec and parallel kernels already
  // prove parity with the sequential layout these routes reproduce).
  // Disarmed: one relaxed atomic load.
  if (const paged::PagedOptions* spill_opts = paged::OperatorSpill();
      spill_opts != nullptr) {
    const int64_t threshold = paged::ResolvedSpillBytes(*spill_opts);
    if (spill::RowsExceedBytes(right, threshold)) {
      if (!spill::RowsExceedBytes(left, threshold)) {
        return ProbeSideHashJoin(left, right, left_idx, right_idx, stats);
      }
      return GraceHashJoin(left, right, left_idx, right_idx, stats,
                           *spill_opts);
    }
  }

  if (vec::Enabled()) {
    Rows vec_out;
    if (vec::TryHashJoin(left, right, left_idx, right_idx, stats, pool,
                         cancel, &vec_out)) {
      return vec_out;
    }
  }
  // KeyHash touches every key column of every build and probe row, on
  // either path below.
  ChargeKeyHashes(left, right, left_idx.size());

  if (ShouldParallelize(pool, left.size() + right.size())) {
    return ParallelHashJoin(left, right, left_idx, right_idx, stats, pool,
                            cancel);
  }

  // Build side: right input.  Flat chained hash table (two arrays, no
  // per-key allocation); keys hash in place and collisions resolve by
  // column-wise comparison at probe time.
  const size_t n = right.size();
  size_t nbuckets = 16;
  while (nbuckets < n * 2) nbuckets <<= 1;
  const size_t mask = nbuckets - 1;
  std::vector<int32_t> heads(nbuckets, -1);
  std::vector<int32_t> chain(n);
  std::vector<size_t> hashes(n);
  for (size_t i = 0; i < n; ++i) {
    const auto& [tuple, count] = right.rows()[i];
    if (stats != nullptr) {
      stats->rows_scanned += std::llabs(count);
      stats->hash_build_rows += 1;
    }
    size_t h = KeyHash(tuple, right_idx);
    hashes[i] = h;
    chain[i] = heads[h & mask];
    heads[h & mask] = static_cast<int32_t>(i);
  }

  Rows out(Schema::Concat(left.schema, right.schema));
  out.mutable_rows().reserve(left.size());
  int64_t key_cmps = 0;
  for (const auto& [ltuple, lcount] : left.rows()) {
    if (stats != nullptr) {
      stats->rows_scanned += std::llabs(lcount);
      stats->hash_probes += 1;
    }
    size_t h = KeyHash(ltuple, left_idx);
    for (int32_t i = heads[h & mask]; i >= 0; i = chain[i]) {
      if (hashes[i] != h) continue;
      ++key_cmps;
      const auto& [rtuple, rcount] = right.rows()[i];
      if (!KeysEqual(ltuple, left_idx, rtuple, right_idx)) continue;
      out.Add(Tuple::Concat(ltuple, rtuple), lcount * rcount);
      if (stats != nullptr) {
        stats->rows_produced += std::llabs(lcount * rcount);
      }
    }
  }
  WUW_METRIC_ADD("engine.row.value_cmps", obs::MetricClass::kEngine,
                 key_cmps);
  return out;
}

}  // namespace wuw
