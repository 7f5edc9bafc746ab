#include "algebra/spill_util.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "storage/column_table.h"
#include "storage/page.h"

namespace wuw {
namespace spill {

namespace {

/// Distinguishes concurrent operators' temp files within one process
/// (each operator owns a private file; the counter only names them).
std::atomic<int64_t> g_spill_counter{0};

std::string SpillFilePath(const paged::PagedOptions& options) {
  namespace fs = std::filesystem;
  fs::path base = options.dir.empty() ? fs::temp_directory_path()
                                      : fs::path(options.dir);
  return (base / ("wuw_spill_" + std::to_string(::getpid()) + "_" +
                  std::to_string(g_spill_counter.fetch_add(
                      1, std::memory_order_relaxed)) +
                  ".pages"))
      .string();
}

}  // namespace

bool RowsExceedBytes(const Rows& rows, int64_t limit) {
  int64_t bytes = 0;
  if (!rows.rows_materialized()) {
    // Columnar-only batch: the same per-row model read off the columns,
    // so no rows get built.
    std::shared_ptr<const ColumnTable> ct = rows.Columnar();
    for (size_t i = 0; i < ct->num_rows(); ++i) {
      bytes += paged::ApproxRowBytes(*ct, i);
      if (bytes > limit) return true;
    }
    return false;
  }
  for (const auto& [tuple, count] : rows.rows()) {
    (void)count;
    bytes += paged::ApproxRowBytes(tuple);
    if (bytes > limit) return true;
  }
  return false;
}

PartitionedSpill::PartitionedSpill(const paged::PagedOptions& options,
                                   size_t partitions)
    : parts_(partitions) {
  std::string error;
  file_ = paged::PageFile::Create(SpillFilePath(options), options.page_bytes,
                                  &error);
  if (file_ == nullptr) {
    throw std::runtime_error("spill file create failed: " + error);
  }
  file_->set_remove_on_close(true);
  pool_ = std::make_unique<paged::BufferPool>(
      file_.get(), static_cast<size_t>(paged::ResolvedPoolBytes(options)));
}

void PartitionedSpill::FlushChunk(Part* part, size_t bytes) {
  std::string* payload = nullptr;
  int64_t id = pool_->NewPage(&payload);
  payload->assign(part->pending, 0, bytes);
  part->pending.erase(0, bytes);
  part->pages.push_back(id);
  pool_->Unpin(id, /*dirty=*/true);
}

void PartitionedSpill::Append(size_t partition, uint32_t idx, size_t hash,
                              int64_t count, const Tuple& tuple) {
  WUW_CHECK(!finished_, "append to a finished spill");
  WUW_CHECK(partition < parts_.size(), "spill partition out of range");
  Part& part = parts_[partition];
  paged::PutU32(&part.pending, idx);
  paged::PutU64(&part.pending, static_cast<uint64_t>(hash));
  paged::PutI64(&part.pending, count);
  paged::PutTuple(&part.pending, tuple);
  ++part.records;
  const size_t cap = file_->payload_capacity();
  while (part.pending.size() >= cap) FlushChunk(&part, cap);
}

void PartitionedSpill::Finish() {
  WUW_CHECK(!finished_, "spill finished twice");
  finished_ = true;
  int64_t spilled = 0;
  for (Part& part : parts_) {
    if (!part.pending.empty()) FlushChunk(&part, part.pending.size());
    if (part.records > 0) ++spilled;
  }
  paged::internal::g_spilled_partitions.fetch_add(spilled,
                                                  std::memory_order_relaxed);
  WUW_METRIC_ADD("paged.spilled_partitions", obs::MetricClass::kEngine,
                 spilled);
}

std::vector<SpillRecord> PartitionedSpill::ReadPartition(size_t partition) {
  WUW_CHECK(finished_, "read of an unfinished spill");
  WUW_CHECK(partition < parts_.size(), "spill partition out of range");
  const Part& part = parts_[partition];
  std::string stream;
  for (int64_t id : part.pages) {
    std::string* payload = pool_->Pin(id);
    stream.append(*payload);
    pool_->Unpin(id, /*dirty=*/false);
  }
  std::vector<SpillRecord> out;
  out.reserve(static_cast<size_t>(part.records));
  paged::ByteReader r(stream);
  for (int64_t i = 0; i < part.records; ++i) {
    SpillRecord rec;
    rec.idx = r.U32();
    rec.hash = static_cast<size_t>(r.U64());
    rec.count = r.I64();
    bool ok = paged::GetTuple(&r, &rec.tuple);
    // Pages round-tripped their CRCs, so a short or malformed stream here
    // is an internal contract violation, not an I/O failure.
    WUW_CHECK(r.ok && ok, "corrupt spill record stream");
    out.push_back(std::move(rec));
  }
  return out;
}

}  // namespace spill
}  // namespace wuw
