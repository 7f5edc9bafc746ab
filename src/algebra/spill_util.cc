#include "algebra/spill_util.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
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
  std::shared_ptr<const ColumnTable> image = rows.Columnar();
  int64_t bytes = 0;
  for (size_t i = 0; i < image->num_rows(); ++i) {
    bytes += paged::ApproxRowBytes(*image, i);
    if (bytes > limit) return true;
  }
  return false;
}

std::vector<std::vector<uint32_t>> PartitionRows(
    const ColumnTable& image, const std::vector<size_t>& key_idx,
    size_t partitions) {
  size_t bits = 0;
  while ((size_t{1} << bits) < partitions) ++bits;
  const size_t n = image.num_rows();
  std::vector<uint64_t> hashes(n, kKeyHashSeed);
  for (size_t c : key_idx) {
    FoldCellHashes(image.column(c), 0, n, hashes.data());
  }
  std::vector<std::vector<uint32_t>> out(partitions);
  for (size_t i = 0; i < n; ++i) {
    const size_t p = bits == 0 ? 0 : hashes[i] >> (64 - bits);
    out[p].push_back(static_cast<uint32_t>(i));
  }
  return out;
}

PartitionedSpill::PartitionedSpill(const paged::PagedOptions& options,
                                   size_t partitions)
    : pages_(partitions) {
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

void PartitionedSpill::Write(size_t partition, const ColumnTable& image,
                             const std::vector<uint32_t>& ids) {
  WUW_CHECK(partition < pages_.size(), "spill partition out of range");
  WUW_CHECK(pages_[partition].empty(), "spill partition written twice");
  ColumnTable part(image.schema());
  part.AppendRows(image, ids);
  std::string bytes;
  paged::PutSchema(&bytes, part.schema());
  paged::PutU64(&bytes, part.num_rows());
  paged::PutColumns(&bytes, part);
  const size_t cap = file_->payload_capacity();
  for (size_t offset = 0; offset < bytes.size(); offset += cap) {
    std::string* payload = nullptr;
    const int64_t id = pool_->NewPage(&payload);
    payload->assign(std::string_view(bytes).substr(offset, cap));
    pages_[partition].push_back(id);
    pool_->Unpin(id, /*dirty=*/true);
  }
  if (!ids.empty()) {
    paged::internal::g_spilled_partitions.fetch_add(
        1, std::memory_order_relaxed);
    WUW_METRIC_ADD("paged.spilled_partitions", obs::MetricClass::kEngine, 1);
  }
}

Rows PartitionedSpill::Read(size_t partition) {
  WUW_CHECK(partition < pages_.size(), "spill partition out of range");
  std::string bytes;
  for (int64_t id : pages_[partition]) {
    std::string* payload = pool_->Pin(id);
    bytes.append(*payload);
    pool_->Unpin(id, /*dirty=*/false);
  }
  paged::ByteReader r(bytes);
  Schema schema;
  const bool has_schema = paged::GetSchema(&r, &schema);
  const size_t n = static_cast<size_t>(r.U64());
  std::shared_ptr<ColumnTable> image;
  // Pages round-tripped their CRCs, so a short or malformed partition here
  // is an internal contract violation, not an I/O failure.
  WUW_CHECK(has_schema && r.ok &&
                paged::GetColumns(&r, schema, n, n, &image).empty() &&
                r.remaining() == 0,
            "corrupt spilled partition");
  image->Finish();
  return Rows::FromColumnar(std::move(image));
}

}  // namespace spill
}  // namespace wuw
