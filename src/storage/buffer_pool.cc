#include "storage/buffer_pool.h"

#include <stdexcept>

#include "common/check.h"
#include "obs/metrics.h"

namespace wuw {
namespace paged {

BufferPool::BufferPool(PageFile* file, size_t budget_bytes)
    : file_(file), budget_bytes_(budget_bytes) {
  WUW_CHECK(file != nullptr, "BufferPool needs a page file");
}

void BufferPool::EvictForAdmission() {
  const size_t page = file_->page_bytes();
  while (bytes_resident() + page > budget_bytes_) {
    // LRU victim among unpinned frames; pinned frames are untouchable.
    auto victim = frames_.end();
    for (auto it = frames_.begin(); it != frames_.end(); ++it) {
      if (it->second.pins > 0) continue;
      if (victim == frames_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == frames_.end()) return;  // all pinned: overcommit
    if (victim->second.dirty) {
      std::string error = file_->WritePage(victim->first,
                                           victim->second.payload);
      if (!error.empty()) {
        throw std::runtime_error("buffer pool writeback failed: " + error);
      }
      internal::g_spill_writebacks.fetch_add(1, std::memory_order_relaxed);
      WUW_METRIC_ADD("paged.spill_writebacks", obs::MetricClass::kEngine, 1);
    }
    frames_.erase(victim);
    ++evictions_;
  }
}

int64_t BufferPool::NewPage(std::string** payload) {
  EvictForAdmission();
  int64_t id = file_->AllocatePage();
  Frame& frame = frames_[id];
  frame.pins = 1;
  frame.dirty = true;
  frame.last_use = ++clock_;
  *payload = &frame.payload;
  return id;
}

std::string* BufferPool::Pin(int64_t page_id) {
  auto it = frames_.find(page_id);
  if (it == frames_.end()) {
    EvictForAdmission();
    Frame frame;
    std::string error = file_->ReadPage(page_id, &frame.payload);
    if (!error.empty()) {
      throw std::runtime_error("buffer pool fault failed: " + error);
    }
    ++faults_;
    internal::g_spill_faults.fetch_add(1, std::memory_order_relaxed);
    WUW_METRIC_ADD("paged.spill_faults", obs::MetricClass::kEngine, 1);
    it = frames_.emplace(page_id, std::move(frame)).first;
  }
  it->second.pins += 1;
  it->second.last_use = ++clock_;
  return &it->second.payload;
}

void BufferPool::Unpin(int64_t page_id, bool dirty) {
  auto it = frames_.find(page_id);
  WUW_CHECK(it != frames_.end(), "unpin of a non-resident page");
  WUW_CHECK(it->second.pins > 0, "buffer pool unpin below zero");
  it->second.pins -= 1;
  if (dirty) it->second.dirty = true;
}

std::string BufferPool::FlushAll() {
  for (auto& [id, frame] : frames_) {
    if (!frame.dirty) continue;
    std::string error = file_->WritePage(id, frame.payload);
    if (!error.empty()) return error;
    frame.dirty = false;
  }
  return file_->Flush();
}

int BufferPool::pin_count(int64_t page_id) const {
  auto it = frames_.find(page_id);
  return it == frames_.end() ? 0 : it->second.pins;
}

}  // namespace paged
}  // namespace wuw
