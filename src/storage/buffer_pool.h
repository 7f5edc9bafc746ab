// A byte-budgeted page cache over one PageFile: pin/unpin refcounts, LRU
// eviction of unpinned frames with dirty-page writeback — the
// BufferPoolManager half of the classic DiskManager/BufferPool layering,
// scoped to the WUW_MEM_MB spill paths.
//
// Consumers are single-threaded by construction: each grace-spill operator
// (algebra/spill_util.h) owns a private pool over a private temp file, so
// allocation, eviction, and the `paged.spill_faults` /
// `paged.spill_writebacks` counters are deterministic regardless of
// WUW_THREADS.  The pool is therefore deliberately
// lock-free-by-exclusivity — no mutex.  Its counters are kept apart from
// the extent pager's `paged.faults` / `paged.evictions`, so spill traffic
// never reads as extent paging.
//
// Budget discipline: a frame costs page_bytes() regardless of payload
// fill; admission evicts the least-recently-used UNPINNED frame (dirty
// frames write back through PageFile::WritePage, riding the
// `paged.io.write` fault site — and, like all PageFile I/O, the io::Env
// seam, so WUW_IO_FAULT's ENOSPC/EIO models reach writeback too) until
// the new frame fits.  Pinned frames
// are never evicted; if pins alone exceed the budget the pool overcommits
// — callers keep at most one page pinned at a time to make
// bytes_resident() <= budget an invariant (buffer_pool_test holds it to
// that).
#ifndef WUW_STORAGE_BUFFER_POOL_H_
#define WUW_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <map>
#include <string>

#include "storage/page.h"

namespace wuw {
namespace paged {

class BufferPool {
 public:
  /// The pool caches pages of `file` (not owned) under `budget_bytes`.
  BufferPool(PageFile* file, size_t budget_bytes);

  /// Frees memory only — no flush, no I/O — so destruction during an
  /// exception unwind (a fault-injected kill mid-spill) is always safe.
  ~BufferPool() = default;

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Allocates a fresh page, resident + pinned (pin count 1) + dirty, and
  /// returns its id; `*payload` points at the page's in-memory buffer
  /// (valid until Unpin).  Throws std::runtime_error on writeback failure
  /// while evicting for admission.
  int64_t NewPage(std::string** payload);

  /// Pins a page, faulting it from disk if it was evicted (counts a
  /// paged fault; rides `paged.io.read`).  Returns the payload buffer,
  /// valid until the matching Unpin.  Throws std::runtime_error on a torn
  /// or unreadable page.
  std::string* Pin(int64_t page_id);

  /// Drops one pin; `dirty` marks the payload as modified since fetch.
  /// Unpinning an unpinned page is a contract violation (WUW_CHECK).
  void Unpin(int64_t page_id, bool dirty);

  /// Writes every dirty frame back (frames stay resident).  Returns "" on
  /// success, else the first error.
  std::string FlushAll();

  /// Resident frame bytes (frames * page size).
  size_t bytes_resident() const { return frames_.size() * file_->page_bytes(); }
  size_t budget_bytes() const { return budget_bytes_; }

  /// Disk re-reads of evicted pages.
  int64_t faults() const { return faults_; }
  /// Frames dropped for admission (dirty ones written back first).
  int64_t evictions() const { return evictions_; }

  int pin_count(int64_t page_id) const;

 private:
  struct Frame {
    std::string payload;
    int pins = 0;
    bool dirty = false;
    uint64_t last_use = 0;
  };

  /// Evicts LRU unpinned frames until a new frame fits the budget (or no
  /// candidate remains — the documented pinned-overcommit case).
  void EvictForAdmission();

  PageFile* file_;
  size_t budget_bytes_;
  uint64_t clock_ = 0;
  int64_t faults_ = 0;
  int64_t evictions_ = 0;
  /// Ordered map: eviction scans are deterministic by construction (ties
  /// in last_use cannot arise — the clock is monotone — but iteration
  /// order independence from pointer hashing is worth the log n).
  std::map<int64_t, Frame> frames_;
};

}  // namespace paged
}  // namespace wuw

#endif  // WUW_STORAGE_BUFFER_POOL_H_
