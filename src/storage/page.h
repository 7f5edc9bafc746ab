// Fixed-size on-disk pages: the bottom layer of the WUW_MEM_MB paged
// storage tier.
//
// A page file is a magic-tagged header followed by fixed-size page frames,
// each carrying its own CRC32 (the journal's framing discipline,
// exec/journal.cc): [u32 len][u32 page_no][payload][u32 crc32] zero-padded
// to the file's page size.  Every byte of the frame prefix and payload is
// covered by the CRC, so a flipped bit anywhere in a frame makes that page
// unreadable rather than silently wrong.  Damage surfaces as an error
// string, never an abort: page files are input from outside the program.
//
// Two consumers sit on top:
//   * storage/paged_store.h spills whole extents as multi-page table
//     images (SaveTableImage / LoadTableImage below) when the warehouse's
//     resident set exceeds the WUW_MEM_MB budget;
//   * storage/buffer_pool.h pins/evicts individual pages under a byte
//     budget for the grace-partition spill paths in the join/aggregation
//     kernels.
//
// All disk traffic funnels through PageFile::ReadPage / ReadAllPayloads /
// WritePage, which carry the `paged.io.read` / `paged.io.write` fault
// sites — kill-anywhere recovery sweeps (fault_recovery_property_test)
// ride the same two points for every paged workload.
#ifndef WUW_STORAGE_PAGE_H_
#define WUW_STORAGE_PAGE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "io/env.h"
#include "storage/column_table.h"
#include "storage/table.h"
#include "storage/tuple.h"

namespace wuw {
namespace paged {

// ---------------------------------------------------------------------------
// Byte codec.  Little-endian fixed-width primitives, length-prefixed
// strings: the one wire idiom of the journal (exec/journal.cc), page
// images and the kernels' spilled partitions.

void PutU8(std::string* out, uint8_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutI64(std::string* out, int64_t v);
void PutString(std::string* out, const std::string& s);
void PutValue(std::string* out, const Value& v);
void PutTuple(std::string* out, const Tuple& t);
/// u32 column count, then per column its name and u8 type tag.
void PutSchema(std::string* out, const Schema& s);

/// Bounds-checked little-endian reader; any overrun or type mismatch
/// latches `ok = false` and every later read returns a zero value.
struct ByteReader {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;
  bool ok = true;

  explicit ByteReader(const std::string& bytes)
      : data(reinterpret_cast<const uint8_t*>(bytes.data())),
        size(bytes.size()) {}
  ByteReader(const uint8_t* d, size_t n) : data(d), size(n) {}

  size_t remaining() const { return ok ? size - pos : 0; }

  bool Need(size_t n) {
    if (!ok || size - pos < n) {
      ok = false;
      return false;
    }
    return true;
  }

  uint8_t U8() {
    if (!Need(1)) return 0;
    return data[pos++];
  }

  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(data[pos++]) << (8 * i);
    }
    return v;
  }

  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(data[pos++]) << (8 * i);
    }
    return v;
  }

  int64_t I64() { return static_cast<int64_t>(U64()); }

  std::string Str() {
    uint32_t len = U32();
    if (!Need(len)) return std::string();
    std::string s(reinterpret_cast<const char*>(data + pos), len);
    pos += len;
    return s;
  }
};

bool GetValue(ByteReader* r, Value* out);
bool GetTuple(ByteReader* r, Tuple* out);
/// Rejects an unknown type tag and a repeated column name (which Schema
/// would abort on): decoded bytes are input from outside the program.
bool GetSchema(ByteReader* r, Schema* out);

/// A column image's cells and multiplicities (`image`'s columns, then its
/// multiplicities; the layout below).  The reader knows the schema and the
/// row count from what precedes it.
void PutColumns(std::string* out, const ColumnTable& image);
/// Decodes PutColumns' bytes for `n` rows of `schema` into a fresh image
/// with room for `capacity` rows; its totals are left for Finish().
/// Returns "" on success, else what is damaged.  Accepts only the shapes
/// ColumnTable's appends and the kernels produce; never aborts.
std::string GetColumns(ByteReader* r, const Schema& schema, size_t n,
                       size_t capacity, std::shared_ptr<ColumnTable>* out);

// ---------------------------------------------------------------------------
// Analytic size model.  Serialized-byte estimates computed from the wire
// format above — a pure function of the data, so every paging/spill
// decision derived from it is deterministic across runs, pool sizes, and
// platforms (never sizeof()/capacity(), which are allocator noise).  A row
// costs the same in either form: the tuple form reads Values, the column
// form reads cells, and both price each cell through ApproxCellBytes.

/// Bytes of one cell as PutValue writes it: the type tag, plus 8 for a
/// numeric payload or a u32 length and `string_bytes` for a string.  A NULL
/// cell (`type` kNull) is the tag alone.
inline int64_t ApproxCellBytes(TypeId type, size_t string_bytes) {
  switch (type) {
    case TypeId::kNull:
      return 1;
    case TypeId::kString:
      return 5 + static_cast<int64_t>(string_bytes);
    default:
      return 9;
  }
}

/// Bytes of one (tuple, multiplicity) row: its cells plus a fixed row
/// overhead (the u32 arity and the i64 multiplicity).
int64_t ApproxRowBytes(const Tuple& t);
/// Bytes of row `i` of a columnar image; equals
/// ApproxRowBytes(image.TupleAt(i)).
int64_t ApproxRowBytes(const ColumnTable& image, size_t i);
/// Bytes of every row of a columnar image, computed a column at a time
/// (null counts, per-code string lengths); equals the sum of
/// ApproxRowBytes(image, i).
int64_t ApproxImageBytes(const ColumnTable& image);
/// Bytes of the table's rows: ApproxImageBytes of its image (the fixed
/// image header is noise at any realistic size).
int64_t ApproxTableBytes(const Table& table);

// ---------------------------------------------------------------------------
// Process-wide paged-tier statistics.  Plain relaxed atomics bumped on
// every armed-path event regardless of obs arming, so tests can assert
// "this budget really spilled" without arming the metric registry; the
// kEngine counters `paged.faults` / `paged.evictions` /
// `paged.spilled_partitions` / `paged.spill_faults` /
// `paged.spill_writebacks` mirror them when metrics are armed.  Extent
// paging (storage/paged_store.h) and operator spill pools
// (storage/buffer_pool.h) count separately: a spill frame's traffic never
// shows up as an extent fault or eviction.

struct PagedStatsSnapshot {
  int64_t faults = 0;              ///< extent fault-ins
  int64_t evictions = 0;           ///< extent hibernations
  int64_t spilled_partitions = 0;  ///< non-empty grace partitions
  int64_t spill_faults = 0;        ///< spill-pool disk re-reads
  int64_t spill_writebacks = 0;    ///< spill-pool dirty evictions written
  int64_t read_retries = 0;        ///< transient-EIO retries in ReadPage
};

PagedStatsSnapshot GlobalPagedStats();

namespace internal {
extern std::atomic<int64_t> g_faults;
extern std::atomic<int64_t> g_evictions;
extern std::atomic<int64_t> g_spilled_partitions;
extern std::atomic<int64_t> g_spill_faults;
extern std::atomic<int64_t> g_spill_writebacks;
extern std::atomic<int64_t> g_read_retries;
}  // namespace internal

// ---------------------------------------------------------------------------
// Page files.

/// Per-frame overhead: u32 payload length + u32 page number + u32 CRC32.
inline constexpr size_t kPageFrameOverhead = 12;

/// A fixed-size-page disk file (the DiskManager of the classic buffer-pool
/// layering).  Not thread-safe: callers serialize access (the extent pager
/// holds its own mutex; operator spills are single-threaded per operator).
/// All disk traffic goes through an io::Env positioned handle, so the
/// WUW_IO_FAULT FaultEnv can inject EIO/ENOSPC/short writes underneath it.
class PageFile {
 public:
  /// Creates/truncates `path` with the given page size through `env`
  /// (null = the current io::GetEnv()).  Returns nullptr and fills
  /// `*error` on failure.
  static std::unique_ptr<PageFile> Create(const std::string& path,
                                          size_t page_bytes,
                                          std::string* error,
                                          io::Env* env = nullptr);

  /// Opens an existing page file, validating magic + header.  Returns
  /// nullptr and fills `*error` on failure.
  static std::unique_ptr<PageFile> Open(const std::string& path,
                                        std::string* error,
                                        io::Env* env = nullptr);

  /// Closes the handle; removes the file first when remove-on-close is set
  /// (spill temporaries).  Never throws — safe during unwinding.
  ~PageFile();

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  size_t page_bytes() const { return page_bytes_; }
  /// Usable payload bytes per page.
  size_t payload_capacity() const { return page_bytes_ - kPageFrameOverhead; }
  int64_t num_pages() const { return num_pages_; }
  const std::string& path() const { return path_; }

  /// Reserves the next page id.  No I/O: the frame exists on disk only
  /// after its first WritePage.
  int64_t AllocatePage() { return num_pages_++; }

  /// Writes one CRC-framed page (payload must fit payload_capacity()).
  /// Returns "" on success, else an error description.  Carries the
  /// `paged.io.write` fault site.
  std::string WritePage(int64_t page_id, std::string_view payload);

  /// Reads + validates one page frame.  Returns "" on success, else an
  /// error description (truncation, CRC mismatch, wrong page number — the
  /// caller treats any of them as a torn page).  Carries the
  /// `paged.io.read` fault site.  A *retryable* raw-read failure (EIO, not
  /// truncation or CRC damage — those are corruption, not transience) is
  /// retried on a bounded deterministic schedule (kReadAttempts fixed
  /// attempts, each counted in the kEngine `io.retries` metric and
  /// GlobalPagedStats().read_retries); a failure that outlives the
  /// schedule returns the error string — the caller's error/throw
  /// contract, never an abort.
  std::string ReadPage(int64_t page_id, std::string* payload);

  /// Bounded retry schedule for transient read errors.
  static constexpr int kReadAttempts = 3;

  /// Reads every page in one read of the whole file, checks each frame
  /// where it lies, and leaves the payloads concatenated in *out (each
  /// moved down in place; no per-page copy).  Same checks, errors and
  /// retry schedule as ReadPage, and one `paged.io.read` fault site.
  /// Returns "" on success; on an error *out is empty.
  std::string ReadAllPayloads(std::string* out);

  /// Flushes buffered writes (no fsync).  Returns "" on success.
  std::string Flush();

  /// Flushes everything to stable storage (fsync) — the pre-rename step
  /// of SaveTableImage's crash discipline.  Returns "" on success.
  std::string Sync();

  /// Spill temporaries set this so the file vanishes with the handle.
  void set_remove_on_close(bool remove) { remove_on_close_ = remove; }

 private:
  /// Reads `n` raw bytes at `offset` on the kReadAttempts schedule;
  /// `what` names them in errors ("page 3").
  std::string ReadRetrying(uint64_t offset, size_t n, const std::string& what,
                           std::string* out);
  /// Checks the frame of page `page_id` held at `frame`: its length, CRC
  /// and page number.  Sets *len to its payload length.
  std::string CheckFrame(const char* frame, int64_t page_id,
                         uint32_t* len) const;

  PageFile(std::unique_ptr<io::RandomRWFile> file, io::Env* env,
           std::string path, size_t page_bytes, int64_t num_pages)
      : file_(std::move(file)),
        env_(env),
        path_(std::move(path)),
        page_bytes_(page_bytes),
        num_pages_(num_pages) {}

  std::unique_ptr<io::RandomRWFile> file_;
  io::Env* env_;
  std::string path_;
  size_t page_bytes_;
  int64_t num_pages_;
  bool remove_on_close_ = false;
};

// ---------------------------------------------------------------------------
// Table images: a whole extent serialized across consecutive pages —
// what the extent pager (storage/paged_store.h) writes on hibernate and
// reads on fault-in.  The payload is the table's columnar image
// (storage/column_table.h), format version 2:
//
//   u32 version  schema  i64 mutation_count  i64 cardinality  u64 rows
//   per column:  u8 has_null_mask  [rows x u8 null mask]
//                int64 / date / null column: rows x i64
//                double column:              rows x u64 (IEEE-754 bits)
//                string column:              u32 dict size, dict strings
//                                            in code order, rows x u32 code
//   rows x i64 multiplicity
//
// Rows are in the table's dense order and dictionaries keep their codes,
// so the restored image equals the hibernated one cell for cell and every
// scan over it sees the same rows in the same order.

/// A decoded extent image.  `columns` is in the table's dense-row order,
/// with room reserved for the appends a batch's installs make.  Its prefix
/// sums are not built: the multiplicities are unchecked input until
/// Table::RestorePayload validates them and finishes the image.
struct TableImage {
  Schema schema;
  std::shared_ptr<ColumnTable> columns;
  int64_t mutation_count = 0;
  int64_t cardinality = 0;
};

/// Writes `table`'s columnar image to `path` with the full crash-atomic
/// discipline (temp, fsync, rename, fsync parent dir — io/env.h).  Returns
/// "" on success, else an error description; a table with no columnar
/// image (a cell violates its declared type) is such an error.
std::string SaveTableImage(const Table& table, const std::string& path,
                           size_t page_bytes);

/// Loads a whole image.  Returns "" on success, else an error description:
/// a missing or foreign file, another format version, a torn or corrupt
/// page, or a payload that does not decode to exactly one image.  There
/// is no partial result.  Never aborts.
std::string LoadTableImage(const std::string& path, TableImage* out);

}  // namespace paged
}  // namespace wuw

#endif  // WUW_STORAGE_PAGE_H_
