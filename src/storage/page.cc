#include "storage/page.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <set>

#include "common/check.h"
#include "common/crc32.h"
#include "fault/fault_injection.h"
#include "obs/metrics.h"

namespace wuw {
namespace paged {

// ---------------------------------------------------------------------------
// Byte codec.

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void PutValue(std::string* out, const Value& v) {
  PutU8(out, static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case TypeId::kNull:
      break;
    case TypeId::kInt64:
      PutI64(out, v.AsInt64());
      break;
    case TypeId::kDate:
      PutI64(out, v.AsDate());
      break;
    case TypeId::kDouble: {
      uint64_t bits;
      double d = v.AsDouble();
      std::memcpy(&bits, &d, sizeof(bits));
      PutU64(out, bits);
      break;
    }
    case TypeId::kString:
      PutString(out, v.AsString());
      break;
  }
}

void PutTuple(std::string* out, const Tuple& t) {
  PutU32(out, static_cast<uint32_t>(t.size()));
  for (const Value& v : t.values()) PutValue(out, v);
}

bool GetValue(ByteReader* r, Value* out) {
  uint8_t tag = r->U8();
  switch (static_cast<TypeId>(tag)) {
    case TypeId::kNull:
      *out = Value::Null();
      break;
    case TypeId::kInt64:
      *out = Value::Int64(r->I64());
      break;
    case TypeId::kDate:
      *out = Value::Date(r->I64());
      break;
    case TypeId::kDouble: {
      uint64_t bits = r->U64();
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      *out = Value::Double(d);
      break;
    }
    case TypeId::kString:
      *out = Value::String(r->Str());
      break;
    default:
      r->ok = false;
  }
  return r->ok;
}

bool GetTuple(ByteReader* r, Tuple* out) {
  uint32_t n = r->U32();
  if (!r->Need(n)) return false;  // every value is at least one byte
  std::vector<Value> values(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!GetValue(r, &values[i])) return false;
  }
  *out = Tuple(std::move(values));
  return true;
}

void PutSchema(std::string* out, const Schema& s) {
  PutU32(out, static_cast<uint32_t>(s.num_columns()));
  for (const Column& c : s.columns()) {
    PutString(out, c.name);
    PutU8(out, static_cast<uint8_t>(c.type));
  }
}

bool GetSchema(ByteReader* r, Schema* out) {
  uint32_t n = r->U32();
  if (!r->Need(n)) return false;
  std::vector<Column> columns(n);
  std::set<std::string> names;
  for (uint32_t i = 0; i < n; ++i) {
    columns[i].name = r->Str();
    uint8_t tag = r->U8();
    // Schema aborts on a repeated name, so the decoder rejects it first.
    if (tag > static_cast<uint8_t>(TypeId::kDate) ||
        !names.insert(columns[i].name).second) {
      r->ok = false;
      return false;
    }
    columns[i].type = static_cast<TypeId>(tag);
  }
  if (!r->ok) return false;
  *out = Schema(std::move(columns));
  return true;
}

// ---------------------------------------------------------------------------
// Analytic size model.

namespace {
/// A row's fixed bytes: PutTuple's u32 arity plus the i64 multiplicity.
constexpr int64_t kRowOverheadBytes = 4 + 8;
}  // namespace

int64_t ApproxRowBytes(const Tuple& t) {
  int64_t bytes = kRowOverheadBytes;
  for (const Value& v : t.values()) {
    bytes += ApproxCellBytes(
        v.type(), v.type() == TypeId::kString ? v.AsString().size() : 0);
  }
  return bytes;
}

int64_t ApproxRowBytes(const ColumnTable& image, size_t i) {
  int64_t bytes = kRowOverheadBytes;
  for (size_t c = 0; c < image.num_columns(); ++c) {
    const ColumnVec& col = image.column(c);
    if (col.type == TypeId::kNull || col.IsNull(i)) {
      bytes += ApproxCellBytes(TypeId::kNull, 0);
    } else {
      bytes += ApproxCellBytes(
          col.type,
          col.type == TypeId::kString ? col.dict->At(col.codes[i]).size() : 0);
    }
  }
  return bytes;
}

int64_t ApproxImageBytes(const ColumnTable& image) {
  const int64_t n = static_cast<int64_t>(image.num_rows());
  const int64_t null_bytes = ApproxCellBytes(TypeId::kNull, 0);
  int64_t bytes = n * kRowOverheadBytes;
  for (size_t c = 0; c < image.num_columns(); ++c) {
    const ColumnVec& col = image.column(c);
    switch (col.type) {
      case TypeId::kNull:
        bytes += n * null_bytes;
        break;
      case TypeId::kString: {
        const size_t dict_size = col.dict != nullptr ? col.dict->size() : 0;
        std::vector<int64_t> code_bytes(dict_size);
        for (size_t code = 0; code < dict_size; ++code) {
          const std::string& s = col.dict->At(static_cast<uint32_t>(code));
          code_bytes[code] = ApproxCellBytes(TypeId::kString, s.size());
        }
        for (uint32_t code : col.codes) {
          bytes += code == kNullStringCode ? null_bytes : code_bytes[code];
        }
        break;
      }
      default: {
        int64_t nulls = 0;
        for (uint8_t b : col.nulls) nulls += b != 0;
        bytes +=
            nulls * null_bytes + (n - nulls) * ApproxCellBytes(col.type, 0);
        break;
      }
    }
  }
  return bytes;
}

int64_t ApproxTableBytes(const Table& table) {
  return ApproxImageBytes(*table.ColumnarSnapshot());
}

// ---------------------------------------------------------------------------
// Global stats.

namespace internal {
std::atomic<int64_t> g_faults{0};
std::atomic<int64_t> g_evictions{0};
std::atomic<int64_t> g_spilled_partitions{0};
std::atomic<int64_t> g_spill_faults{0};
std::atomic<int64_t> g_spill_writebacks{0};
std::atomic<int64_t> g_read_retries{0};
}  // namespace internal

PagedStatsSnapshot GlobalPagedStats() {
  PagedStatsSnapshot out;
  out.faults = internal::g_faults.load(std::memory_order_relaxed);
  out.evictions = internal::g_evictions.load(std::memory_order_relaxed);
  out.spilled_partitions =
      internal::g_spilled_partitions.load(std::memory_order_relaxed);
  out.spill_faults = internal::g_spill_faults.load(std::memory_order_relaxed);
  out.spill_writebacks =
      internal::g_spill_writebacks.load(std::memory_order_relaxed);
  out.read_retries =
      internal::g_read_retries.load(std::memory_order_relaxed);
  return out;
}

// ---------------------------------------------------------------------------
// Page files.

namespace {

constexpr char kPageMagic[8] = {'W', 'U', 'W', 'P', 'A', 'G', 'E', '1'};
constexpr uint32_t kPageFormatVersion = 1;
/// magic + u32 version + u32 page_bytes.
constexpr size_t kFileHeaderBytes = sizeof(kPageMagic) + 8;
constexpr size_t kMinPageBytes = 64;
constexpr size_t kMaxPageBytes = 16u << 20;

}  // namespace

std::unique_ptr<PageFile> PageFile::Create(const std::string& path,
                                           size_t page_bytes,
                                           std::string* error, io::Env* env) {
  if (env == nullptr) env = io::GetEnv();
  if (page_bytes < kMinPageBytes || page_bytes > kMaxPageBytes) {
    *error = "page size out of range: " + std::to_string(page_bytes);
    return nullptr;
  }
  std::unique_ptr<io::RandomRWFile> f;
  *error = env->NewRandomRWFile(path, /*truncate=*/true, &f);
  if (!error->empty()) return nullptr;
  std::string header(kPageMagic, sizeof(kPageMagic));
  PutU32(&header, kPageFormatVersion);
  PutU32(&header, static_cast<uint32_t>(page_bytes));
  *error = f->WriteAt(0, header);
  if (!error->empty()) {
    f.reset();
    env->RemoveFile(path);
    return nullptr;
  }
  return std::unique_ptr<PageFile>(
      new PageFile(std::move(f), env, path, page_bytes, 0));
}

std::unique_ptr<PageFile> PageFile::Open(const std::string& path,
                                         std::string* error, io::Env* env) {
  if (env == nullptr) env = io::GetEnv();
  std::unique_ptr<io::RandomRWFile> f;
  *error = env->NewRandomRWFile(path, /*truncate=*/false, &f);
  if (!error->empty()) return nullptr;
  std::string raw;
  if (!f->ReadAt(0, kFileHeaderBytes, &raw, nullptr).empty() ||
      std::memcmp(raw.data(), kPageMagic, sizeof(kPageMagic)) != 0) {
    *error = "not a page file (bad magic): " + path;
    return nullptr;
  }
  ByteReader r(
      reinterpret_cast<const uint8_t*>(raw.data() + sizeof(kPageMagic)), 8);
  uint32_t version = r.U32();
  uint32_t page_bytes = r.U32();
  if (version != kPageFormatVersion || page_bytes < kMinPageBytes ||
      page_bytes > kMaxPageBytes) {
    *error = "unsupported page file header in " + path;
    return nullptr;
  }
  uint64_t end = 0;
  *error = f->Size(&end);
  if (!error->empty()) return nullptr;
  int64_t pages = end <= kFileHeaderBytes
                      ? 0
                      : static_cast<int64_t>((end - kFileHeaderBytes) /
                                             page_bytes);
  return std::unique_ptr<PageFile>(
      new PageFile(std::move(f), env, path, page_bytes, pages));
}

PageFile::~PageFile() {
  file_.reset();
  if (remove_on_close_) env_->RemoveFile(path_);
}

std::string PageFile::WritePage(int64_t page_id, std::string_view payload) {
  WUW_FAULT_POINT("paged.io.write");
  WUW_CHECK(page_id >= 0 && page_id < num_pages_, "page id out of range");
  WUW_CHECK(payload.size() <= payload_capacity(), "page payload too large");
  std::string frame;
  frame.reserve(page_bytes_);
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, static_cast<uint32_t>(page_id));
  frame.append(payload);
  // The CRC covers the length + page number prefix as well as the payload:
  // a flipped bit anywhere in the frame is detected, not reinterpreted.
  PutU32(&frame, Crc32(frame.data(), frame.size()));
  frame.resize(page_bytes_, '\0');
  uint64_t offset = kFileHeaderBytes +
                    static_cast<uint64_t>(page_id) * page_bytes_;
  return file_->WriteAt(offset, frame);
}

std::string PageFile::ReadRetrying(uint64_t offset, size_t n,
                                   const std::string& what,
                                   std::string* out) {
  // Bounded deterministic retry for transient I/O errors (EIO from a
  // flaky medium).  Truncation (short read) and CRC/decode damage are
  // corruption, not transience — those never retry.
  std::string read_error;
  bool retryable = false;
  for (int attempt = 0; attempt < kReadAttempts; ++attempt) {
    if (attempt > 0) {
      internal::g_read_retries.fetch_add(1, std::memory_order_relaxed);
      WUW_METRIC_ADD("io.retries", obs::MetricClass::kEngine, 1);
    }
    retryable = false;
    read_error = file_->ReadAt(offset, n, out, &retryable);
    if (read_error.empty() || !retryable) break;
  }
  if (read_error.empty()) return "";
  if (!retryable) {
    // A short read: the frame is truncated, not transiently unreadable.
    return "torn " + what + " in " + path_ + " (short read)";
  }
  return "cannot read " + what + " in " + path_ + ": " + read_error;
}

std::string PageFile::CheckFrame(const char* frame, int64_t page_id,
                                 uint32_t* len) const {
  ByteReader r(reinterpret_cast<const uint8_t*>(frame), 8);
  *len = r.U32();
  const uint32_t stored_id = r.U32();
  if (*len > payload_capacity()) {
    return "corrupt page " + std::to_string(page_id) + " in " + path_ +
           " (bad length)";
  }
  const uint32_t crc_offset = 8 + *len;
  ByteReader crc_reader(reinterpret_cast<const uint8_t*>(frame) + crc_offset,
                        4);
  if (Crc32(frame, crc_offset) != crc_reader.U32()) {
    return "corrupt page " + std::to_string(page_id) + " in " + path_ +
           " (CRC mismatch)";
  }
  if (stored_id != static_cast<uint32_t>(page_id)) {
    return "corrupt page " + std::to_string(page_id) + " in " + path_ +
           " (wrong page number)";
  }
  return "";
}

std::string PageFile::ReadPage(int64_t page_id, std::string* payload) {
  WUW_FAULT_POINT("paged.io.read");
  WUW_CHECK(page_id >= 0, "page id out of range");
  std::string frame;
  const uint64_t offset =
      kFileHeaderBytes + static_cast<uint64_t>(page_id) * page_bytes_;
  std::string error = ReadRetrying(offset, page_bytes_,
                                   "page " + std::to_string(page_id), &frame);
  if (!error.empty()) return error;
  uint32_t len = 0;
  error = CheckFrame(frame.data(), page_id, &len);
  if (!error.empty()) return error;
  payload->assign(frame.data() + 8, len);
  return "";
}

std::string PageFile::ReadAllPayloads(std::string* out) {
  WUW_FAULT_POINT("paged.io.read");
  out->clear();
  if (num_pages_ == 0) return "";
  const size_t pages = static_cast<size_t>(num_pages_);
  std::string error =
      ReadRetrying(kFileHeaderBytes, pages * page_bytes_,
                   "pages 0-" + std::to_string(pages - 1), out);
  if (!error.empty()) {
    out->clear();
    return error;
  }
  // Check each frame where it lies, then move its payload down to the end
  // of the payloads before it.  That end never passes the frame's own
  // payload, so no move overwrites a frame not yet checked.
  size_t end = 0;
  for (size_t id = 0; id < pages; ++id) {
    const size_t frame = id * page_bytes_;
    uint32_t len = 0;
    error = CheckFrame(out->data() + frame, static_cast<int64_t>(id), &len);
    if (!error.empty()) {
      out->clear();
      return error;
    }
    std::memmove(out->data() + end, out->data() + frame + 8, len);
    end += len;
  }
  out->resize(end);
  return "";
}

std::string PageFile::Flush() { return file_->Flush(); }

std::string PageFile::Sync() { return file_->Sync(); }

// ---------------------------------------------------------------------------
// Table images.

namespace {
constexpr uint32_t kImageFormatVersion = 2;

/// Appends the first `n` words of `words` little-endian: GetWords's
/// counterpart, a bulk copy on a little-endian host.
template <typename T>
void PutWords(std::string* out, const std::vector<T>& words, size_t n) {
  static_assert(sizeof(T) == 4 || sizeof(T) == 8);
  if constexpr (std::endian::native == std::endian::little) {
    out->append(reinterpret_cast<const char*>(words.data()), n * sizeof(T));
  } else {
    for (size_t i = 0; i < n; ++i) {
      if constexpr (sizeof(T) == 4) {
        uint32_t word;
        std::memcpy(&word, &words[i], sizeof(T));
        PutU32(out, word);
      } else {
        uint64_t word;
        std::memcpy(&word, &words[i], sizeof(T));
        PutU64(out, word);
      }
    }
  }
}

void PutColumn(std::string* out, const ColumnVec& col, size_t n) {
  PutU8(out, col.nulls.empty() ? 0 : 1);
  if (!col.nulls.empty()) {
    out->append(reinterpret_cast<const char*>(col.nulls.data()), n);
  }
  switch (col.type) {
    case TypeId::kString: {
      const size_t dict_size = col.dict != nullptr ? col.dict->size() : 0;
      PutU32(out, static_cast<uint32_t>(dict_size));
      for (size_t code = 0; code < dict_size; ++code) {
        PutString(out, col.dict->At(static_cast<uint32_t>(code)));
      }
      PutWords(out, col.codes, n);
      break;
    }
    case TypeId::kDouble:
      PutWords(out, col.dbls, n);
      break;
    default:
      PutWords(out, col.ints, n);
      break;
  }
}

/// Reads `n` little-endian fixed-width words into `out` (room reserved for
/// `capacity`) after one bounds check: a bulk copy on a little-endian host,
/// a word at a time elsewhere.
template <typename T>
bool GetWords(ByteReader* r, size_t n, size_t capacity, std::vector<T>* out) {
  static_assert(sizeof(T) == 4 || sizeof(T) == 8);
  if (!r->Need(n * sizeof(T))) return false;
  out->reserve(capacity);
  out->resize(n);
  if constexpr (std::endian::native == std::endian::little) {
    // An empty vector may have no buffer, and memcpy's pointers must not
    // be null even for zero bytes.
    if (n != 0) std::memcpy(out->data(), r->data + r->pos, n * sizeof(T));
    r->pos += n * sizeof(T);
  } else {
    for (size_t i = 0; i < n; ++i) {
      if constexpr (sizeof(T) == 4) {
        const uint32_t word = r->U32();
        std::memcpy(&(*out)[i], &word, sizeof(T));
      } else {
        const uint64_t word = r->U64();
        std::memcpy(&(*out)[i], &word, sizeof(T));
      }
    }
  }
  return true;
}

/// Decodes one column of `n` rows into `col` (type preset), reserving
/// `capacity` cells.  Accepts only the shapes ColumnTable's appends and
/// the kernels produce: no null mask on a string column (NULL is a code
/// there), a mask of all ones on a non-empty kNull column, and a zero
/// payload under every NULL of a numeric column.  Returns false on any
/// other shape, an overrun, a null-mask byte other than 0/1, a duplicate
/// dictionary string or an out-of-range code.
bool GetColumn(ByteReader* r, size_t n, size_t capacity, ColumnVec* col) {
  const uint8_t has_nulls = r->U8();
  if (has_nulls > 1 || (has_nulls == 1 && col->type == TypeId::kString) ||
      (has_nulls == 0 && col->type == TypeId::kNull && n > 0)) {
    return false;
  }
  if (has_nulls == 1) {
    if (!r->Need(n)) return false;
    col->nulls.reserve(capacity);
    col->nulls.assign(r->data + r->pos, r->data + r->pos + n);
    r->pos += n;
    const uint8_t lowest = col->type == TypeId::kNull ? 1 : 0;
    for (uint8_t b : col->nulls) {
      if (b > 1 || b < lowest) return false;
    }
  }
  switch (col->type) {
    case TypeId::kString: {
      const uint32_t dict_size = r->U32();
      if (!r->Need(dict_size)) return false;  // >= 4 bytes per string
      auto dict = std::make_shared<StringDict>();
      for (uint32_t code = 0; code < dict_size; ++code) {
        std::string s = r->Str();
        if (!r->ok || dict->Intern(s) != code) return false;
      }
      WUW_METRIC_ADD("engine.vec.value_hashes", obs::MetricClass::kEngine,
                     dict_size);
      if (!GetWords(r, n, capacity, &col->codes)) return false;
      for (uint32_t code : col->codes) {
        if (code >= dict_size && code != kNullStringCode) return false;
      }
      col->dict = std::move(dict);
      break;
    }
    case TypeId::kDouble:
      if (!GetWords(r, n, capacity, &col->dbls)) return false;
      break;
    default:
      if (!GetWords(r, n, capacity, &col->ints)) return false;
      break;
  }
  // A NULL cell carries an all-zero payload (AppendRow and the kernels
  // write 0 / 0.0 there; -0.0 is not all-zero).
  if (!col->nulls.empty()) {
    for (size_t i = 0; i < n; ++i) {
      if (col->nulls[i] == 0) continue;
      uint64_t bits = 0;
      if (col->type == TypeId::kDouble) {
        std::memcpy(&bits, &col->dbls[i], sizeof(bits));
      } else {
        bits = static_cast<uint64_t>(col->ints[i]);
      }
      if (bits != 0) return false;
    }
  }
  return r->ok;
}

std::string SerializeTableImage(const Table& table, const ColumnTable& image) {
  std::string out;
  // Room for every fixed-width word, null mask and header; dictionary
  // strings may grow it once more.
  out.reserve(256 + image.num_rows() * (8 + 9 * image.num_columns()));
  PutU32(&out, kImageFormatVersion);
  PutSchema(&out, table.schema());
  PutI64(&out, table.mutation_count());
  PutI64(&out, table.cardinality());
  PutU64(&out, image.num_rows());
  PutColumns(&out, image);
  return out;
}

/// Decodes a whole image payload; "" on success.
std::string DecodeTableImage(const std::string& bytes, TableImage* out) {
  ByteReader r(bytes);
  const uint32_t version = r.U32();
  if (!r.ok) return "image header is truncated";
  if (version != kImageFormatVersion) {
    return "unsupported image format version " + std::to_string(version) +
           " (this build reads version " +
           std::to_string(kImageFormatVersion) + ")";
  }
  TableImage img;
  if (!GetSchema(&r, &img.schema)) {
    return "image header is truncated or corrupt";
  }
  img.mutation_count = r.I64();
  img.cardinality = r.I64();
  const uint64_t n64 = r.U64();
  // Every row takes at least eight bytes (its multiplicity), which bounds
  // the reservations below by what the payload actually holds.
  if (!r.ok || n64 > r.remaining() / 8 || n64 >= kNullStringCode) {
    return "image header is truncated or corrupt";
  }
  const size_t n = static_cast<size_t>(n64);
  // The installs that follow a fault-in append without reallocating.
  std::string error = GetColumns(&r, img.schema, n,
                                 ColumnTable::EditCapacity(n), &img.columns);
  if (!error.empty()) return error;
  if (r.remaining() != 0) {
    return std::to_string(r.remaining()) + " trailing bytes after the image";
  }
  *out = std::move(img);
  return "";
}

}  // namespace

void PutColumns(std::string* out, const ColumnTable& image) {
  const size_t n = image.num_rows();
  for (size_t c = 0; c < image.num_columns(); ++c) {
    PutColumn(out, image.column(c), n);
  }
  PutWords(out, image.mult(), n);
}

std::string GetColumns(ByteReader* r, const Schema& schema, size_t n,
                       size_t capacity, std::shared_ptr<ColumnTable>* out) {
  auto image = std::make_shared<ColumnTable>(schema);
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (!GetColumn(r, n, capacity, image->mutable_column(c))) {
      return "column " + std::to_string(c) + " is truncated or corrupt";
    }
  }
  if (!r->Need(n * 8)) return "multiplicities are truncated";
  std::vector<int64_t>& mult = *image->mutable_mult();
  mult.reserve(capacity);
  for (size_t i = 0; i < n; ++i) mult.push_back(r->I64());
  *out = std::move(image);
  return "";
}

std::string SaveTableImage(const Table& table, const std::string& path,
                           size_t page_bytes) {
  std::shared_ptr<const ColumnTable> image = table.ColumnarSnapshot();
  const std::string bytes = SerializeTableImage(table, *image);
  image.reset();
  const std::string tmp = path + ".tmp";
  io::Env* env = io::GetEnv();
  std::string error;
  std::unique_ptr<PageFile> file =
      PageFile::Create(tmp, page_bytes, &error, env);
  if (file == nullptr) return error;
  const size_t capacity = file->payload_capacity();
  // At least one page, even for an empty table, so Open always finds a
  // decodable header frame.
  size_t offset = 0;
  do {
    size_t chunk = std::min(capacity, bytes.size() - offset);
    int64_t id = file->AllocatePage();
    error = file->WritePage(id, std::string_view(bytes).substr(offset, chunk));
    if (!error.empty()) {
      file.reset();
      env->RemoveFile(tmp);
      return error;
    }
    offset += chunk;
  } while (offset < bytes.size());
  // Crash discipline: fsync the image, rename it over the real name, then
  // fsync the parent directory so the dirent itself is durable.  A crash
  // at any instant leaves the old image or the new one — never a torn mix.
  error = file->Sync();
  file.reset();
  if (!error.empty()) {
    env->RemoveFile(tmp);
    return error;
  }
  error = env->RenameFile(tmp, path);
  if (!error.empty()) {
    env->RemoveFile(tmp);
    return error;
  }
  return env->SyncDir(io::ParentDir(path));
}

std::string LoadTableImage(const std::string& path, TableImage* out) {
  std::string error;
  std::unique_ptr<PageFile> file = PageFile::Open(path, &error);
  if (file == nullptr) return error;
  // Every page must read back whole: the image is one record, so a torn
  // or corrupt page anywhere makes the whole load fail.
  std::string bytes;
  error = file->ReadAllPayloads(&bytes);
  if (!error.empty()) return error;
  error = DecodeTableImage(bytes, out);
  return error.empty() ? "" : path + ": " + error;
}

}  // namespace paged
}  // namespace wuw
