#include "exec/journal.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/crc32.h"
#include "fault/fault_injection.h"
#include "obs/metrics.h"

namespace wuw {

void StrategyJournal::Begin(const Strategy& strategy, int64_t batch_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  strategy_ = strategy;
  batch_epoch_ = batch_epoch;
  entries_.clear();
  begun_ = true;
  complete_ = false;
  DurableBeginLocked();
}

void StrategyJournal::Record(JournalEntry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  WUW_CHECK(begun_, "journal Record before Begin");
  WUW_CHECK(!complete_, "journal Record after MarkComplete");
  WUW_METRIC_ADD("journal.entries", obs::MetricClass::kWork, 1);
  entries_.push_back(std::move(entry));
  DurableAppendLocked(entries_.back());
}

void StrategyJournal::MarkComplete() {
  std::lock_guard<std::mutex> lock(mu_);
  WUW_CHECK(begun_, "journal MarkComplete before Begin");
  complete_ = true;
  DurableCompleteLocked();
}

bool StrategyJournal::begun() const {
  std::lock_guard<std::mutex> lock(mu_);
  return begun_;
}

bool StrategyJournal::complete() const {
  std::lock_guard<std::mutex> lock(mu_);
  return complete_;
}

const Strategy& StrategyJournal::strategy() const {
  std::lock_guard<std::mutex> lock(mu_);
  WUW_CHECK(begun_, "journal strategy() before Begin");
  return strategy_;
}

int64_t StrategyJournal::batch_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batch_epoch_;
}

int64_t StrategyJournal::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(entries_.size());
}

bool StrategyJournal::IsStepComplete(int64_t step) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const JournalEntry& e : entries_) {
    if (e.step == step) return true;
  }
  return false;
}

std::vector<JournalEntry> StrategyJournal::EntriesInStepOrder() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JournalEntry> out = entries_;
  std::sort(out.begin(), out.end(),
            [](const JournalEntry& a, const JournalEntry& b) {
              return a.step < b.step;
            });
  return out;
}

void StrategyJournal::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  begun_ = false;
  complete_ = false;
  strategy_ = Strategy();
  batch_epoch_ = 0;
  entries_.clear();
  // The sink stays attached but closed: the next Begin rewrites the file.
  if (durable_file_ != nullptr) durable_file_->Close();
  durable_file_.reset();
}

// ---------------------------------------------------------------------------
// Serialization.  Little-endian fixed-width primitives; strings and
// vectors are length-prefixed; every frame carries its own CRC32.

namespace {

constexpr char kMagic[8] = {'W', 'U', 'W', 'J', 'R', 'N', 'L', '1'};
constexpr uint32_t kFormatVersion = 1;
// Record types inside framed payloads.
constexpr uint8_t kEntryRecord = 0;
constexpr uint8_t kCompleteRecord = 1;

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

void PutSchema(std::string* out, const Schema& s) {
  PutU32(out, static_cast<uint32_t>(s.num_columns()));
  for (const Column& c : s.columns()) {
    PutString(out, c.name);
    PutU8(out, static_cast<uint8_t>(c.type));
  }
}

void PutRows(std::string* out, const Rows& rows) {
  PutSchema(out, rows.schema);
  PutU64(out, rows.rows.size());
  for (const auto& [tuple, count] : rows.rows) {
    PutTuple(out, tuple);
    PutI64(out, count);
  }
}

void PutDelta(std::string* out, const DeltaRelation& delta) {
  PutSchema(out, delta.schema());
  std::vector<std::pair<Tuple, int64_t>> entries;
  entries.reserve(delta.distinct_size());
  delta.ForEach(
      [&](const Tuple& t, int64_t c) { entries.emplace_back(t, c); });
  // The map iterates in hash order; sort so serialization is deterministic
  // (two saves of the same journal are byte-identical).
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  PutU64(out, entries.size());
  for (const auto& [tuple, count] : entries) {
    PutTuple(out, tuple);
    PutI64(out, count);
  }
}

void PutExpression(std::string* out, const Expression& e) {
  PutU8(out, static_cast<uint8_t>(e.kind));
  PutString(out, e.view);
  PutU32(out, static_cast<uint32_t>(e.over.size()));
  for (const std::string& s : e.over) PutString(out, s);
}

void PutStrategy(std::string* out, const Strategy& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  for (const Expression& e : s.expressions()) PutExpression(out, e);
}

/// Appends [u32 len][payload][u32 crc32(payload)].
void PutFrame(std::string* out, const std::string& payload) {
  PutU32(out, static_cast<uint32_t>(payload.size()));
  out->append(payload);
  PutU32(out, Crc32(payload.data(), payload.size()));
}

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
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data[pos++]) << (8 * i);
    return v;
  }

  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data[pos++]) << (8 * i);
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

bool GetSchema(ByteReader* r, Schema* out) {
  uint32_t n = r->U32();
  if (!r->Need(n)) return false;
  std::vector<Column> columns(n);
  for (uint32_t i = 0; i < n; ++i) {
    columns[i].name = r->Str();
    uint8_t tag = r->U8();
    if (tag > static_cast<uint8_t>(TypeId::kDate)) {
      r->ok = false;
      return false;
    }
    columns[i].type = static_cast<TypeId>(tag);
  }
  if (!r->ok) return false;
  *out = Schema(std::move(columns));
  return true;
}

bool GetRows(ByteReader* r, Rows* out) {
  Schema schema;
  if (!GetSchema(r, &schema)) return false;
  uint64_t n = r->U64();
  if (!r->Need(n)) return false;  // every row is at least one byte
  *out = Rows(std::move(schema));
  out->rows.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Tuple t;
    if (!GetTuple(r, &t)) return false;
    int64_t count = r->I64();
    out->rows.emplace_back(std::move(t), count);
  }
  return r->ok;
}

bool GetDelta(ByteReader* r, DeltaRelation* out) {
  Schema schema;
  if (!GetSchema(r, &schema)) return false;
  uint64_t n = r->U64();
  if (!r->Need(n)) return false;
  *out = DeltaRelation(std::move(schema));
  for (uint64_t i = 0; i < n; ++i) {
    Tuple t;
    if (!GetTuple(r, &t)) return false;
    int64_t count = r->I64();
    if (!r->ok) return false;
    out->Add(t, count);
  }
  return r->ok;
}

bool GetExpression(ByteReader* r, Expression* out) {
  uint8_t kind = r->U8();
  std::string view = r->Str();
  uint32_t n = r->U32();
  if (!r->Need(n)) return false;
  std::vector<std::string> over(n);
  for (uint32_t i = 0; i < n; ++i) over[i] = r->Str();
  if (!r->ok) return false;
  if (kind == static_cast<uint8_t>(Expression::Kind::kComp)) {
    *out = Expression::Comp(std::move(view), std::move(over));
  } else if (kind == static_cast<uint8_t>(Expression::Kind::kInst)) {
    if (!over.empty()) {
      r->ok = false;
      return false;
    }
    *out = Expression::Inst(std::move(view));
  } else {
    r->ok = false;
    return false;
  }
  return true;
}

bool GetStrategy(ByteReader* r, Strategy* out) {
  uint32_t n = r->U32();
  if (!r->Need(n)) return false;
  std::vector<Expression> exprs(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!GetExpression(r, &exprs[i])) return false;
  }
  *out = Strategy(std::move(exprs));
  return true;
}

bool GetEntry(ByteReader* r, JournalEntry* out) {
  out->step = r->I64();
  if (!GetExpression(r, &out->expression)) return false;
  if (!GetRows(r, &out->comp_raw)) return false;
  if (!GetDelta(r, &out->installed)) return false;
  out->extent_version_after = r->I64();
  // A valid record consumes its whole payload: trailing garbage means the
  // payload is not what this version wrote, CRC notwithstanding.
  return r->ok && r->remaining() == 0;
}

/// Reads one [len][payload][crc] frame; false on truncation or CRC
/// mismatch (the caller treats either as the torn tail).
bool GetFrame(ByteReader* r, ByteReader* payload) {
  uint32_t len = r->U32();
  if (!r->Need(len + 4u) || len + 4u < len) return false;
  const uint8_t* start = r->data + r->pos;
  r->pos += len;
  uint32_t crc = r->U32();
  if (!r->ok || Crc32(start, len) != crc) return false;
  *payload = ByteReader(start, len);
  return true;
}

/// Header frame payload: format version, batch epoch, strategy.
std::string HeaderPayload(const Strategy& strategy, int64_t batch_epoch) {
  std::string header;
  PutU32(&header, kFormatVersion);
  PutI64(&header, batch_epoch);
  PutStrategy(&header, strategy);
  return header;
}

std::string EntryPayload(const JournalEntry& entry) {
  std::string payload;
  PutU8(&payload, kEntryRecord);
  PutI64(&payload, entry.step);
  PutExpression(&payload, entry.expression);
  PutRows(&payload, entry.comp_raw);
  PutDelta(&payload, entry.installed);
  PutI64(&payload, entry.extent_version_after);
  return payload;
}

std::string CompletePayload() {
  std::string payload;
  PutU8(&payload, kCompleteRecord);
  return payload;
}

}  // namespace

std::string SerializeJournal(const StrategyJournal& journal) {
  WUW_CHECK(journal.begun(), "cannot serialize a journal with no run");
  std::string out(kMagic, sizeof(kMagic));
  PutFrame(&out, HeaderPayload(journal.strategy(), journal.batch_epoch()));
  for (const JournalEntry& entry : journal.EntriesInStepOrder()) {
    PutFrame(&out, EntryPayload(entry));
  }
  if (journal.complete()) PutFrame(&out, CompletePayload());
  return out;
}

// ---------------------------------------------------------------------------
// Incremental durable sink (see journal.h).  All three run with mu_ held.

std::string StrategyJournal::AttachDurable(io::Env* env, std::string path) {
  std::lock_guard<std::mutex> lock(mu_);
  durable_env_ = env != nullptr ? env : io::GetEnv();
  durable_path_ = std::move(path);
  durable_file_.reset();
  durable_error_.clear();
  if (begun_) DurableBeginLocked();  // re-home an in-flight run
  return durable_error_;
}

void StrategyJournal::DetachDurable() {
  std::lock_guard<std::mutex> lock(mu_);
  if (durable_file_ != nullptr) durable_file_->Close();
  durable_file_.reset();
  durable_env_ = nullptr;
  durable_path_.clear();
  durable_error_.clear();
}

std::string StrategyJournal::durable_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_error_;
}

void StrategyJournal::DurableBeginLocked() {
  if (durable_env_ == nullptr) return;
  durable_error_.clear();
  durable_file_.reset();
  std::string error = durable_env_->NewWritableFile(durable_path_,
                                                    &durable_file_);
  if (error.empty()) {
    std::string bytes(kMagic, sizeof(kMagic));
    PutFrame(&bytes, HeaderPayload(strategy_, batch_epoch_));
    // Non-empty only when AttachDurable re-homes an in-flight run.
    for (const JournalEntry& entry : entries_) {
      PutFrame(&bytes, EntryPayload(entry));
    }
    if (complete_) PutFrame(&bytes, CompletePayload());
    error = durable_file_->Append(bytes);
    if (error.empty()) error = durable_file_->Sync();
    // One parent-directory fsync commits the dirent; every later append
    // then only needs the file fsync to be crash-safe.
    if (error.empty()) {
      error = durable_env_->SyncDir(io::ParentDir(durable_path_));
    }
  }
  if (!error.empty()) {
    durable_error_ = error;
    durable_file_.reset();
  }
}

void StrategyJournal::DurableAppendLocked(const JournalEntry& entry) {
  if (durable_file_ == nullptr) return;
  WUW_FAULT_POINT("journal.durable.append");
  std::string bytes;
  PutFrame(&bytes, EntryPayload(entry));
  std::string error = durable_file_->Append(bytes);
  if (error.empty()) error = durable_file_->Sync();
  if (!error.empty()) {
    // Fail-stop: the on-disk file keeps the longest valid prefix, which
    // LoadJournal already knows how to use.
    durable_error_ = error;
    durable_file_.reset();
  }
}

void StrategyJournal::DurableCompleteLocked() {
  if (durable_file_ == nullptr) return;
  std::string bytes;
  PutFrame(&bytes, CompletePayload());
  std::string error = durable_file_->Append(bytes);
  if (error.empty()) error = durable_file_->Sync();
  if (!error.empty()) {
    durable_error_ = error;
    durable_file_.reset();
  }
}

bool DeserializeJournal(const std::string& bytes, StrategyJournal* out,
                        std::string* error, bool* torn) {
  if (torn != nullptr) *torn = false;
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    *error = "not a journal file (bad magic)";
    return false;
  }
  ByteReader r(bytes);
  r.pos = sizeof(kMagic);
  ByteReader header(nullptr, 0);
  if (!GetFrame(&r, &header)) {
    *error = "journal header truncated or corrupt";
    return false;
  }
  uint32_t version = header.U32();
  if (version != kFormatVersion) {
    *error = "unsupported journal format version " + std::to_string(version);
    return false;
  }
  int64_t batch_epoch = header.I64();
  Strategy strategy;
  if (!GetStrategy(&header, &strategy) || header.remaining() != 0) {
    *error = "journal header strategy is corrupt";
    return false;
  }
  out->Clear();
  out->Begin(strategy, batch_epoch);

  // Record stream: accept the longest valid prefix.  Any truncation, CRC
  // mismatch, or undecodable payload ends the journal there — the dropped
  // suffix only costs re-executing those steps on resume.
  const int64_t total_steps = static_cast<int64_t>(strategy.size());
  while (r.ok && r.remaining() > 0) {
    ByteReader payload(nullptr, 0);
    if (!GetFrame(&r, &payload)) {
      if (torn != nullptr) *torn = true;
      break;
    }
    uint8_t type = payload.U8();
    if (type == kEntryRecord) {
      JournalEntry entry;
      // An entry must describe the header strategy's expression at its
      // step: replaying it onto another view would double-install that
      // view once the real step re-executes live.
      if (!GetEntry(&payload, &entry) || entry.step < 0 ||
          entry.step >= total_steps || out->IsStepComplete(entry.step) ||
          !(entry.expression == strategy[static_cast<size_t>(entry.step)])) {
        if (torn != nullptr) *torn = true;
        break;
      }
      out->Record(std::move(entry));
    } else if (type == kCompleteRecord && payload.remaining() == 0) {
      // Only an intact final marker upgrades the run to complete; bytes
      // after it are not something this version ever wrote.
      if (r.remaining() == 0) {
        out->MarkComplete();
      } else if (torn != nullptr) {
        *torn = true;
      }
      break;
    } else {
      if (torn != nullptr) *torn = true;
      break;
    }
  }
  return true;
}

bool SaveJournal(const StrategyJournal& journal, const std::string& path,
                 std::string* error) {
  return io::AtomicWriteFile(io::GetEnv(), path, SerializeJournal(journal),
                             error);
}

bool LoadJournal(const std::string& path, StrategyJournal* out,
                 std::string* error, bool* torn) {
  std::string bytes;
  *error = io::GetEnv()->ReadFileToString(path, &bytes);
  if (!error->empty()) return false;
  if (!DeserializeJournal(bytes, out, error, torn)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

}  // namespace wuw
