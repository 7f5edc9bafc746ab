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
#include "storage/column_table.h"
#include "storage/page.h"

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
// Serialization: the page codec's primitives (storage/page.h); strings and
// vectors are length-prefixed, and every frame carries its own CRC32.

namespace {

using paged::ByteReader;
using paged::GetSchema;
using paged::GetTuple;
using paged::PutI64;
using paged::PutSchema;
using paged::PutString;
using paged::PutTuple;
using paged::PutU32;
using paged::PutU64;
using paged::PutU8;
using paged::PutValue;

constexpr char kMagic[8] = {'W', 'U', 'W', 'J', 'R', 'N', 'L', '1'};
constexpr uint32_t kFormatVersion = 1;
// Record types inside framed payloads.
constexpr uint8_t kEntryRecord = 0;
constexpr uint8_t kCompleteRecord = 1;

/// Row by row, each as PutTuple writes it and then its multiplicity.
void PutRows(std::string* out, const Rows& rows) {
  PutSchema(out, rows.schema);
  PutU64(out, rows.size());
  std::shared_ptr<const ColumnTable> image = rows.Columnar();
  for (size_t i = 0; i < image->num_rows(); ++i) {
    PutU32(out, static_cast<uint32_t>(image->num_columns()));
    for (size_t c = 0; c < image->num_columns(); ++c) {
      PutValue(out, image->column(c).ValueAt(i));
    }
    PutI64(out, image->mult()[i]);
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

// GetRows and GetDelta reject a row that does not fit its decoded schema
// (arity, or a non-NULL cell of another type): a CRC-valid record this
// version never wrote, which must not reach Table::Add on replay.
bool GetRows(ByteReader* r, Rows* out) {
  Schema schema;
  if (!GetSchema(r, &schema)) return false;
  uint64_t n = r->U64();
  if (!r->Need(n)) return false;  // every row is at least one byte
  // Appended to the image directly: a zero multiplicity stays a row, as
  // it was written.
  auto image = std::make_shared<ColumnTable>(std::move(schema));
  for (uint64_t i = 0; i < n; ++i) {
    Tuple t;
    if (!GetTuple(r, &t) || !image->Accepts(t)) return false;
    image->AppendRow(t, r->I64());
  }
  if (!r->ok) return false;
  *out = Rows::FromColumnar(std::move(image));
  return true;
}

bool GetDelta(ByteReader* r, DeltaRelation* out) {
  Schema schema;
  if (!GetSchema(r, &schema)) return false;
  uint64_t n = r->U64();
  if (!r->Need(n)) return false;
  *out = DeltaRelation(std::move(schema));
  for (uint64_t i = 0; i < n; ++i) {
    Tuple t;
    if (!GetTuple(r, &t) || !TupleFitsSchema(out->schema(), t)) return false;
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
