// Page-file durability (storage/page.h): spilled extent images (the
// table's columnar image, format version 2) must load back exactly, and
// ANY torn tail, byte corruption or other format version must fail with
// an error string — never load a wrong or partial table and never abort
// (journal_durability_test's discipline applied to the paged tier).  On
// the engine side, a torn image surfaces as a fault-in I/O error
// (std::runtime_error), recovery onto a restored resident clone still
// converges, and a table with no columnar image is never hibernated.
#include "storage/page.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/min_work.h"
#include "exec/executor.h"
#include "exec/recovery.h"
#include "exec/warehouse.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "storage/paged_store.h"
#include "test_util.h"

namespace wuw {
namespace paged {
namespace {

constexpr size_t kPage = 512;  // small pages: images span several frames

/// A table over every column type, NULLs in each one, repeated strings
/// (shared dictionary codes), multiplicities above one, and deletes, so
/// the dense order is not the insertion order.
Table MakeTestTable(int64_t rows, uint64_t seed) {
  Table t(Schema({{"k", TypeId::kInt64},
                  {"d", TypeId::kDouble},
                  {"t", TypeId::kDate},
                  {"s", TypeId::kString}}));
  tpcd::Rng rng(seed);
  auto null = [&] { return rng.Below(6) == 0; };
  std::vector<Tuple> added;
  for (int64_t k = 0; k < rows; ++k) {
    Tuple row({Value::Int64(k),
               null() ? Value::Null() : Value::Double(0.5 * rng.Range(-9, 9)),
               null() ? Value::Null()
                      : Value::Date(19970101 + rng.Range(0, 30)),
               null() ? Value::Null()
                      : Value::String("s" + std::to_string(rng.Range(0, 7)))});
    t.Add(row, rng.Range(1, 3));
    added.push_back(std::move(row));
  }
  for (size_t i = 0; i < added.size(); i += 4) t.Add(added[i], -100);
  return t;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

void ExpectImageMatches(const Table& table, const TableImage& img) {
  EXPECT_EQ(img.mutation_count, table.mutation_count());
  EXPECT_EQ(img.cardinality, table.cardinality());
  EXPECT_EQ(img.schema, table.schema());
  std::vector<std::pair<Tuple, int64_t>> live;
  table.ForEach([&](const Tuple& t, int64_t count) {
    live.emplace_back(t, count);
  });
  ASSERT_NE(img.columns, nullptr);
  ASSERT_EQ(img.columns->num_rows(), live.size());
  for (size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(img.columns->TupleAt(i), live[i].first) << "row " << i;
    EXPECT_EQ(img.columns->mult()[i], live[i].second) << "row " << i;
  }
}

/// Byte offsets of the file header and of each page's CRC-framed region
/// ([u32 len][u32 page_no][payload][u32 crc]); everything else is the zero
/// padding that fills each page.
bool InFramePadding(const std::string& file, size_t offset) {
  constexpr size_t kFileHeader = 16;  // magic + version + page size
  if (offset < kFileHeader) return false;
  const size_t page_start = offset - (offset - kFileHeader) % kPage;
  ByteReader len_reader(
      reinterpret_cast<const uint8_t*>(file.data()) + page_start, 4);
  const size_t frame = kPageFrameOverhead + len_reader.U32();
  return offset - page_start >= frame;
}

TEST(PageDurabilityTest, TableImageRoundTrip) {
  Table t = MakeTestTable(60, 11);
  const std::string path = ::testing::TempDir() + "wuw_page_rt.pages";
  ASSERT_EQ(SaveTableImage(t, path, kPage), "");
  // temp+rename discipline: no .tmp litter.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);

  TableImage img;
  ASSERT_EQ(LoadTableImage(path, &img), "");
  ExpectImageMatches(t, img);
  // Cell for cell the table's own columnar image, dictionaries included.
  std::shared_ptr<const ColumnTable> want = t.ColumnarSnapshot();
  for (size_t c = 0; c < want->num_columns(); ++c) {
    const ColumnVec& a = want->column(c);
    const ColumnVec& b = img.columns->column(c);
    EXPECT_EQ(a.ints, b.ints) << "column " << c;
    EXPECT_EQ(a.dbls, b.dbls) << "column " << c;
    EXPECT_EQ(a.codes, b.codes) << "column " << c;
    EXPECT_EQ(a.nulls, b.nulls) << "column " << c;
    ASSERT_EQ(a.dict == nullptr, b.dict == nullptr) << "column " << c;
    if (a.dict != nullptr) {
      ASSERT_EQ(a.dict->size(), b.dict->size()) << "column " << c;
      for (uint32_t code = 0; code < a.dict->size(); ++code) {
        EXPECT_EQ(a.dict->At(code), b.dict->At(code));
        EXPECT_EQ(a.dict->HashOf(code), b.dict->HashOf(code));
      }
    }
  }
  std::remove(path.c_str());
}

// Truncate the image file at EVERY byte length.  An image is one record:
// every proper prefix of the file must fail with an error string (there
// is no partial table), and only the whole file loads — exactly.
TEST(PageDurabilityTest, TruncationAtEveryOffset) {
  Table t = MakeTestTable(40, 13);
  const std::string full_path = ::testing::TempDir() + "wuw_page_trunc.pages";
  ASSERT_EQ(SaveTableImage(t, full_path, kPage), "");
  const std::string bytes = ReadFileBytes(full_path);
  ASSERT_GT(bytes.size(), 2 * kPage);  // multi-page image
  const std::string cut_path = full_path + ".cut";

  for (size_t len = 0; len <= bytes.size(); ++len) {
    SCOPED_TRACE("truncated to " + std::to_string(len) + " of " +
                 std::to_string(bytes.size()) + " bytes");
    WriteFileBytes(cut_path, bytes.substr(0, len));
    TableImage img;
    const std::string error = LoadTableImage(cut_path, &img);
    if (len < bytes.size()) {
      ASSERT_NE(error, "") << "a truncated image loaded";
      ASSERT_EQ(img.columns, nullptr) << "a failed load filled the image";
    } else {
      ASSERT_EQ(error, "");
      ExpectImageMatches(t, img);
    }
  }
  std::remove(full_path.c_str());
  std::remove(cut_path.c_str());
}

// Flip every byte (one at a time).  A flip in the file header or inside
// any CRC-framed region must fail the load with an error string; a flip
// in the zero padding after a page's frame is outside every checked
// region and loads the exact image.
TEST(PageDurabilityTest, SingleByteCorruptionAtEveryOffset) {
  Table t = MakeTestTable(30, 17);
  const std::string path = ::testing::TempDir() + "wuw_page_flip.pages";
  ASSERT_EQ(SaveTableImage(t, path, kPage), "");
  const std::string bytes = ReadFileBytes(path);
  const std::string flip_path = path + ".flip";

  size_t padding_flips = 0;
  for (size_t i = 0; i < bytes.size(); ++i) {
    SCOPED_TRACE("flipped byte " + std::to_string(i));
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xFF);
    WriteFileBytes(flip_path, corrupt);
    TableImage img;
    const std::string error = LoadTableImage(flip_path, &img);
    if (InFramePadding(bytes, i)) {
      ++padding_flips;
      ASSERT_EQ(error, "");
      ExpectImageMatches(t, img);
    } else {
      ASSERT_NE(error, "") << "a corrupt image loaded";
      ASSERT_EQ(img.columns, nullptr);
      // Damage inside a frame is reported as that page's, by its CRC.
      if (i >= 16) {
        EXPECT_NE(error.find("corrupt page"), std::string::npos) << error;
      }
    }
  }
  EXPECT_GT(padding_flips, 0u);  // the last page is never full
  std::remove(path.c_str());
  std::remove(flip_path.c_str());
}

/// Writes `payload` as a one-page image file: well framed, so only the
/// decoder can reject it.
void WriteOnePageImage(const std::string& path, const std::string& payload) {
  std::string error;
  std::unique_ptr<PageFile> file = PageFile::Create(path, kPage, &error);
  ASSERT_NE(file, nullptr) << error;
  ASSERT_EQ(file->WritePage(file->AllocatePage(), payload), "");
  ASSERT_EQ(file->Sync(), "");
}

/// A version-2 payload: one column `type` named "a" (or two, both "a"),
/// `rows` rows with multiplicity 1, then `column_bytes` as the column
/// section and `tail` after the multiplicities.
std::string ImagePayload(TypeId type, bool repeat_name, uint64_t rows,
                         const std::string& column_bytes,
                         const std::string& tail = "") {
  std::string out;
  PutU32(&out, 2);
  PutU32(&out, repeat_name ? 2 : 1);
  for (int i = 0; i < (repeat_name ? 2 : 1); ++i) {
    PutString(&out, "a");
    PutU8(&out, static_cast<uint8_t>(type));
  }
  PutI64(&out, 0);                           // mutation count
  PutI64(&out, static_cast<int64_t>(rows));  // cardinality
  PutU64(&out, rows);
  out += column_bytes;
  for (uint64_t i = 0; i < rows; ++i) PutI64(&out, 1);
  return out + tail;
}

// Well-framed payloads the decoder must reject with an error string and
// no image, never an abort: another format version (version 1 stored
// rows, not columns) named in the message, a repeated column name (which
// Schema would abort on), trailing bytes, a null-mask byte other than 0/1,
// a string code past its dictionary, a dictionary that repeats a string,
// and column shapes ColumnTable never builds (a null mask on a string
// column, a kNull column without an all-ones mask, a non-zero payload
// under a NULL).  The well-formed payloads among them load.  Two equal
// rows decode, and Table::RestorePayload rejects them.
TEST(PageDurabilityTest, WellFramedForeignPayloadsAreErrors) {
  const std::string path = ::testing::TempDir() + "wuw_page_foreign.pages";
  for (const uint32_t version : {1u, 3u}) {
    SCOPED_TRACE("version " + std::to_string(version));
    std::string payload;
    PutU32(&payload, version);
    PutU32(&payload, 0);  // an empty schema, then nothing
    WriteOnePageImage(path, payload);
    TableImage img;
    const std::string error = LoadTableImage(path, &img);
    EXPECT_NE(error.find("version " + std::to_string(version)),
              std::string::npos)
        << error;
    EXPECT_EQ(img.columns, nullptr);
  }

  std::string one_int;  // no null mask, one int64 cell
  PutU8(&one_int, 0);
  PutI64(&one_int, 7);
  std::string bad_mask;  // a null-mask byte of 2
  PutU8(&bad_mask, 1);
  PutU8(&bad_mask, 2);
  PutI64(&bad_mask, 7);
  // A one-row column: mask flag, mask byte when flagged, then one i64.
  auto masked = [](int has_mask, uint8_t mask_byte, int64_t cell) {
    std::string out;
    PutU8(&out, static_cast<uint8_t>(has_mask));
    if (has_mask != 0) PutU8(&out, mask_byte);
    PutI64(&out, cell);
    return out;
  };
  std::string null_double;  // a NULL double holding -0.0's bits
  PutU8(&null_double, 1);
  PutU8(&null_double, 1);
  PutU64(&null_double, uint64_t{1} << 63);
  std::string masked_string;  // a null mask on a string column
  PutU8(&masked_string, 1);
  PutU8(&masked_string, 0);
  PutU32(&masked_string, 1);
  PutString(&masked_string, "x");
  PutU32(&masked_string, 0);
  auto strings = [](std::vector<std::string> dict, uint32_t code) {
    std::string out;
    PutU8(&out, 0);
    PutU32(&out, static_cast<uint32_t>(dict.size()));
    for (const std::string& d : dict) PutString(&out, d);
    PutU32(&out, code);
    return out;
  };
  const struct {
    const char* name;
    std::string payload;
    bool loads;
  } cases[] = {
      {"well formed", ImagePayload(TypeId::kInt64, false, 1, one_int), true},
      {"well formed string", ImagePayload(TypeId::kString, false, 1,
                                          strings({"x", "y"}, 1)),
       true},
      {"repeated column name",
       ImagePayload(TypeId::kInt64, true, 1, one_int + one_int), false},
      {"trailing byte",
       ImagePayload(TypeId::kInt64, false, 1, one_int, std::string(1, '\0')),
       false},
      {"null mask byte 2", ImagePayload(TypeId::kInt64, false, 1, bad_mask),
       false},
      {"code past the dictionary",
       ImagePayload(TypeId::kString, false, 1, strings({"x", "y"}, 2)), false},
      {"repeated dictionary string",
       ImagePayload(TypeId::kString, false, 1, strings({"x", "x"}, 0)), false},
      {"well formed NULL int",
       ImagePayload(TypeId::kInt64, false, 1, masked(1, 1, 0)), true},
      {"well formed kNull column",
       ImagePayload(TypeId::kNull, false, 1, masked(1, 1, 0)), true},
      {"null mask on a string column",
       ImagePayload(TypeId::kString, false, 1, masked_string), false},
      {"kNull column without a mask",
       ImagePayload(TypeId::kNull, false, 1, masked(0, 0, 0)), false},
      {"kNull column with a non-null cell",
       ImagePayload(TypeId::kNull, false, 1, masked(1, 0, 0)), false},
      {"payload under a NULL int",
       ImagePayload(TypeId::kInt64, false, 1, masked(1, 1, 7)), false},
      {"payload under a NULL double",
       ImagePayload(TypeId::kDouble, false, 1, null_double), false},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    WriteOnePageImage(path, c.payload);
    TableImage img;
    const std::string error = LoadTableImage(path, &img);
    if (c.loads) {
      EXPECT_EQ(error, "");
      ASSERT_NE(img.columns, nullptr);
      EXPECT_EQ(img.columns->num_rows(), 1u);
    } else {
      EXPECT_NE(error, "");
      EXPECT_EQ(img.columns, nullptr);
    }
  }

  std::string two_sevens;
  PutU8(&two_sevens, 0);
  PutI64(&two_sevens, 7);
  PutI64(&two_sevens, 7);
  WriteOnePageImage(path, ImagePayload(TypeId::kInt64, false, 2, two_sevens));
  TableImage img;
  ASSERT_EQ(LoadTableImage(path, &img), "");
  Table t(img.schema);
  t.Add(Tuple({Value::Int64(1)}), 3);
  EXPECT_NE(t.RestorePayload(img.columns, 2, 0), "");
  EXPECT_EQ(t.Count(Tuple({Value::Int64(1)})), 3);
  EXPECT_EQ(t.cardinality(), 3);
  std::remove(path.c_str());
}

// A type-violating row cannot enter a table (Add aborts), so every table
// has an image and the pager can hibernate each one; both come back equal.
TEST(PageDurabilityDeathTest, EveryTableHasAnImageToHibernate) {
  Catalog catalog;
  Table* typed = catalog.CreateTable("typed", testutil::TripleSchema("T"));
  testutil::FillTriple(typed, 30, 43, /*hole_every=*/5);
  Table* untyped = catalog.CreateTable("untyped", testutil::TripleSchema("U"));
  testutil::FillTriple(untyped, 30, 47, /*hole_every=*/5);
  EXPECT_DEATH(untyped->Add(Tuple({Value::String("not an int"),
                                   Value::Int64(1), Value::Int64(2)}),
                            1),
               "does not fit");
  const Table typed_before = *typed;
  const Table untyped_before = *untyped;

  PagedOptions options;
  options.budget_bytes = 1;
  options.page_bytes = kPage;
  PagedStore store(options);
  catalog.SetPager(&store);
  store.Register("typed");
  store.Register("untyped");
  store.TestOnlyEvictAll(&catalog);
  EXPECT_TRUE(store.IsHibernated("typed"));
  EXPECT_TRUE(store.IsHibernated("untyped"));
  EXPECT_EQ(store.evictions(), 2);
  EXPECT_TRUE(catalog.MustGetTable("untyped")->ContentsEqual(untyped_before));
  EXPECT_TRUE(catalog.MustGetTable("typed")->ContentsEqual(typed_before));
  EXPECT_EQ(store.faults(), 2);
  catalog.SetPager(nullptr);
}

// SaveTableImage through a disk that fills at every (strided) byte
// budget: the save fails with an error string, leaves no .tmp litter, and
// the previously saved image survives under the real name in full —
// old-or-new, never a mix (the crash-atomic rename discipline).
TEST(PageDurabilityTest, SaveTableImageEnospcKeepsOldImage) {
  Table old_table = MakeTestTable(30, 29);
  Table new_table = MakeTestTable(50, 31);
  const std::string path = ::testing::TempDir() + "wuw_page_enospc.pages";
  ASSERT_EQ(SaveTableImage(old_table, path, kPage), "");
  const std::string old_bytes = ReadFileBytes(path);
  const size_t new_image_bytes =
      static_cast<size_t>(ApproxTableBytes(new_table)) + 2 * kPage;

  for (size_t budget = 0; budget < new_image_bytes; budget += 61) {
    SCOPED_TRACE("enospc at byte " + std::to_string(budget));
    io::IoFaultOptions o;
    o.enospc_bytes = static_cast<int64_t>(budget);
    io::FaultEnv fenv(o, io::Env::Default());
    io::ScopedEnv scoped(&fenv);
    std::string error = SaveTableImage(new_table, path, kPage);
    if (error.empty()) {
      // Enough budget: the new image committed whole.  Stop the sweep —
      // later budgets only get easier.
      break;
    }
    ASSERT_NE(error.find("ENOSPC"), std::string::npos) << error;
  }
  EXPECT_FALSE(io::Env::Default()->FileExists(path + ".tmp"));
  TableImage img;
  ASSERT_EQ(LoadTableImage(path, &img), "");
  if (ReadFileBytes(path) == old_bytes) {
    ExpectImageMatches(old_table, img);
  } else {
    ExpectImageMatches(new_table, img);
  }
  std::remove(path.c_str());
}

// Engine-side transient EIO: a hibernated extent whose first fault-in
// reads hit a two-op injected EIO burst still faults in cleanly — the
// bounded retry in PageFile::ReadPage absorbs it (counted in
// GlobalPagedStats().read_retries) and the warehouse stays on the ground
// truth.  No error, no throw, no torn read.
TEST(PageDurabilityTest, TransientEioFaultInRetriesAndConverges) {
  Warehouse w =
      testutil::MakeLoadedWarehouse(testutil::MakeFig10Vdag(), 40, 37);
  testutil::ApplyTripleChanges(&w, 0.25, 8, 41);
  Catalog truth = testutil::GroundTruthAfterChanges(w);
  Strategy strategy = MinWork(w.vdag(), w.EstimatedSizes()).strategy;

  PagedOptions options;
  options.budget_bytes = 1;
  options.page_bytes = kPage;
  w.EnablePaging(options);
  Executor(&w).Execute(strategy);
  w.paged_store()->TestOnlyEvictAll(&w.catalog());
  const std::string victim = "V1";
  ASSERT_TRUE(w.paged_store()->IsHibernated(victim));

  const int64_t retries_before = GlobalPagedStats().read_retries;
  {
    // Fault-in reads: op 1 is the page file header, then the page frames.
    // Ops 2 and 3 fail retryably — inside ReadPage's kReadAttempts = 3
    // schedule for the first frame.
    io::IoFaultOptions o;
    o.read_eio_at = 2;
    o.transient = 2;
    io::FaultEnv fenv(o, io::Env::Default());
    io::ScopedEnv scoped(&fenv);
    EXPECT_NO_THROW(w.catalog().MustGetTable(victim));
  }
  EXPECT_EQ(GlobalPagedStats().read_retries - retries_before, 2);
  ASSERT_TRUE(w.catalog().ContentsEqual(truth));
}

TEST(PageDurabilityTest, MissingAndGarbageFilesAreErrors) {
  TableImage img;
  EXPECT_NE(LoadTableImage(::testing::TempDir() + "wuw_no_such.pages", &img),
            "");

  const std::string path = ::testing::TempDir() + "wuw_page_garbage.pages";
  WriteFileBytes(path, "definitely not a page file");
  EXPECT_NE(LoadTableImage(path, &img), "");
  EXPECT_EQ(img.columns, nullptr);
  std::remove(path.c_str());
}

// Engine-side torn image: a hibernated extent whose image file was
// truncated mid-frame faults in as an I/O error (std::runtime_error with
// a message), never an abort — and a resident pre-window clone resumed
// from the same journal still converges to the ground truth.
TEST(PageDurabilityTest, TornImageFaultInIsAnErrorAndRecoveryConverges) {
  Warehouse w =
      testutil::MakeLoadedWarehouse(testutil::MakeFig10Vdag(), 40, 19);
  testutil::ApplyTripleChanges(&w, 0.25, 8, 23);
  Catalog truth = testutil::GroundTruthAfterChanges(w);
  Strategy strategy = MinWork(w.vdag(), w.EstimatedSizes()).strategy;

  Warehouse pre = w.Clone();  // resident pre-window state for recovery

  PagedOptions options;
  options.budget_bytes = 1;  // evict everything evictable at every touch
  options.page_bytes = kPage;
  w.EnablePaging(options);
  ExecutorOptions exec_options;
  exec_options.journal = true;
  Executor(&w, exec_options).Execute(strategy);
  ASSERT_TRUE(w.catalog().ContentsEqual(truth));

  // Hibernate everything, then tear every image's tail mid-frame (image
  // paths are internal, so damage the whole spill directory).
  w.paged_store()->TestOnlyEvictAll(&w.catalog());
  const std::string victim = "V1";
  ASSERT_TRUE(w.paged_store()->IsHibernated(victim));
  int images_torn = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(w.paged_store()->dir())) {
    std::string bytes = ReadFileBytes(entry.path().string());
    ASSERT_GT(bytes.size(), 7u);
    WriteFileBytes(entry.path().string(), bytes.substr(0, bytes.size() - 7));
    ++images_torn;
  }
  ASSERT_GT(images_torn, 0);

  EXPECT_THROW(
      {
        try {
          w.catalog().MustGetTable(victim);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find(victim), std::string::npos);
          throw;
        }
      },
      std::runtime_error);

  // The journaled run survives the torn image: recovery replays it onto
  // the resident pre-window clone and converges.
  ExecutionReport r = ResumeStrategy(w.journal(), &pre);
  ASSERT_EQ(r.window_result, WindowResult::kCompleted);
  ASSERT_TRUE(pre.catalog().ContentsEqual(truth));
}

}  // namespace
}  // namespace paged
}  // namespace wuw
