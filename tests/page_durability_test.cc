// Page-file durability (storage/page.h): spilled extent images must load
// back exactly, and ANY torn tail or byte corruption must either fail with
// an error string or degrade to the longest valid row prefix — never to a
// wrong table and never to an abort (journal_durability_test's discipline
// applied to the paged tier).  On the engine side, a torn image surfaces
// as a fault-in I/O error (std::runtime_error), and recovery onto a
// restored resident clone still converges.
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

Table MakeTestTable(int64_t rows, uint64_t seed) {
  Table t(testutil::TripleSchema("T"));
  testutil::FillTriple(&t, rows, seed, /*hole_every=*/5);
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
  std::vector<std::pair<Tuple, int64_t>> live;
  table.ForEach([&](const Tuple& t, int64_t count) {
    live.emplace_back(t, count);
  });
  ASSERT_EQ(img.rows.size(), live.size());
  for (size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(img.rows[i].first, live[i].first) << "row " << i;
    EXPECT_EQ(img.rows[i].second, live[i].second) << "row " << i;
  }
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
  std::string error;
  bool torn = true;
  ASSERT_TRUE(LoadTableImage(path, &img, &error, &torn)) << error;
  EXPECT_FALSE(torn);
  ExpectImageMatches(t, img);
  std::remove(path.c_str());
}

// Truncate the image file at EVERY byte length.  Below the first whole
// page the load must fail with an error string; from there on it must
// succeed with a row prefix that never shrinks as more bytes survive, and
// report a torn tail whenever rows are missing.
TEST(PageDurabilityTest, TruncationAtEveryOffset) {
  Table t = MakeTestTable(40, 13);
  const std::string full_path = ::testing::TempDir() + "wuw_page_trunc.pages";
  ASSERT_EQ(SaveTableImage(t, full_path, kPage), "");
  const std::string bytes = ReadFileBytes(full_path);
  ASSERT_GT(bytes.size(), 2 * kPage);  // multi-page image
  const std::string cut_path = full_path + ".cut";

  TableImage full_img;
  std::string error;
  bool torn = false;
  ASSERT_TRUE(LoadTableImage(full_path, &full_img, &error, &torn)) << error;
  const size_t full_rows = full_img.rows.size();

  bool any_success = false;
  size_t prev_rows = 0;
  for (size_t len = 0; len <= bytes.size(); ++len) {
    SCOPED_TRACE("truncated to " + std::to_string(len) + " of " +
                 std::to_string(bytes.size()) + " bytes");
    WriteFileBytes(cut_path, bytes.substr(0, len));
    TableImage img;
    error.clear();
    torn = false;
    bool ok = LoadTableImage(cut_path, &img, &error, &torn);
    if (!ok) {
      ASSERT_FALSE(any_success)
          << "load failed after shorter prefixes succeeded";
      ASSERT_FALSE(error.empty());
      continue;
    }
    any_success = true;
    ASSERT_LE(img.rows.size(), full_rows);
    ASSERT_GE(img.rows.size(), prev_rows) << "longer prefix lost rows";
    prev_rows = img.rows.size();
    if (img.rows.size() < full_rows) {
      EXPECT_TRUE(torn);
    }
    if (len == bytes.size()) {
      EXPECT_FALSE(torn);
      ExpectImageMatches(t, img);
    }
    // The surviving prefix must be the REAL prefix, bit for bit.
    for (size_t i = 0; i < img.rows.size(); ++i) {
      ASSERT_EQ(img.rows[i].first, full_img.rows[i].first) << "row " << i;
      ASSERT_EQ(img.rows[i].second, full_img.rows[i].second) << "row " << i;
    }
  }
  ASSERT_TRUE(any_success);
  EXPECT_EQ(prev_rows, full_rows);
  std::remove(full_path.c_str());
  std::remove(cut_path.c_str());
}

// Flip every byte (one at a time).  Header damage must fail with an error
// string; frame damage must drop to a valid row prefix (the frame CRC
// catches it); flips in inter-frame zero padding are outside any frame
// and load clean.
TEST(PageDurabilityTest, SingleByteCorruptionAtEveryOffset) {
  Table t = MakeTestTable(30, 17);
  const std::string path = ::testing::TempDir() + "wuw_page_flip.pages";
  ASSERT_EQ(SaveTableImage(t, path, kPage), "");
  const std::string bytes = ReadFileBytes(path);
  const std::string flip_path = path + ".flip";

  TableImage full_img;
  std::string error;
  bool torn = false;
  ASSERT_TRUE(LoadTableImage(path, &full_img, &error, &torn)) << error;
  const size_t full_rows = full_img.rows.size();

  for (size_t i = 0; i < bytes.size(); ++i) {
    SCOPED_TRACE("flipped byte " + std::to_string(i));
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xFF);
    WriteFileBytes(flip_path, corrupt);
    TableImage img;
    error.clear();
    torn = false;
    bool ok = LoadTableImage(flip_path, &img, &error, &torn);
    if (!ok) {
      ASSERT_FALSE(error.empty());
      continue;
    }
    ASSERT_LE(img.rows.size(), full_rows);
    // Whatever survived is a true prefix of the original rows.
    for (size_t r = 0; r < img.rows.size(); ++r) {
      ASSERT_EQ(img.rows[r].first, full_img.rows[r].first);
      ASSERT_EQ(img.rows[r].second, full_img.rows[r].second);
    }
    // A short load must be flagged torn; a full, untorn load means the
    // flip landed in zero padding outside every CRC-framed region.
    if (img.rows.size() < full_rows) {
      EXPECT_TRUE(torn);
    }
  }
  std::remove(path.c_str());
  std::remove(flip_path.c_str());
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
  std::string error;
  bool torn = true;
  ASSERT_TRUE(LoadTableImage(path, &img, &error, &torn)) << error;
  EXPECT_FALSE(torn);
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
  std::string error;
  EXPECT_FALSE(LoadTableImage(::testing::TempDir() + "wuw_no_such.pages",
                              &img, &error, nullptr));
  EXPECT_FALSE(error.empty());

  const std::string path = ::testing::TempDir() + "wuw_page_garbage.pages";
  WriteFileBytes(path, "definitely not a page file");
  error.clear();
  EXPECT_FALSE(LoadTableImage(path, &img, &error, nullptr));
  EXPECT_FALSE(error.empty());
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
