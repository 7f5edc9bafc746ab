// Journal durability: the on-disk format (magic + CRC-framed records)
// must load back exactly, and ANY torn tail or byte corruption must either
// fail with an error string (header damage) or degrade to the longest
// valid record prefix — never to a wrong journal.  Truncation is swept at
// every byte offset; corruption flips every byte (one at a time).  Resume
// from any surviving prefix must still converge to the recompute ground
// truth.
#include "exec/journal.h"

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "core/min_work.h"
#include "exec/executor.h"
#include "exec/recovery.h"
#include "exec/window_budget.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "test_util.h"

namespace wuw {
namespace {

struct Bench {
  Warehouse pre;     // state before the window: what recovery restores
  Warehouse ran;     // state after the (possibly partial) journaled run
  Catalog truth;
  Strategy strategy;
};

/// Runs the first `steps` steps journaled (negative = all of them).
Bench MakeJournaledRun(uint64_t seed, int64_t steps = -1) {
  Warehouse w = testutil::MakeLoadedWarehouse(testutil::MakeFig10Vdag(), 40,
                                              seed);
  testutil::ApplyTripleChanges(&w, 0.25, 8, seed + 4);
  Catalog truth = testutil::GroundTruthAfterChanges(w);
  Strategy s = MinWork(w.vdag(), w.EstimatedSizes()).strategy;

  Bench b{w.Clone(), std::move(w), std::move(truth), std::move(s)};
  ExecutorOptions options;
  options.journal = true;
  if (steps < 0) {
    Executor(&b.ran, options).Execute(b.strategy);
  } else {
    // Pause after `steps` via the cumulative work of an uninterrupted run.
    Warehouse probe = b.pre.Clone();
    ExecutionReport full = Executor(&probe).Execute(b.strategy);
    int64_t budget_work = 0;
    for (int64_t i = 0; i < steps; ++i) {
      budget_work += full.per_expression[i].linear_work;
    }
    WindowBudget budget(WindowBudgetOptions{budget_work});
    options.budget = &budget;
    ExecutionReport r = Executor(&b.ran, options).Execute(b.strategy);
    EXPECT_EQ(r.window_result, WindowResult::kPaused);
    EXPECT_EQ(r.steps_completed, steps);
  }
  return b;
}

/// Asserts that resuming `journal` onto a fresh pre-window clone converges
/// to the ground truth.
void ExpectResumeConverges(const Bench& b, const StrategyJournal& journal) {
  Warehouse restored = b.pre.Clone();
  ExecutionReport r = ResumeStrategy(journal, &restored);
  ASSERT_EQ(r.window_result, WindowResult::kCompleted);
  ASSERT_TRUE(restored.catalog().ContentsEqual(b.truth));
}

TEST(JournalDurabilityTest, RoundTripCompleteJournal) {
  Bench b = MakeJournaledRun(31);
  const StrategyJournal& journal = b.ran.journal();
  ASSERT_TRUE(journal.complete());

  std::string bytes = SerializeJournal(journal);
  ASSERT_GT(bytes.size(), 8u);
  EXPECT_EQ(bytes.substr(0, 8), "WUWJRNL1");

  StrategyJournal loaded;
  std::string error;
  bool torn = true;
  ASSERT_TRUE(DeserializeJournal(bytes, &loaded, &error, &torn)) << error;
  EXPECT_FALSE(torn);
  EXPECT_TRUE(loaded.complete());
  EXPECT_EQ(loaded.size(), journal.size());
  // Serialization is byte-deterministic (delta entries are sorted), so a
  // round trip reproduces the exact bytes.
  EXPECT_EQ(SerializeJournal(loaded), bytes);
  ExpectResumeConverges(b, loaded);
}

TEST(JournalDurabilityTest, RoundTripPausedJournal) {
  Bench b = MakeJournaledRun(37, /*steps=*/2);
  const StrategyJournal& journal = b.ran.journal();
  ASSERT_TRUE(journal.begun());
  ASSERT_FALSE(journal.complete());
  ASSERT_EQ(journal.size(), 2);

  std::string bytes = SerializeJournal(journal);
  StrategyJournal loaded;
  std::string error;
  bool torn = true;
  ASSERT_TRUE(DeserializeJournal(bytes, &loaded, &error, &torn)) << error;
  EXPECT_FALSE(torn);
  EXPECT_FALSE(loaded.complete());
  EXPECT_EQ(loaded.size(), 2);
  ExpectResumeConverges(b, loaded);
}

// Truncate at EVERY byte offset.  Below the first whole frame the load
// must fail with an error string; from there on it must succeed, report a
// torn tail (except at full length), and recover a record prefix whose
// size never decreases as more bytes survive.
TEST(JournalDurabilityTest, TruncationAtEveryOffset) {
  Bench b = MakeJournaledRun(41);
  std::string bytes = SerializeJournal(b.ran.journal());
  const int64_t full_entries = b.ran.journal().size();

  bool any_success = false;
  int64_t prev_entries = 0;
  for (size_t len = 0; len <= bytes.size(); ++len) {
    SCOPED_TRACE("truncated to " + std::to_string(len) + " of " +
                 std::to_string(bytes.size()) + " bytes");
    StrategyJournal out;
    std::string error;
    bool torn = false;
    bool ok = DeserializeJournal(bytes.substr(0, len), &out, &error, &torn);
    if (!ok) {
      ASSERT_FALSE(any_success)
          << "load failed after shorter prefixes succeeded";
      ASSERT_FALSE(error.empty());
      continue;
    }
    any_success = true;
    if (len < bytes.size()) {
      // Mid-frame cuts read as torn; a cut exactly on a frame boundary is
      // byte-indistinguishable from a journal of a paused run, so it loads
      // untorn — but a truncated journal must never claim completeness.
      EXPECT_FALSE(out.complete());
    } else {
      EXPECT_FALSE(torn);
      EXPECT_TRUE(out.complete());
    }
    ASSERT_LE(out.size(), full_entries);
    ASSERT_GE(out.size(), prev_entries) << "longer prefix lost records";
    const bool record_boundary = out.size() > prev_entries;
    prev_entries = out.size();
    // Resume-convergence is O(window); check it at every record-count
    // transition and every 64th offset rather than all offsets.
    if (record_boundary || len % 64 == 0 || len == bytes.size()) {
      ExpectResumeConverges(b, out);
    }
  }
  ASSERT_TRUE(any_success);
  EXPECT_EQ(prev_entries, full_entries);
}

// Flip every byte (one at a time).  Damage in the magic or header frame
// must fail with an error string; damage past the header must degrade to a
// valid record prefix (CRC catches the broken frame).
TEST(JournalDurabilityTest, SingleByteCorruptionAtEveryOffset) {
  Bench b = MakeJournaledRun(43);
  const std::string bytes = SerializeJournal(b.ran.journal());
  const int64_t full_entries = b.ran.journal().size();

  for (size_t i = 0; i < bytes.size(); ++i) {
    SCOPED_TRACE("flipped byte " + std::to_string(i));
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xFF);
    StrategyJournal out;
    std::string error;
    bool torn = false;
    bool ok = DeserializeJournal(corrupt, &out, &error, &torn);
    if (!ok) {
      ASSERT_FALSE(error.empty());
      continue;
    }
    // Survived: must be a record prefix, and a corrupt tail must read as
    // torn (the complete marker cannot have survived a flip before it).
    ASSERT_LE(out.size(), full_entries);
    EXPECT_TRUE(torn || out.complete());
    if (i % 97 == 0) ExpectResumeConverges(b, out);
  }
}

// A CRC-valid entry whose expression is not the header strategy's
// expression at its step would replay onto the wrong view (and the real
// step would then re-execute live, double-installing it).  It must read as
// the torn tail instead.
TEST(JournalDurabilityTest, EntryForAnotherExpressionIsTornTail) {
  Bench b = MakeJournaledRun(53);
  const StrategyJournal& journal = b.ran.journal();
  const std::vector<JournalEntry> entries = journal.EntriesInStepOrder();
  int64_t first_inst = -1;
  int64_t last_inst = -1;
  for (const JournalEntry& entry : entries) {
    if (!entry.expression.is_inst()) continue;
    if (first_inst < 0) first_inst = entry.step;
    last_inst = entry.step;
  }
  ASSERT_GE(first_inst, 0);
  ASSERT_NE(first_inst, last_inst);

  // Step `first_inst` logged with the effect of a different Inst.
  StrategyJournal forged;
  forged.Begin(journal.strategy(), journal.batch_epoch());
  for (const JournalEntry& entry : entries) {
    if (entry.step != first_inst) {
      forged.Record(entry);
      continue;
    }
    JournalEntry wrong = entries[static_cast<size_t>(last_inst)];
    wrong.step = first_inst;
    forged.Record(std::move(wrong));
  }
  forged.MarkComplete();

  StrategyJournal loaded;
  std::string error;
  bool torn = false;
  ASSERT_TRUE(DeserializeJournal(SerializeJournal(forged), &loaded, &error,
                                 &torn))
      << error;
  EXPECT_TRUE(torn);
  EXPECT_FALSE(loaded.complete());
  EXPECT_EQ(loaded.size(), first_inst);
  ExpectResumeConverges(b, loaded);
}

/// Serializes the journal of `b` with the entry at step `step` rewritten
/// by `edit` (every frame's CRC is valid).
std::string ForgeEntry(const Bench& b, int64_t step,
                       const std::function<void(JournalEntry*)>& edit) {
  const StrategyJournal& journal = b.ran.journal();
  StrategyJournal forged;
  forged.Begin(journal.strategy(), journal.batch_epoch());
  for (JournalEntry entry : journal.EntriesInStepOrder()) {
    if (entry.step == step) edit(&entry);
    forged.Record(std::move(entry));
  }
  forged.MarkComplete();
  return SerializeJournal(forged);
}

/// Step of the first Inst entry with a non-empty installed delta.
int64_t FirstNonEmptyInst(const Bench& b) {
  for (const JournalEntry& entry : b.ran.journal().EntriesInStepOrder()) {
    if (entry.expression.is_inst() && !entry.installed.empty()) {
      return entry.step;
    }
  }
  return -1;
}

// A CRC-valid entry whose installed delta holds a string in an Int64
// column must never reach Table::Add on replay: decoding rejects the row,
// the entry reads as the torn tail, and resume re-executes it.
TEST(JournalDurabilityTest, IllTypedRowIsTornTail) {
  Bench b = MakeJournaledRun(59);
  const int64_t step = FirstNonEmptyInst(b);
  ASSERT_GE(step, 0);
  const std::string forged = ForgeEntry(b, step, [](JournalEntry* entry) {
    const Schema& schema = entry->installed.schema();
    ASSERT_EQ(schema.column(0).type, TypeId::kInt64);
    std::vector<Value> cells(schema.num_columns(), Value::Int64(1));
    cells[0] = Value::String("not an int");
    entry->installed.Add(Tuple(std::move(cells)), 1);
  });

  StrategyJournal loaded;
  std::string error;
  bool torn = false;
  ASSERT_TRUE(DeserializeJournal(forged, &loaded, &error, &torn)) << error;
  EXPECT_TRUE(torn);
  EXPECT_FALSE(loaded.complete());
  EXPECT_EQ(loaded.size(), step);
  ExpectResumeConverges(b, loaded);
}

/// Replaces the one length-prefixed string `from` inside a record frame
/// of the serialized journal `bytes` with `to` (same length) and re-seals
/// that frame's CRC, so the record stays CRC-valid.
void RewriteStringInFrame(std::string* bytes, const std::string& from,
                          const std::string& to) {
  ASSERT_EQ(from.size(), to.size());
  auto u32_at = [&](size_t pos) {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>((*bytes)[pos + i]))
           << (8 * i);
    }
    return v;
  };
  std::string needle(4, '\0');
  for (int i = 0; i < 4; ++i) {
    needle[i] = static_cast<char>((from.size() >> (8 * i)) & 0xff);
  }
  needle += from;
  for (size_t pos = 8; pos + 4 <= bytes->size();) {  // past the magic
    const size_t len = u32_at(pos);
    const size_t payload = pos + 4;
    const size_t hit = bytes->find(needle, payload);
    if (hit != std::string::npos && hit + needle.size() <= payload + len) {
      bytes->replace(hit + 4, to.size(), to);
      const uint32_t crc = Crc32(bytes->data() + payload, len);
      for (int i = 0; i < 4; ++i) {
        (*bytes)[payload + len + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
      }
      return;
    }
    pos = payload + len + 4;
  }
  FAIL() << "no frame holds the string " << from;
}

// A CRC-valid entry whose installed delta names one column twice must
// never reach Schema, which aborts on a repeated name: decoding rejects
// the schema, the entry reads as the torn tail, and resume re-executes it.
TEST(JournalDurabilityTest, RepeatedColumnNameIsTornTail) {
  Bench b = MakeJournaledRun(67);
  const int64_t step = FirstNonEmptyInst(b);
  ASSERT_GE(step, 0);
  std::string first, placeholder;
  std::string forged = ForgeEntry(b, step, [&](JournalEntry* entry) {
    std::vector<Column> columns = entry->installed.schema().columns();
    ASSERT_GE(columns.size(), 2u);
    first = columns[0].name;
    placeholder.assign(first.size(), '#');
    columns[1].name = placeholder;
    DeltaRelation renamed{Schema(std::move(columns))};
    entry->installed.ForEach(
        [&](const Tuple& t, int64_t c) { renamed.Add(t, c); });
    entry->installed = std::move(renamed);
  });
  // Column 1 takes column 0's name only in the bytes.
  RewriteStringInFrame(&forged, placeholder, first);

  StrategyJournal loaded;
  std::string error;
  bool torn = false;
  ASSERT_TRUE(DeserializeJournal(forged, &loaded, &error, &torn)) << error;
  EXPECT_TRUE(torn);
  EXPECT_FALSE(loaded.complete());
  EXPECT_EQ(loaded.size(), step);
  ExpectResumeConverges(b, loaded);
}

// An entry whose logged delta has another schema than its view's (a
// journal of some other warehouse) decodes, but resume refuses the whole
// journal with an error before replaying anything: the warehouse and its
// pending batch are untouched, and a live run from there converges.
TEST(JournalDurabilityTest, EntryWithAnotherSchemaIsAResumeError) {
  Bench b = MakeJournaledRun(61);
  const int64_t step = FirstNonEmptyInst(b);
  ASSERT_GE(step, 0);
  const std::string forged = ForgeEntry(b, step, [](JournalEntry* entry) {
    std::vector<Column> columns;
    for (size_t c = 0; c < entry->installed.schema().num_columns(); ++c) {
      columns.push_back({"other_" + std::to_string(c),
                         entry->installed.schema().column(c).type});
    }
    DeltaRelation renamed{Schema(std::move(columns))};
    entry->installed.ForEach(
        [&](const Tuple& t, int64_t c) { renamed.Add(t, c); });
    entry->installed = std::move(renamed);
  });

  StrategyJournal loaded;
  std::string error;
  bool torn = false;
  ASSERT_TRUE(DeserializeJournal(forged, &loaded, &error, &torn)) << error;
  EXPECT_FALSE(torn);
  EXPECT_TRUE(loaded.complete());
  Warehouse restored = b.pre.Clone();
  ExecutionReport r = ResumeStrategy(loaded, &restored);
  EXPECT_NE(r.resume_error.find("journal step " + std::to_string(step)),
            std::string::npos)
      << r.resume_error;
  EXPECT_EQ(r.steps_replayed, 0);
  EXPECT_EQ(r.steps_completed, 0);
  EXPECT_EQ(r.windows, 0);
  EXPECT_TRUE(restored.catalog().ContentsEqual(b.pre.catalog()));
  Executor(&restored).Execute(b.strategy);
  EXPECT_TRUE(restored.catalog().ContentsEqual(b.truth));
}

TEST(JournalDurabilityTest, SaveLoadRoundTripAndAtomicity) {
  Bench b = MakeJournaledRun(47);
  const std::string path = ::testing::TempDir() + "wuw_journal_test.jrnl";
  std::string error;
  ASSERT_TRUE(SaveJournal(b.ran.journal(), path, &error)) << error;
  // The temp file was renamed away.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);

  StrategyJournal loaded;
  bool torn = true;
  ASSERT_TRUE(LoadJournal(path, &loaded, &error, &torn)) << error;
  EXPECT_FALSE(torn);
  EXPECT_EQ(loaded.size(), b.ran.journal().size());
  ExpectResumeConverges(b, loaded);
  std::remove(path.c_str());

  StrategyJournal missing;
  EXPECT_FALSE(LoadJournal(::testing::TempDir() + "wuw_no_such.jrnl",
                           &missing, &error));
  EXPECT_FALSE(error.empty());
}

// The incremental durable sink: a journaled run with AttachDurable writes,
// frame by fsynced frame, exactly the bytes SerializeJournal would — so
// the on-disk file is a loadable image of the run at every instant.
TEST(JournalDurabilityTest, DurableSinkMirrorsSerializationIncrementally) {
  Bench b = MakeJournaledRun(53);
  const std::string path = ::testing::TempDir() + "wuw_durable_live.jrnl";
  Warehouse live = b.pre.Clone();
  ASSERT_EQ(live.journal().AttachDurable(nullptr, path), "");
  ExecutorOptions options;
  options.journal = true;
  Executor(&live, options).Execute(b.strategy);
  ASSERT_EQ(live.journal().durable_error(), "");
  ASSERT_TRUE(live.journal().complete());

  std::string on_disk;
  ASSERT_EQ(io::Env::Default()->ReadFileToString(path, &on_disk), "");
  EXPECT_EQ(on_disk, SerializeJournal(live.journal()));

  StrategyJournal loaded;
  std::string error;
  bool torn = true;
  ASSERT_TRUE(LoadJournal(path, &loaded, &error, &torn)) << error;
  EXPECT_FALSE(torn);
  EXPECT_TRUE(loaded.complete());
  ExpectResumeConverges(b, loaded);
  live.journal().DetachDurable();
  std::remove(path.c_str());
}

// Re-homing an already-complete journal onto a durable sink reproduces
// the full serialized image, completion marker included.
TEST(JournalDurabilityTest, AttachDurableRehomesCompleteRun) {
  Bench b = MakeJournaledRun(59);
  const std::string path = ::testing::TempDir() + "wuw_durable_rehome.jrnl";
  ASSERT_EQ(b.ran.journal().AttachDurable(nullptr, path), "");
  std::string on_disk;
  ASSERT_EQ(io::Env::Default()->ReadFileToString(path, &on_disk), "");
  EXPECT_EQ(on_disk, SerializeJournal(b.ran.journal()));
  b.ran.journal().DetachDurable();
  std::remove(path.c_str());
}

// ENOSPC at EVERY byte budget of the durable image: the attach (or the
// appends behind it) fails with an error string, the sink fail-stops, and
// whatever byte prefix landed on disk obeys the torn-tail rules — a load
// either fails cleanly (not even the header fit) or yields a record prefix
// from which resume still converges.
TEST(JournalDurabilityTest, DurableEnospcAtEveryByteKeepsLoadablePrefix) {
  Bench b = MakeJournaledRun(61);
  const std::string bytes = SerializeJournal(b.ran.journal());
  const std::string path = ::testing::TempDir() + "wuw_durable_enospc.jrnl";
  const int64_t full_entries = b.ran.journal().size();

  bool any_success = false;
  int64_t prev_entries = 0;
  for (size_t budget = 0; budget <= bytes.size(); ++budget) {
    SCOPED_TRACE("enospc at byte " + std::to_string(budget) + " of " +
                 std::to_string(bytes.size()));
    io::IoFaultOptions o;
    o.enospc_bytes = static_cast<int64_t>(budget);
    io::FaultEnv fenv(o, io::Env::Default());

    StrategyJournal j;
    std::string error;
    ASSERT_TRUE(DeserializeJournal(bytes, &j, &error)) << error;
    std::string attach_error = j.AttachDurable(&fenv, path);
    if (budget < bytes.size()) {
      ASSERT_NE(attach_error.find("ENOSPC"), std::string::npos)
          << attach_error;
      EXPECT_EQ(j.durable_error(), attach_error);
    } else {
      ASSERT_EQ(attach_error, "");
    }
    j.DetachDurable();

    StrategyJournal loaded;
    error.clear();
    bool ok = LoadJournal(path, &loaded, &error);
    std::remove(path.c_str());
    if (!ok) {
      ASSERT_FALSE(any_success)
          << "load failed after smaller budgets succeeded";
      ASSERT_FALSE(error.empty());
      continue;
    }
    any_success = true;
    ASSERT_LE(loaded.size(), full_entries);
    ASSERT_GE(loaded.size(), prev_entries) << "larger budget lost records";
    const bool record_boundary = loaded.size() > prev_entries;
    prev_entries = loaded.size();
    if (record_boundary || budget % 64 == 0 || budget == bytes.size()) {
      ExpectResumeConverges(b, loaded);
    }
  }
  ASSERT_TRUE(any_success);
  EXPECT_EQ(prev_entries, full_entries);
}

// Disk full mid-run: the sink fail-stops (the in-memory run is unharmed
// and completes), durable_error() reports the first failure, and the disk
// prefix written before the failure still drives recovery to convergence.
TEST(JournalDurabilityTest, EnospcDuringLiveRunFailsStopAndRecovers) {
  Bench b = MakeJournaledRun(67);
  const std::string bytes = SerializeJournal(b.ran.journal());
  const std::string path = ::testing::TempDir() + "wuw_durable_midrun.jrnl";

  std::vector<size_t> budgets;
  for (size_t n = 0; n < bytes.size(); n += 97) budgets.push_back(n);
  budgets.push_back(bytes.size());
  for (size_t budget : budgets) {
    SCOPED_TRACE("enospc at byte " + std::to_string(budget));
    io::IoFaultOptions o;
    o.enospc_bytes = static_cast<int64_t>(budget);
    io::FaultEnv fenv(o, io::Env::Default());

    Warehouse live = b.pre.Clone();
    ASSERT_EQ(live.journal().AttachDurable(&fenv, path), "");
    ExecutorOptions options;
    options.journal = true;
    Executor(&live, options).Execute(b.strategy);
    ASSERT_TRUE(live.catalog().ContentsEqual(b.truth));
    if (budget < bytes.size()) {
      EXPECT_NE(live.journal().durable_error(), "");
    } else {
      EXPECT_EQ(live.journal().durable_error(), "");
    }
    live.journal().DetachDurable();

    StrategyJournal loaded;
    std::string error;
    if (LoadJournal(path, &loaded, &error)) {
      ExpectResumeConverges(b, loaded);
    } else {
      ASSERT_FALSE(error.empty());
    }
    std::remove(path.c_str());
  }
}

// SaveJournal through a disk that fills mid-write: the failure is an
// error string and the previously saved journal survives under the real
// name, byte for byte (old-or-new, never a mix).
TEST(JournalDurabilityTest, SaveJournalEnospcKeepsOldFile) {
  Bench old_run = MakeJournaledRun(71);
  Bench new_run = MakeJournaledRun(73);
  const std::string path = ::testing::TempDir() + "wuw_save_enospc.jrnl";
  std::string error;
  ASSERT_TRUE(SaveJournal(old_run.ran.journal(), path, &error)) << error;
  const std::string old_bytes = SerializeJournal(old_run.ran.journal());
  const std::string new_bytes = SerializeJournal(new_run.ran.journal());

  for (size_t budget : {size_t{0}, size_t{8}, new_bytes.size() / 2,
                        new_bytes.size() - 1}) {
    SCOPED_TRACE("enospc at byte " + std::to_string(budget));
    io::IoFaultOptions o;
    o.enospc_bytes = static_cast<int64_t>(budget);
    io::FaultEnv fenv(o, io::Env::Default());
    io::ScopedEnv scoped(&fenv);
    error.clear();
    ASSERT_FALSE(SaveJournal(new_run.ran.journal(), path, &error));
    ASSERT_NE(error.find("ENOSPC"), std::string::npos) << error;
  }
  // No .tmp litter, and the old journal is untouched.
  EXPECT_FALSE(io::Env::Default()->FileExists(path + ".tmp"));
  std::string surviving;
  ASSERT_EQ(io::Env::Default()->ReadFileToString(path, &surviving), "");
  EXPECT_EQ(surviving, old_bytes);
  std::remove(path.c_str());
}

TEST(JournalDurabilityTest, EmptyAndGarbageBytesAreErrors) {
  StrategyJournal out;
  std::string error;
  EXPECT_FALSE(DeserializeJournal("", &out, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(DeserializeJournal("not a journal at all", &out, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(DeserializeJournal(std::string("WUWJRNL9") + "xxxx", &out,
                                  &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace wuw
