// Randomized fault-injection sweep: hundreds of scripted I/O fault
// schedules thrown at the block-store write path, the DiskTable read
// path, and the WAL append/replay cycle. The invariant under test is
// narrow and absolute: every outcome is either OK or a structured non-OK
// Status — never a crash, never UB (the CI ASan/UBSan jobs run this
// binary), never a silently wrong answer when no fault actually fired.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "relation/block_cache.h"
#include "relation/block_store.h"
#include "relation/disk_table.h"
#include "relation/table.h"
#include "relation/wal.h"

namespace paql::relation {
namespace {

constexpr int kSchedules = 200;

/// A fresh directory under the system temp dir, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_((std::filesystem::temp_directory_path() / name).string()) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// 1-4 random fault specs drawn from the full op x kind grid.
void ScheduleRandomFaults(Rng* rng, FaultInjectingEnv* env) {
  const FaultSpec::Op ops[] = {FaultSpec::Op::kRead, FaultSpec::Op::kWrite,
                               FaultSpec::Op::kSync, FaultSpec::Op::kOpen};
  const FaultSpec::Kind kinds[] = {
      FaultSpec::Kind::kFail, FaultSpec::Kind::kEintr,
      FaultSpec::Kind::kShortWrite, FaultSpec::Kind::kBitFlip,
      FaultSpec::Kind::kFsyncFail};
  const int n = static_cast<int>(rng->UniformInt(1, 4));
  for (int i = 0; i < n; ++i) {
    FaultSpec spec;
    spec.op = ops[rng->UniformInt(0, 3)];
    spec.kind = kinds[rng->UniformInt(0, 4)];
    spec.nth = static_cast<int>(rng->UniformInt(0, 40));
    spec.sticky = rng->Bernoulli(0.25);
    env->AddFault(spec);
  }
}

Table SmallTable(Rng* rng, size_t rows) {
  Table t{Schema({{"id", DataType::kInt64},
                  {"v", DataType::kDouble},
                  {"tag", DataType::kString}})};
  const char* tags[] = {"a", "b", "c"};
  for (size_t r = 0; r < rows; ++r) {
    t.AppendRowUnchecked({Value(static_cast<int64_t>(r)),
                          Value(rng->Uniform(-10.0, 10.0)),
                          Value(tags[rng->UniformInt(0, 2)])});
  }
  return t;
}

/// Status is either OK or carries a code and a message — the "structured"
/// half of the never-crash invariant.
void ExpectStructured(const Status& s, const char* where, int seed) {
  if (s.ok()) return;
  EXPECT_NE(s.code(), StatusCode::kOk) << where << " seed " << seed;
  EXPECT_FALSE(s.message().empty()) << where << " seed " << seed;
}

// Block store: write under faults; when the write claims success, open
// and scan under (possibly still-armed) faults. Accessors must never
// crash; the fault channel must report reads the placeholder lanes hid.
TEST(FaultInjectionTest, BlockStoreSurvivesRandomFaultSchedules) {
  for (int seed = 0; seed < kSchedules; ++seed) {
    Rng rng(1000 + seed);
    TempDir dir(StrCat("paql_fault_bs_", seed));
    const std::string path = dir.path() + "/store.pqb";
    const Table t = SmallTable(&rng, 2000);

    FaultInjectingEnv env;
    ScheduleRandomFaults(&rng, &env);

    BlockStoreOptions wopts;
    wopts.compress = rng.Bernoulli(0.5);
    wopts.env = &env;
    Status written = WriteBlockStore(t, path, wopts);
    ExpectStructured(written, "write", seed);
    if (!written.ok()) continue;  // a failed write reported itself: done

    DiskRetryOptions retry;
    retry.backoff_initial_us = 1;
    auto disk = DiskTable::Open(path, nullptr, &env, retry);
    ExpectStructured(disk.status(), "open", seed);
    if (!disk.ok()) continue;

    // Scan every cell. Poison lanes are legal under armed faults; the
    // accessors themselves must stay defined and in-bounds.
    for (RowId r = 0; r < t.num_rows(); r += 7) {
      (void)(*disk)->IsNull(r, 0);
      if (!(*disk)->IsNull(r, 0)) (void)(*disk)->GetInt64(r, 0);
      if (!(*disk)->IsNull(r, 1)) (void)(*disk)->GetDouble(r, 1);
      if (!(*disk)->IsNull(r, 2)) (void)(*disk)->GetString(r, 2);
    }
    Status scan_err = (*disk)->ConsumeError();
    ExpectStructured(scan_err, "scan", seed);
    if (env.faults_fired() == 0) {
      // No fault actually fired: the data must be exactly right.
      EXPECT_TRUE(scan_err.ok()) << scan_err << " seed " << seed;
      for (RowId r = 0; r < t.num_rows(); r += 97) {
        ASSERT_EQ(t.GetInt64(r, 0), (*disk)->GetInt64(r, 0)) << "seed " << seed;
        ASSERT_EQ(t.GetDouble(r, 1), (*disk)->GetDouble(r, 1))
            << "seed " << seed;
        ASSERT_EQ(t.GetString(r, 2), (*disk)->GetString(r, 2))
            << "seed " << seed;
      }
    }
  }
}

// WAL: append a handful of records under faults, then replay with a
// clean env. Every append either succeeds or reports; replay of whatever
// landed must return a prefix of the appended records, in order.
TEST(FaultInjectionTest, WalAppendAndReplaySurviveRandomFaultSchedules) {
  for (int seed = 0; seed < kSchedules; ++seed) {
    Rng rng(5000 + seed);
    TempDir dir(StrCat("paql_fault_wal_", seed));

    FaultInjectingEnv env;
    WalOptions opts;
    opts.dir = dir.path();
    opts.env = &env;
    opts.sync = rng.Bernoulli(0.5) ? WalSync::kAlways : WalSync::kBatch;
    opts.sync_every_n = 2;
    opts.segment_bytes = 512;  // force rotations into the fault window

    auto writer = WalWriter::Open(opts);
    // Faults armed after Open; the first segment opens under them, on the
    // first append, so a schedule may also leave no log at all.
    ScheduleRandomFaults(&rng, &env);
    int acked = 0;
    if (writer.ok()) {
      const int appends = static_cast<int>(rng.UniformInt(4, 24));
      for (int i = 0; i < appends; ++i) {
        WalRecord record;
        record.kind = WalRecord::Kind::kWatch;
        record.watch_id = static_cast<uint64_t>(i + 1);
        record.query = StrCat("SELECT PACKAGE(R) AS P FROM R -- ", seed,
                              ":", i);
        Status appended = (*writer)->Append(record);
        ExpectStructured(appended, "append", seed);
        if (!appended.ok()) break;  // the writer is now poisoned: stop
        ++acked;
      }
    } else {
      ExpectStructured(writer.status(), "wal-open", seed);
      continue;
    }

    // Replay with a clean env: whatever the fault schedule did to the
    // tail, recovery must see an ordered prefix of the acked records
    // (a torn tail may also surface unacked bytes of the failed append —
    // never *more* Watch records than were attempted).
    WalOptions replay_opts = opts;
    replay_opts.env = nullptr;  // clean env: the disk is what it is
    std::vector<WalRecord> replayed;
    auto stats = ReplayWal(replay_opts, [&](const WalRecord& r) {
      replayed.push_back(r);
      return Status::OK();
    });
    if (!stats.ok()) {
      ExpectStructured(stats.status(), "replay", seed);
      continue;
    }
    for (size_t i = 0; i < replayed.size(); ++i) {
      ASSERT_EQ(replayed[i].watch_id, i + 1) << "seed " << seed;
    }
    // Sync'd records survive: with kAlways every acked append is durable.
    if (opts.sync == WalSync::kAlways) {
      EXPECT_GE(replayed.size(), static_cast<size_t>(acked))
          << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace paql::relation
