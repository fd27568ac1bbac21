// The write-ahead log: record encoding round-trips, frame/CRC layout,
// segment rotation, torn-tail handling (the crash signature), sync
// policies, fault injection against appends, and Session-level durability
// — ApplyUpdates/Watch/Unwatch logged and replayed so a recovered session
// answers exactly like one that never went down.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/env.h"
#include "engine/engine.h"
#include "relation/table.h"
#include "relation/table_version.h"
#include "relation/wal.h"

namespace paql::relation {
namespace {

/// A fresh directory under the system temp dir, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_((std::filesystem::temp_directory_path() / name).string()) {
    std::filesystem::remove_all(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

WalRecord DeltaRecord(const std::string& table, uint64_t base_version) {
  WalRecord r;
  r.kind = WalRecord::Kind::kDelta;
  r.table = table;
  r.base_version = base_version;
  return r;
}

std::vector<WalRecord> Replayed(const WalOptions& options,
                                WalReplayStats* stats = nullptr) {
  std::vector<WalRecord> records;
  auto replayed = ReplayWal(options, [&](const WalRecord& r) {
    records.push_back(r);
    return Status::OK();
  });
  EXPECT_TRUE(replayed.ok()) << replayed.status();
  if (stats != nullptr && replayed.ok()) *stats = *replayed;
  return records;
}

// ---------------------------------------------------------------------------
// Record encoding
// ---------------------------------------------------------------------------

TEST(WalRecordTest, DeltaRoundTripsEveryValueKind) {
  WalRecord r = DeltaRecord("measurements", 41);
  r.delta.Insert({Value(int64_t{-7}), Value(3.25), Value(std::string("abc")),
                  Value::Null()});
  r.delta.Insert({Value(int64_t{1} << 60), Value(-0.0),
                  Value(std::string("")), Value(std::string("x\ny"))});
  r.delta.Delete(0);
  r.delta.Delete(123456789);

  std::vector<uint8_t> payload = EncodeWalRecord(r);
  auto decoded = DecodeWalRecord(payload.data(), payload.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->kind, WalRecord::Kind::kDelta);
  EXPECT_EQ(decoded->table, "measurements");
  EXPECT_EQ(decoded->base_version, 41u);
  ASSERT_EQ(decoded->delta.inserts.size(), 2u);
  EXPECT_EQ(decoded->delta.inserts[0][0].AsInt64(), -7);
  EXPECT_EQ(decoded->delta.inserts[0][1].AsDouble(), 3.25);
  EXPECT_EQ(decoded->delta.inserts[0][2].AsString(), "abc");
  EXPECT_TRUE(decoded->delta.inserts[0][3].is_null());
  EXPECT_EQ(decoded->delta.inserts[1][0].AsInt64(), int64_t{1} << 60);
  // Bit-exact doubles (signed zero survives).
  EXPECT_TRUE(std::signbit(decoded->delta.inserts[1][1].AsDouble()));
  EXPECT_EQ(decoded->delta.inserts[1][3].AsString(), "x\ny");
  ASSERT_EQ(decoded->delta.deletes.size(), 2u);
  EXPECT_EQ(decoded->delta.deletes[1], RowId{123456789});
}

TEST(WalRecordTest, WatchAndUnwatchRoundTrip) {
  WalRecord w;
  w.kind = WalRecord::Kind::kWatch;
  w.watch_id = 42;
  w.query = "SELECT PACKAGE(R) AS P FROM R SUCH THAT COUNT(P.*) = 1";
  std::vector<uint8_t> payload = EncodeWalRecord(w);
  auto decoded = DecodeWalRecord(payload.data(), payload.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->kind, WalRecord::Kind::kWatch);
  EXPECT_EQ(decoded->watch_id, 42u);
  EXPECT_EQ(decoded->query, w.query);

  WalRecord u;
  u.kind = WalRecord::Kind::kUnwatch;
  u.watch_id = 42;
  payload = EncodeWalRecord(u);
  decoded = DecodeWalRecord(payload.data(), payload.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->kind, WalRecord::Kind::kUnwatch);
  EXPECT_EQ(decoded->watch_id, 42u);
}

TEST(WalRecordTest, DecodeRejectsGarbage) {
  // Empty, unknown kind, and truncated payloads all fail as Corruption,
  // never crash.
  EXPECT_TRUE(DecodeWalRecord(nullptr, 0).status().IsCorruption());
  uint8_t unknown[] = {99};
  EXPECT_TRUE(DecodeWalRecord(unknown, 1).status().IsCorruption());
  WalRecord r = DeltaRecord("t", 0);
  r.delta.Insert({Value(int64_t{5})});
  std::vector<uint8_t> payload = EncodeWalRecord(r);
  for (size_t cut = 1; cut < payload.size(); ++cut) {
    auto decoded = DecodeWalRecord(payload.data(), cut);
    EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
  }
}

// ---------------------------------------------------------------------------
// Writer + replay
// ---------------------------------------------------------------------------

TEST(WalWriterTest, AppendThenReplayReturnsRecordsInOrder) {
  TempDir dir("paql_wal_order");
  WalOptions options;
  options.dir = dir.path();
  options.sync = WalSync::kNone;
  auto writer = WalWriter::Open(options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (int i = 0; i < 10; ++i) {
    WalRecord r = DeltaRecord("t", static_cast<uint64_t>(i));
    r.delta.Insert({Value(int64_t{i})});
    ASSERT_TRUE((*writer)->Append(r).ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());

  WalReplayStats stats;
  std::vector<WalRecord> records = Replayed(options, &stats);
  ASSERT_EQ(records.size(), 10u);
  EXPECT_EQ(stats.records, 10u);
  EXPECT_FALSE(stats.torn_tail);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(records[i].base_version, static_cast<uint64_t>(i));
    EXPECT_EQ(records[i].delta.inserts[0][0].AsInt64(), i);
  }
}

TEST(WalWriterTest, ReplayOfMissingOrEmptyDirIsEmpty) {
  TempDir dir("paql_wal_empty");
  WalOptions options;
  options.dir = dir.path();
  EXPECT_TRUE(Replayed(options).empty());
  std::filesystem::create_directories(dir.path());
  EXPECT_TRUE(Replayed(options).empty());
}

TEST(WalWriterTest, RotatesSegmentsAndReplaysAcrossThem) {
  TempDir dir("paql_wal_rotate");
  WalOptions options;
  options.dir = dir.path();
  options.sync = WalSync::kNone;
  options.segment_bytes = 256;  // rotate every few records
  auto writer = WalWriter::Open(options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (int i = 0; i < 50; ++i) {
    WalRecord r = DeltaRecord("table_with_a_longish_name",
                              static_cast<uint64_t>(i));
    r.delta.Insert({Value(int64_t{i}), Value(double(i)),
                    Value(std::string(20, 'x'))});
    ASSERT_TRUE((*writer)->Append(r).ok());
  }
  EXPECT_GT((*writer)->segments_opened(), 3u);
  ASSERT_TRUE((*writer)->Close().ok());

  WalReplayStats stats;
  std::vector<WalRecord> records = Replayed(options, &stats);
  ASSERT_EQ(records.size(), 50u);
  EXPECT_EQ(stats.segments, (*writer)->segments_opened());
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(records[i].base_version, static_cast<uint64_t>(i));
  }
}

/// Segment files in `dir` (0 when it does not exist).
size_t CountSegmentFiles(const std::string& dir) {
  if (!std::filesystem::exists(dir)) return 0;
  size_t segments = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++segments;
  }
  return segments;
}

TEST(WalWriterTest, ReopenStartsAFreshSegmentAndKeepsOldRecords) {
  TempDir dir("paql_wal_reopen");
  WalOptions options;
  options.dir = dir.path();
  options.sync = WalSync::kNone;
  {
    auto writer = WalWriter::Open(options);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE((*writer)->Append(DeltaRecord("t", 0)).ok());
  }
  {
    auto writer = WalWriter::Open(options);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE((*writer)->Append(DeltaRecord("t", 1)).ok());
  }
  std::vector<WalRecord> records = Replayed(options);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].base_version, 0u);
  EXPECT_EQ(records[1].base_version, 1u);
  // Two incarnations, two segments — Open never appends into old files.
  EXPECT_EQ(CountSegmentFiles(dir.path()), 2u);
}

TEST(WalWriterTest, OpenWithoutAppendCreatesNoSegment) {
  // Every server start opens a writer; a start that logs nothing must not
  // leave a header-only segment behind.
  TempDir dir("paql_wal_lazy");
  WalOptions options;
  options.dir = dir.path();
  options.sync = WalSync::kNone;
  {
    auto writer = WalWriter::Open(options);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE((*writer)->Append(DeltaRecord("t", 0)).ok());
  }
  ASSERT_EQ(CountSegmentFiles(dir.path()), 1u);
  for (int start = 0; start < 3; ++start) {
    auto writer = WalWriter::Open(options);
    ASSERT_TRUE(writer.ok()) << writer.status();
    EXPECT_TRUE((*writer)->Sync().ok());
    EXPECT_EQ((*writer)->segments_opened(), 0u);
    ASSERT_TRUE((*writer)->Close().ok());
    // A closed writer still refuses records.
    EXPECT_FALSE((*writer)->Append(DeltaRecord("t", 1)).ok());
    EXPECT_FALSE((*writer)->Sync().ok());
  }
  EXPECT_EQ(CountSegmentFiles(dir.path()), 1u);

  // The next record after those restarts opens a fresh segment.
  {
    auto writer = WalWriter::Open(options);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE((*writer)->Append(DeltaRecord("t", 1)).ok());
    EXPECT_EQ((*writer)->segments_opened(), 1u);
  }
  EXPECT_EQ(CountSegmentFiles(dir.path()), 2u);
  std::vector<WalRecord> records = Replayed(options);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].base_version, 1u);
}

TEST(WalWriterTest, SyncPolicies) {
  for (WalSync sync : {WalSync::kAlways, WalSync::kBatch, WalSync::kNone}) {
    TempDir dir("paql_wal_sync");
    WalOptions options;
    options.dir = dir.path();
    options.sync = sync;
    options.sync_every_n = 4;
    auto writer = WalWriter::Open(options);
    ASSERT_TRUE(writer.ok()) << writer.status();
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE((*writer)->Append(DeltaRecord("t", 0)).ok());
    }
    const uint64_t syncs = (*writer)->syncs();
    switch (sync) {
      case WalSync::kAlways:
        EXPECT_EQ(syncs, 10u);
        break;
      case WalSync::kBatch:
        EXPECT_EQ(syncs, 2u);  // after records 4 and 8
        break;
      case WalSync::kNone:
        EXPECT_EQ(syncs, 0u);
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Torn tails and corruption
// ---------------------------------------------------------------------------

/// Write `n` records, close cleanly, then truncate the last segment to
/// `keep_fraction` of its size.
std::string LastSegmentPath(const std::string& dir) {
  std::string last;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::string p = entry.path().string();
    if (last.empty() || p > last) last = p;
  }
  return last;
}

TEST(WalReplayTest, TornTailInLastSegmentEndsTheLogCleanly) {
  TempDir dir("paql_wal_torn");
  WalOptions options;
  options.dir = dir.path();
  options.sync = WalSync::kNone;
  {
    auto writer = WalWriter::Open(options);
    ASSERT_TRUE(writer.ok()) << writer.status();
    for (int i = 0; i < 8; ++i) {
      WalRecord r = DeltaRecord("t", static_cast<uint64_t>(i));
      r.delta.Insert({Value(std::string(64, 'p'))});
      ASSERT_TRUE((*writer)->Append(r).ok());
    }
  }
  const std::string segment = LastSegmentPath(dir.path());
  const auto full_size = std::filesystem::file_size(segment);
  // All 8 records serialize to the same length (fixed-width version, same
  // payload), so record boundaries sit at header + k * record_bytes.
  const uintmax_t header = 8;
  const uintmax_t record_bytes = (full_size - header) / 8;
  // Chop the file at every offset: replay must never fail, must return an
  // in-order prefix, and must flag a torn tail unless the cut landed
  // exactly on a record boundary (a clean end).
  size_t last_count = 8;
  for (uintmax_t keep = full_size - 1; keep > header; keep -= 7) {
    std::filesystem::resize_file(segment, keep);
    WalReplayStats stats;
    std::vector<WalRecord> records = Replayed(options, &stats);
    EXPECT_LE(records.size(), last_count);
    last_count = records.size();
    const bool on_boundary = (keep - header) % record_bytes == 0;
    EXPECT_EQ(stats.torn_tail, !on_boundary) << "keep=" << keep;
    EXPECT_EQ(records.size(), (keep - header) / record_bytes);
    for (size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].base_version, i);  // an intact prefix, in order
    }
  }
}

TEST(WalReplayTest, BitFlipInLastSegmentTailIsATornTail) {
  TempDir dir("paql_wal_flip_tail");
  WalOptions options;
  options.dir = dir.path();
  options.sync = WalSync::kNone;
  {
    auto writer = WalWriter::Open(options);
    ASSERT_TRUE(writer.ok()) << writer.status();
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE((*writer)->Append(DeltaRecord("t", i)).ok());
    }
  }
  const std::string segment = LastSegmentPath(dir.path());
  // Flip a bit in the last record's payload.
  std::fstream f(segment,
                 std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::streamoff>(f.tellg());
  f.seekp(size - 2);
  char byte = 0;
  f.seekg(size - 2);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(size - 2);
  f.write(&byte, 1);
  f.close();

  WalReplayStats stats;
  std::vector<WalRecord> records = Replayed(options, &stats);
  EXPECT_EQ(records.size(), 3u);  // last record dropped
  EXPECT_TRUE(stats.torn_tail);
}

TEST(WalReplayTest, CorruptionInNonFinalSegmentFailsRecovery) {
  TempDir dir("paql_wal_mid_corrupt");
  WalOptions options;
  options.dir = dir.path();
  options.sync = WalSync::kNone;
  {
    auto writer = WalWriter::Open(options);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE((*writer)->Append(DeltaRecord("t", 0)).ok());
  }
  std::string first_segment = LastSegmentPath(dir.path());
  {
    // Second incarnation, second segment: the first is now non-final.
    auto writer = WalWriter::Open(options);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE((*writer)->Append(DeltaRecord("t", 1)).ok());
  }
  std::filesystem::resize_file(
      first_segment, std::filesystem::file_size(first_segment) - 3);
  auto replayed = ReplayWal(options, [](const WalRecord&) {
    return Status::OK();
  });
  ASSERT_FALSE(replayed.ok());
  EXPECT_TRUE(replayed.status().IsCorruption()) << replayed.status();
}

TEST(WalReplayTest, TornTailIsCutBeforeTheNextIncarnationAppends) {
  // A torn final record is the clean end of the log only while its
  // segment is final. The next writer must cut it off before it starts a
  // new segment, or the replay after that fails on a torn frame in the
  // middle of the log.
  TempDir dir("paql_wal_torn_reopen");
  WalOptions options;
  options.dir = dir.path();
  options.sync = WalSync::kNone;
  {
    auto writer = WalWriter::Open(options);
    ASSERT_TRUE(writer.ok()) << writer.status();
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*writer)->Append(DeltaRecord("t", i)).ok());
    }
  }
  const std::string torn_segment = LastSegmentPath(dir.path());
  const auto intact_size = std::filesystem::file_size(torn_segment);
  {
    // The crash: three bytes of a fourth frame reached the disk.
    std::ofstream tail(torn_segment, std::ios::binary | std::ios::app);
    tail.write("\x01\x02\x03", 3);
  }
  WalReplayStats stats;
  EXPECT_EQ(Replayed(options, &stats).size(), 3u);
  EXPECT_TRUE(stats.torn_tail);

  {
    auto writer = WalWriter::Open(options);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE((*writer)->Append(DeltaRecord("t", 3)).ok());
  }
  EXPECT_EQ(std::filesystem::file_size(torn_segment), intact_size);
  EXPECT_EQ(CountSegmentFiles(dir.path()), 2u);
  for (int replay = 0; replay < 2; ++replay) {
    std::vector<WalRecord> records = Replayed(options, &stats);
    ASSERT_EQ(records.size(), 4u);
    for (size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].base_version, i);
    }
    EXPECT_FALSE(stats.torn_tail);
  }
}

// ---------------------------------------------------------------------------
// Fault injection against the writer
// ---------------------------------------------------------------------------

TEST(WalFaultTest, FailedAppendSurfacesAndLogStaysReplayable) {
  TempDir dir("paql_wal_fault_append");
  FaultInjectingEnv env;
  WalOptions options;
  options.dir = dir.path();
  options.sync = WalSync::kNone;
  options.env = &env;
  auto writer = WalWriter::Open(options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE((*writer)->Append(DeltaRecord("t", 0)).ok());

  // Tear the next append mid-record: a prefix lands, the call fails.
  FaultSpec tear;
  tear.op = FaultSpec::Op::kWrite;
  tear.kind = FaultSpec::Kind::kShortWrite;
  tear.nth = static_cast<int>(env.writes_seen());
  env.AddFault(tear);
  EXPECT_FALSE((*writer)->Append(DeltaRecord("t", 1)).ok());

  // The writer cut the torn frame off: replay sees the intact record and
  // a clean end.
  options.env = nullptr;
  WalReplayStats stats;
  std::vector<WalRecord> records = Replayed(options, &stats);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].base_version, 0u);
  EXPECT_FALSE(stats.torn_tail);
}

TEST(WalFaultTest, RecordsAcknowledgedAfterAShortWriteAreReplayed) {
  // Record 1's write lands only a prefix. Record 2, acknowledged after
  // it, must not sit behind the torn frame, where replay would stop.
  TempDir dir("paql_wal_fault_short_write");
  FaultInjectingEnv env;
  WalOptions options;
  options.dir = dir.path();
  options.sync = WalSync::kNone;
  options.env = &env;
  auto writer = WalWriter::Open(options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE((*writer)->Append(DeltaRecord("t", 0)).ok());
  FaultSpec tear;
  tear.op = FaultSpec::Op::kWrite;
  tear.kind = FaultSpec::Kind::kShortWrite;
  tear.nth = static_cast<int>(env.writes_seen());
  env.AddFault(tear);
  EXPECT_FALSE((*writer)->Append(DeltaRecord("t", 1)).ok());
  ASSERT_TRUE((*writer)->Append(DeltaRecord("t", 2)).ok());
  ASSERT_TRUE((*writer)->Close().ok());

  options.env = nullptr;
  WalReplayStats stats;
  std::vector<uint64_t> replayed;
  for (const WalRecord& r : Replayed(options, &stats)) {
    replayed.push_back(r.base_version);
  }
  EXPECT_EQ(replayed, (std::vector<uint64_t>{0, 2}));
  EXPECT_FALSE(stats.torn_tail);
}

TEST(WalFaultTest, RecordRefusedForAFailedFsyncIsNeverReplayed) {
  // Under kAlways the record is in the segment when its fsync fails; the
  // refusal must take it out again.
  TempDir dir("paql_wal_fault_fsync_refused");
  FaultInjectingEnv env;
  WalOptions options;
  options.dir = dir.path();
  options.sync = WalSync::kAlways;
  options.env = &env;
  auto writer = WalWriter::Open(options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  FaultSpec spec;
  spec.op = FaultSpec::Op::kSync;
  spec.kind = FaultSpec::Kind::kFsyncFail;
  spec.nth = static_cast<int>(env.syncs_seen());
  env.AddFault(spec);
  EXPECT_FALSE((*writer)->Append(DeltaRecord("t", 0)).ok());
  ASSERT_TRUE((*writer)->Append(DeltaRecord("t", 1)).ok());
  ASSERT_TRUE((*writer)->Close().ok());

  options.env = nullptr;
  std::vector<uint64_t> replayed;
  for (const WalRecord& r : Replayed(options)) {
    replayed.push_back(r.base_version);
  }
  EXPECT_EQ(replayed, (std::vector<uint64_t>{1}));
}

TEST(WalFaultTest, FailedCutEndsTheWriter) {
  // A short write is refused, and the cut that should take its prefix
  // out cannot open its temp file: the writer must refuse everything
  // after, or a later record would land behind the torn frame.
  TempDir dir("paql_wal_fault_cut");
  FaultInjectingEnv env;
  WalOptions options;
  options.dir = dir.path();
  options.sync = WalSync::kNone;
  options.env = &env;
  auto writer = WalWriter::Open(options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE((*writer)->Append(DeltaRecord("t", 0)).ok());
  FaultSpec tear;
  tear.op = FaultSpec::Op::kWrite;
  tear.kind = FaultSpec::Kind::kShortWrite;
  tear.nth = static_cast<int>(env.writes_seen());
  env.AddFault(tear);
  FaultSpec no_temp;
  no_temp.op = FaultSpec::Op::kOpen;
  no_temp.kind = FaultSpec::Kind::kFail;
  no_temp.sticky = true;
  no_temp.path_substr = ".repair";
  env.AddFault(no_temp);
  EXPECT_FALSE((*writer)->Append(DeltaRecord("t", 1)).ok());
  EXPECT_FALSE((*writer)->Append(DeltaRecord("t", 2)).ok());
  EXPECT_FALSE((*writer)->Sync().ok());

  options.env = nullptr;
  std::vector<uint64_t> replayed;
  for (const WalRecord& r : Replayed(options)) {
    replayed.push_back(r.base_version);
  }
  EXPECT_EQ(replayed, (std::vector<uint64_t>{0}));
}

TEST(WalFaultTest, FsyncFailureSurfacesThroughAppend) {
  TempDir dir("paql_wal_fault_fsync");
  FaultInjectingEnv env;
  WalOptions options;
  options.dir = dir.path();
  options.sync = WalSync::kAlways;
  options.env = &env;
  auto writer = WalWriter::Open(options);
  ASSERT_TRUE(writer.ok()) << writer.status();

  FaultSpec spec;
  spec.op = FaultSpec::Op::kSync;
  spec.kind = FaultSpec::Kind::kFsyncFail;
  spec.nth = static_cast<int>(env.syncs_seen());
  env.AddFault(spec);
  Status failed = (*writer)->Append(DeltaRecord("t", 0));
  EXPECT_FALSE(failed.ok());
  EXPECT_TRUE(failed.IsRetryable()) << failed;
  // The next append (fault spent) succeeds again.
  EXPECT_TRUE((*writer)->Append(DeltaRecord("t", 1)).ok());
}

TEST(WalFaultTest, FailedRotationNeverRefusesALoggedRecord) {
  // With 16-byte segments every record rotates. When the rotation's fsync
  // fails, the record before it is already in the log: Append must
  // acknowledge it and refuse what comes after, so that replay returns
  // exactly the acknowledged records.
  TempDir dir("paql_wal_fault_rotation");
  FaultInjectingEnv env;
  WalOptions options;
  options.dir = dir.path();
  options.sync = WalSync::kNone;  // the only fsyncs are the rotations'
  options.segment_bytes = 16;
  options.env = &env;
  auto writer = WalWriter::Open(options);
  ASSERT_TRUE(writer.ok()) << writer.status();

  std::vector<uint64_t> acknowledged, refused;
  auto append = [&](uint64_t version) {
    if ((*writer)->Append(DeltaRecord("t", version)).ok()) {
      acknowledged.push_back(version);
    } else {
      refused.push_back(version);
    }
  };
  append(0);
  append(1);
  FaultSpec spec;
  spec.op = FaultSpec::Op::kSync;
  spec.kind = FaultSpec::Kind::kFsyncFail;
  spec.nth = static_cast<int>(env.syncs_seen());
  env.AddFault(spec);
  for (uint64_t version = 2; version < 6; ++version) append(version);
  EXPECT_EQ(env.faults_fired(), 1);
  EXPECT_EQ(acknowledged, (std::vector<uint64_t>{0, 1, 2}));
  EXPECT_EQ(refused, (std::vector<uint64_t>{3, 4, 5}));
  // The rotation error sticks to Sync and Close too.
  EXPECT_FALSE((*writer)->Sync().ok());
  EXPECT_FALSE((*writer)->Close().ok());

  options.env = nullptr;
  std::vector<uint64_t> replayed;
  for (const WalRecord& r : Replayed(options)) {
    replayed.push_back(r.base_version);
  }
  EXPECT_EQ(replayed, acknowledged);
}

// ---------------------------------------------------------------------------
// Session-level durability
// ---------------------------------------------------------------------------

Table SmallTable() {
  Table t{Schema({{"id", DataType::kInt64}, {"v", DataType::kDouble}})};
  for (int i = 0; i < 8; ++i) {
    t.AppendRow({Value(int64_t{i}), Value(double(i) + 0.5)});
  }
  return t;
}

constexpr char kCountQuery[] =
    "SELECT PACKAGE(R) AS P FROM R REPEAT 0 "
    "SUCH THAT COUNT(P.*) = 2 MINIMIZE SUM(P.v)";

TEST(SessionDurabilityTest, RecoveredSessionMatchesLiveSession) {
  TempDir dir("paql_wal_session");
  WalOptions wal;
  wal.dir = dir.path();
  wal.sync = WalSync::kAlways;

  EngineOptions eo;
  eo.exec.threads = 1;

  // Live session: durable, applies three batches and registers a watch.
  auto live = Engine::Open(SmallTable(), "R", eo);
  ASSERT_TRUE(live.ok()) << live.status();
  ASSERT_TRUE(live->EnableDurability(wal).ok());
  auto watch_id = live->Watch(kCountQuery);
  ASSERT_TRUE(watch_id.ok()) << watch_id.status();
  for (int batch = 0; batch < 3; ++batch) {
    relation::TableDelta delta;
    delta.Insert({Value(int64_t{100 + batch}), Value(0.25 * batch)});
    if (batch == 1) delta.Delete(0);
    auto applied = live->ApplyUpdates("R", delta);
    ASSERT_TRUE(applied.ok()) << applied.status();
  }
  auto live_result = live->Execute(kCountQuery);
  ASSERT_TRUE(live_result.ok()) << live_result.status();
  EXPECT_EQ(live->wal()->records_appended(), 4u);  // 1 watch + 3 deltas

  // Recovered session: same base table, replayed log.
  auto recovered = Engine::Open(SmallTable(), "R", eo);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  auto stats = recovered->RecoverFromWal(wal);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->records, 4u);
  EXPECT_FALSE(stats->torn_tail);

  // Same table version, same live rows, same query answer.
  auto live_table = live->GetTable("R");
  auto rec_table = recovered->GetTable("R");
  ASSERT_TRUE(live_table.ok() && rec_table.ok());
  auto live_v =
      std::dynamic_pointer_cast<const TableVersion>(*live_table);
  auto rec_v = std::dynamic_pointer_cast<const TableVersion>(*rec_table);
  ASSERT_NE(live_v, nullptr);
  ASSERT_NE(rec_v, nullptr);
  EXPECT_EQ(live_v->version(), rec_v->version());
  EXPECT_EQ(live_v->num_live_rows(), rec_v->num_live_rows());

  auto rec_result = recovered->Execute(kCountQuery);
  ASSERT_TRUE(rec_result.ok()) << rec_result.status();
  EXPECT_EQ(live_result->package.rows, rec_result->package.rows);
  EXPECT_EQ(live_result->package.multiplicity,
            rec_result->package.multiplicity);
  EXPECT_EQ(live_result->objective, rec_result->objective);

  // The standing query came back under its original id, fresh.
  auto sq = recovered->GetStandingQuery(*watch_id);
  ASSERT_TRUE(sq.ok()) << sq.status();
  auto live_sq = live->GetStandingQuery(*watch_id);
  ASSERT_TRUE(live_sq.ok());
  EXPECT_EQ(sq->valid, live_sq->valid);
  EXPECT_EQ(sq->package.rows, live_sq->package.rows);
  EXPECT_EQ(sq->version, live_sq->version);
}

TEST(SessionDurabilityTest, UnwatchIsDurable) {
  TempDir dir("paql_wal_unwatch");
  WalOptions wal;
  wal.dir = dir.path();
  wal.sync = WalSync::kAlways;
  EngineOptions eo;
  eo.exec.threads = 1;

  {
    auto live = Engine::Open(SmallTable(), "R", eo);
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE(live->EnableDurability(wal).ok());
    auto first = live->Watch(kCountQuery);
    ASSERT_TRUE(first.ok());
    auto second = live->Watch(kCountQuery);
    ASSERT_TRUE(second.ok());
    EXPECT_TRUE(live->Unwatch(*first));
  }
  auto recovered = Engine::Open(SmallTable(), "R", eo);
  ASSERT_TRUE(recovered.ok());
  ASSERT_TRUE(recovered->RecoverFromWal(wal).ok());
  EXPECT_EQ(recovered->standing_queries().size(), 1u);
  // New watches after recovery never collide with replayed ids.
  auto next = recovered->Watch(kCountQuery);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 3u);
}

TEST(SessionDurabilityTest, ReplayAgainstWrongBaseFailsWithCorruption) {
  TempDir dir("paql_wal_wrong_base");
  WalOptions wal;
  wal.dir = dir.path();
  EngineOptions eo;
  eo.exec.threads = 1;
  {
    auto live = Engine::Open(SmallTable(), "R", eo);
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE(live->EnableDurability(wal).ok());
    relation::TableDelta delta;
    delta.Insert({Value(int64_t{9}), Value(1.0)});
    ASSERT_TRUE(live->ApplyUpdates("R", delta).ok());
    ASSERT_TRUE(live->ApplyUpdates("R", delta).ok());
  }
  // Recover, then recover AGAIN into the same session: the second replay's
  // first delta expects version 0 but the table is at 2.
  auto recovered = Engine::Open(SmallTable(), "R", eo);
  ASSERT_TRUE(recovered.ok());
  ASSERT_TRUE(recovered->RecoverFromWal(wal).ok());
  auto again = recovered->RecoverFromWal(wal);
  ASSERT_FALSE(again.ok());
  EXPECT_TRUE(again.status().IsCorruption()) << again.status();
}

}  // namespace
}  // namespace paql::relation
