#include "relation/wal.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/crc32.h"
#include "common/str_util.h"
#include "relation/coding.h"

namespace paql::relation {
namespace {

constexpr char kWalMagic[4] = {'P', 'Q', 'W', 'L'};
constexpr uint32_t kWalVersion = 1;
constexpr size_t kSegmentHeaderBytes = sizeof(kWalMagic) + sizeof(uint32_t);
constexpr size_t kFrameBytes = 2 * sizeof(uint32_t);  // crc + len
/// Sanity bound on one record's payload (a delta batch is row-granular;
/// anything near this is a corrupt length field, not a real record).
constexpr uint32_t kMaxRecordBytes = 1u << 30;

constexpr char kSegmentPrefix[] = "wal-";
constexpr char kSegmentSuffix[] = ".log";

std::string SegmentName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%06llu.log",
                static_cast<unsigned long long>(seq));
  return buf;
}

/// Parse "wal-NNNNNN.log" -> seq; 0 when the name is not a segment.
uint64_t SegmentSeq(const std::string& name) {
  const size_t prefix = sizeof(kSegmentPrefix) - 1;
  const size_t suffix = sizeof(kSegmentSuffix) - 1;
  if (name.size() <= prefix + suffix) return 0;
  if (name.compare(0, prefix, kSegmentPrefix) != 0) return 0;
  if (name.compare(name.size() - suffix, suffix, kSegmentSuffix) != 0) {
    return 0;
  }
  uint64_t seq = 0;
  for (size_t i = prefix; i < name.size() - suffix; ++i) {
    if (name[i] < '0' || name[i] > '9') return 0;
    seq = seq * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return seq;
}

/// Sorted sequence numbers of the segments present in `dir` (empty when
/// the directory is missing — a fresh database has no log yet).
Result<std::vector<uint64_t>> ListSegments(Env* env, const std::string& dir) {
  if (!env->FileExists(dir)) return std::vector<uint64_t>{};
  PAQL_ASSIGN_OR_RETURN(std::vector<std::string> names, env->ListDir(dir));
  std::vector<uint64_t> seqs;
  for (const std::string& name : names) {
    const uint64_t seq = SegmentSeq(name);
    if (seq != 0) seqs.push_back(seq);
  }
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

void PutString(std::vector<uint8_t>* out, const std::string& s) {
  PutVarint(out, s.size());
  out->insert(out->end(), s.begin(), s.end());
}

bool GetString(const uint8_t* data, size_t size, size_t* at, std::string* s) {
  uint64_t len = 0;
  if (!GetVarint(data, size, at, &len) || *at + len > size) return false;
  s->assign(reinterpret_cast<const char*>(data + *at),
            static_cast<size_t>(len));
  *at += len;
  return true;
}

// Value tags inside a delta payload.
enum : uint8_t {
  kValNull = 0,
  kValInt64 = 1,
  kValDouble = 2,
  kValString = 3,
};

void PutValue(std::vector<uint8_t>* out, const Value& v) {
  if (v.is_null()) {
    PutScalar<uint8_t>(out, kValNull);
  } else if (v.is_int64()) {
    PutScalar<uint8_t>(out, kValInt64);
    PutScalar<int64_t>(out, v.AsInt64());
  } else if (v.is_double()) {
    PutScalar<uint8_t>(out, kValDouble);
    PutScalar<double>(out, v.AsDouble());
  } else {
    PutScalar<uint8_t>(out, kValString);
    PutString(out, v.AsString());
  }
}

bool GetValue(const uint8_t* data, size_t size, size_t* at, Value* v) {
  uint8_t tag = 0;
  if (!GetScalar(data, size, at, &tag)) return false;
  switch (tag) {
    case kValNull:
      *v = Value::Null();
      return true;
    case kValInt64: {
      int64_t i = 0;
      if (!GetScalar(data, size, at, &i)) return false;
      *v = Value(i);
      return true;
    }
    case kValDouble: {
      double d = 0;
      if (!GetScalar(data, size, at, &d)) return false;
      *v = Value(d);
      return true;
    }
    case kValString: {
      std::string s;
      if (!GetString(data, size, at, &s)) return false;
      *v = Value(std::move(s));
      return true;
    }
    default:
      return false;
  }
}

std::vector<uint8_t> SegmentHeader() {
  std::vector<uint8_t> header(kWalMagic, kWalMagic + sizeof(kWalMagic));
  PutScalar<uint32_t>(&header, kWalVersion);
  return header;
}

Result<std::vector<uint8_t>> ReadSegment(Env* env, const std::string& path) {
  PAQL_ASSIGN_OR_RETURN(const uint64_t file_size, env->GetFileSize(path));
  PAQL_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> file,
                        env->NewRandomAccessFile(path));
  std::vector<uint8_t> bytes(file_size);
  PAQL_RETURN_IF_ERROR(file->ReadExact(
      0, file_size, reinterpret_cast<char*>(bytes.data())));
  return bytes;
}

/// What the frame walk found in one segment.
struct SegmentWalk {
  /// Bytes of the intact prefix: the header plus every intact record (0
  /// when the header itself is incomplete).
  size_t intact_bytes = 0;
  /// Why the walk stopped before the end of the segment (an incomplete or
  /// checksum-failing frame, or an incomplete header); null on a clean end.
  const char* torn = nullptr;
};

/// The one parser of segment bytes, shared by replay and the writer's
/// torn-tail repair. Checks the header, then walks the frames in order,
/// handing each intact record to `apply` (when set; it is decoded only
/// then) and counting it in `stats` (when set), and stops at the first
/// incomplete or checksum-failing frame. A bad magic, an unknown version,
/// or a checksummed record that does not decode is Corruption.
Result<SegmentWalk> WalkSegment(
    const std::string& path, const std::vector<uint8_t>& bytes,
    const std::function<Status(const WalRecord&)>& apply,
    WalReplayStats* stats) {
  SegmentWalk walk;
  if (bytes.size() < kSegmentHeaderBytes) {
    walk.torn = "truncated header";
    return walk;
  }
  if (std::memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::Corruption(StrCat("wal ", path, ": bad magic"));
  }
  uint32_t version = 0;
  size_t at = sizeof(kWalMagic);
  (void)GetScalar(bytes.data(), bytes.size(), &at, &version);
  if (version != kWalVersion) {
    return Status::Corruption(
        StrCat("wal ", path, ": unsupported version ", version));
  }
  if (stats != nullptr) ++stats->segments;
  while (at < bytes.size()) {
    walk.intact_bytes = at;
    uint32_t masked_crc = 0, len = 0;
    if (at + kFrameBytes > bytes.size()) {
      walk.torn = "truncated frame";
      return walk;
    }
    (void)GetScalar(bytes.data(), bytes.size(), &at, &masked_crc);
    (void)GetScalar(bytes.data(), bytes.size(), &at, &len);
    if (len > kMaxRecordBytes || at + len > bytes.size()) {
      walk.torn = "truncated record";
      return walk;
    }
    if (UnmaskCrc32(masked_crc) != Crc32(bytes.data() + at, len)) {
      walk.torn = "record checksum mismatch";
      return walk;
    }
    if (apply) {
      PAQL_ASSIGN_OR_RETURN(WalRecord record,
                            DecodeWalRecord(bytes.data() + at, len));
      PAQL_RETURN_IF_ERROR(apply(record));
    }
    at += len;
    if (stats != nullptr) {
      stats->bytes += kFrameBytes + len;
      ++stats->records;
    }
  }
  walk.intact_bytes = at;
  return walk;
}

}  // namespace

std::vector<uint8_t> EncodeWalRecord(const WalRecord& record) {
  std::vector<uint8_t> out;
  PutScalar<uint8_t>(&out, static_cast<uint8_t>(record.kind));
  switch (record.kind) {
    case WalRecord::Kind::kDelta: {
      PutString(&out, record.table);
      PutScalar<uint64_t>(&out, record.base_version);
      PutVarint(&out, record.delta.inserts.size());
      for (const std::vector<Value>& row : record.delta.inserts) {
        PutVarint(&out, row.size());
        for (const Value& v : row) PutValue(&out, v);
      }
      PutVarint(&out, record.delta.deletes.size());
      for (const RowId row : record.delta.deletes) PutVarint(&out, row);
      break;
    }
    case WalRecord::Kind::kWatch:
      PutScalar<uint64_t>(&out, record.watch_id);
      PutString(&out, record.query);
      break;
    case WalRecord::Kind::kUnwatch:
      PutScalar<uint64_t>(&out, record.watch_id);
      break;
  }
  return out;
}

Result<WalRecord> DecodeWalRecord(const uint8_t* data, size_t size) {
  auto bad = [](const char* what) {
    return Status::Corruption(StrCat("wal record: ", what));
  };
  size_t at = 0;
  uint8_t kind = 0;
  if (!GetScalar(data, size, &at, &kind)) return bad("empty payload");
  WalRecord record;
  switch (kind) {
    case static_cast<uint8_t>(WalRecord::Kind::kDelta): {
      record.kind = WalRecord::Kind::kDelta;
      if (!GetString(data, size, &at, &record.table)) {
        return bad("bad table name");
      }
      if (!GetScalar(data, size, &at, &record.base_version)) {
        return bad("bad base version");
      }
      uint64_t n_inserts = 0;
      if (!GetVarint(data, size, &at, &n_inserts) || n_inserts > size) {
        return bad("bad insert count");
      }
      record.delta.inserts.reserve(n_inserts);
      for (uint64_t i = 0; i < n_inserts; ++i) {
        uint64_t n_values = 0;
        if (!GetVarint(data, size, &at, &n_values) || n_values > size) {
          return bad("bad row arity");
        }
        std::vector<Value> row;
        row.reserve(n_values);
        for (uint64_t v = 0; v < n_values; ++v) {
          Value value;
          if (!GetValue(data, size, &at, &value)) return bad("bad value");
          row.push_back(std::move(value));
        }
        record.delta.inserts.push_back(std::move(row));
      }
      uint64_t n_deletes = 0;
      if (!GetVarint(data, size, &at, &n_deletes) || n_deletes > size) {
        return bad("bad delete count");
      }
      record.delta.deletes.reserve(n_deletes);
      for (uint64_t i = 0; i < n_deletes; ++i) {
        uint64_t row = 0;
        if (!GetVarint(data, size, &at, &row) ||
            row > std::numeric_limits<RowId>::max()) {
          return bad("bad delete row id");
        }
        record.delta.deletes.push_back(static_cast<RowId>(row));
      }
      break;
    }
    case static_cast<uint8_t>(WalRecord::Kind::kWatch):
      record.kind = WalRecord::Kind::kWatch;
      if (!GetScalar(data, size, &at, &record.watch_id)) {
        return bad("bad watch id");
      }
      if (!GetString(data, size, &at, &record.query)) {
        return bad("bad watch query");
      }
      break;
    case static_cast<uint8_t>(WalRecord::Kind::kUnwatch):
      record.kind = WalRecord::Kind::kUnwatch;
      if (!GetScalar(data, size, &at, &record.watch_id)) {
        return bad("bad unwatch id");
      }
      break;
    default:
      return bad("unknown record kind");
  }
  if (at != size) return bad("trailing bytes");
  return record;
}

// --- Writer -------------------------------------------------------------

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const WalOptions& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("wal: empty directory");
  }
  auto writer = std::unique_ptr<WalWriter>(new WalWriter(options));
  writer->env_ =
      options.env != nullptr ? options.env : Env::Default();
  PAQL_RETURN_IF_ERROR(writer->env_->CreateDir(options.dir));
  PAQL_ASSIGN_OR_RETURN(std::vector<uint64_t> seqs,
                        ListSegments(writer->env_, options.dir));
  std::lock_guard<std::mutex> lock(writer->mu_);
  writer->seq_ = seqs.empty() ? 0 : seqs.back();
  return writer;
}

WalWriter::~WalWriter() {
  (void)Close();  // best effort; errors unreportable
}

Status WalWriter::CloseSegmentLocked() {
  if (file_ == nullptr) return Status::OK();
  Status sync = file_->Sync();
  Status close = file_->Close();
  file_ = nullptr;
  PAQL_RETURN_IF_ERROR(sync);
  return close;
}

Status WalWriter::OpenSegmentLocked() {
  // A failed open leaves seq_ as it was, so the next Append rewrites the
  // same segment from an empty file instead of leaving a torn header in
  // the middle of the log.
  const uint64_t seq = seq_ + 1;
  const std::string path = StrCat(options_.dir, "/", SegmentName(seq));
  PAQL_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                        env_->NewWritableFile(path));
  const std::vector<uint8_t> header = SegmentHeader();
  PAQL_RETURN_IF_ERROR(file->Append(header.data(), header.size()));
  file_ = std::move(file);
  seq_ = seq;
  segment_bytes_ = header.size();
  unsynced_records_ = 0;
  ++segments_;
  return Status::OK();
}

Status WalWriter::RepairTornTailLocked() {
  if (seq_ == 0) return Status::OK();  // an empty log has no tail
  const std::string path = StrCat(options_.dir, "/", SegmentName(seq_));
  PAQL_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadSegment(env_, path));
  PAQL_ASSIGN_OR_RETURN(SegmentWalk walk,
                        WalkSegment(path, bytes, nullptr, nullptr));
  if (walk.torn == nullptr) return Status::OK();
  return CutSegmentLocked(path, std::move(bytes), walk.intact_bytes);
}

Status WalWriter::CutSegmentLocked(const std::string& path,
                                   std::vector<uint8_t> bytes,
                                   uint64_t length) {
  // Cut the segment back to its first `length` bytes (a bare header when
  // that would not hold one) through a synced temp file renamed over it,
  // so a crash mid-cut leaves either the old or the cut segment. The temp
  // name is not a segment name, so replay never reads it.
  const std::vector<uint8_t> header = SegmentHeader();
  if (length < header.size()) {
    bytes = header;
  } else if (length < bytes.size()) {
    bytes.resize(length);
  }
  const std::string temp = StrCat(path, ".repair");
  PAQL_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                        env_->NewWritableFile(temp));
  PAQL_RETURN_IF_ERROR(file->Append(bytes.data(), bytes.size()));
  PAQL_RETURN_IF_ERROR(file->Sync());
  PAQL_RETURN_IF_ERROR(file->Close());
  return env_->RenameFile(temp, path);
}

void WalWriter::CutBackLocked(uint64_t length) {
  // The handle's state is unknown after a failed write or sync; the cut
  // replaces the file it points at anyway.
  (void)file_->Close();
  file_ = nullptr;
  const std::string path = StrCat(options_.dir, "/", SegmentName(seq_));
  Result<std::vector<uint8_t>> bytes = ReadSegment(env_, path);
  Status cut = bytes.ok() ? CutSegmentLocked(path, std::move(*bytes), length)
                          : bytes.status();
  if (!cut.ok()) sticky_error_ = cut;
}

Status WalWriter::Append(const WalRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return Status::Internal("wal: writer is closed");
  PAQL_RETURN_IF_ERROR(sticky_error_);
  if (!tail_repaired_) {
    PAQL_RETURN_IF_ERROR(RepairTornTailLocked());
    tail_repaired_ = true;
  }
  if (file_ == nullptr) PAQL_RETURN_IF_ERROR(OpenSegmentLocked());
  const std::vector<uint8_t> payload = EncodeWalRecord(record);
  std::vector<uint8_t> frame;
  frame.reserve(kFrameBytes + payload.size());
  PutScalar<uint32_t>(&frame,
                      MaskCrc32(Crc32(payload.data(), payload.size())));
  PutScalar<uint32_t>(&frame, static_cast<uint32_t>(payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  const bool sync =
      options_.sync == WalSync::kAlways ||
      (options_.sync == WalSync::kBatch &&
       unsynced_records_ + 1 >= std::max(1, options_.sync_every_n));
  // One write per record: a crash tears at most the frame's tail, which
  // replay recognizes as the end of the log.
  Status written = file_->Append(frame.data(), frame.size());
  if (written.ok() && sync) written = file_->Sync();
  if (!written.ok()) {
    // A refused record must never be replayed, and nothing may land
    // behind a torn frame: cut the segment back to the last acknowledged
    // frame. The next Append starts a fresh segment.
    CutBackLocked(segment_bytes_);
    return written;
  }
  segment_bytes_ += frame.size();
  bytes_ += frame.size();
  ++records_;
  if (sync) {
    ++syncs_;
    unsynced_records_ = 0;
  } else {
    ++unsynced_records_;
  }
  // Rotation closes the full segment; the next Append opens its successor.
  // The record is in the log by now, so it is reported appended whatever
  // the rotation does: a failed sync or close of the full segment fails
  // every later call instead, before it writes anything.
  if (segment_bytes_ >= options_.segment_bytes) {
    sticky_error_ = CloseSegmentLocked();
  }
  return Status::OK();
}

Status WalWriter::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return Status::Internal("wal: writer is closed");
  PAQL_RETURN_IF_ERROR(sticky_error_);
  if (file_ == nullptr) return Status::OK();
  PAQL_RETURN_IF_ERROR(file_->Sync());
  ++syncs_;
  unsynced_records_ = 0;
  return Status::OK();
}

Status WalWriter::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  PAQL_RETURN_IF_ERROR(sticky_error_);
  return CloseSegmentLocked();
}

uint64_t WalWriter::records_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}
uint64_t WalWriter::bytes_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}
uint64_t WalWriter::segments_opened() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_;
}
uint64_t WalWriter::syncs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return syncs_;
}

// --- Replay -------------------------------------------------------------

Result<WalReplayStats> ReplayWal(
    const WalOptions& options,
    const std::function<Status(const WalRecord&)>& apply) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  WalReplayStats stats;
  PAQL_ASSIGN_OR_RETURN(std::vector<uint64_t> seqs,
                        ListSegments(env, options.dir));
  for (size_t s = 0; s < seqs.size(); ++s) {
    const std::string path =
        StrCat(options.dir, "/", SegmentName(seqs[s]));
    PAQL_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadSegment(env, path));
    PAQL_ASSIGN_OR_RETURN(SegmentWalk walk,
                          WalkSegment(path, bytes, apply, &stats));
    if (walk.torn != nullptr) {
      // The crash signature: an incomplete or checksum-failing final
      // record (or header). Everything before it is intact — stop cleanly.
      // Anywhere but the final segment it is real corruption.
      if (s + 1 < seqs.size()) {
        return Status::Corruption(StrCat("wal ", path, ": ", walk.torn));
      }
      stats.torn_tail = true;
    }
  }
  return stats;
}

Status PurgeWal(const std::string& dir, Env* env) {
  if (env == nullptr) env = Env::Default();
  PAQL_ASSIGN_OR_RETURN(std::vector<uint64_t> seqs, ListSegments(env, dir));
  for (const uint64_t seq : seqs) {
    PAQL_RETURN_IF_ERROR(
        env->RemoveFile(StrCat(dir, "/", SegmentName(seq))));
  }
  return Status::OK();
}

}  // namespace paql::relation
