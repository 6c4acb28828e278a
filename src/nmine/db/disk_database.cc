#include "nmine/db/disk_database.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>

#include "nmine/core/check.h"
#include "nmine/db/scan_telemetry.h"
#include "nmine/obs/metrics.h"

namespace nmine {
namespace {

/// magic + version + the longest (10-byte) count varint.
constexpr uint64_t kMaxHeaderBytes = sizeof(dbformat::kMagic) + 1 + 10;

/// Closes a file descriptor on scope exit.
class ScopedFd {
 public:
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

/// Buffered LEB128 reader over a file of `file_bytes` bytes, positioned by
/// Seek and never reading at or past its limit (bytes there read as EOF).
class BufferedVarintReader {
 public:
  BufferedVarintReader(int fd, uint64_t file_bytes)
      : fd_(fd), file_bytes_(file_bytes) {}

  /// File offset of the next byte to be read.
  uint64_t Tell() const { return base_ + pos_; }

  /// Moves to `offset`, dropping buffered bytes.
  void Seek(uint64_t offset) {
    base_ = offset;
    pos_ = 0;
    len_ = 0;
  }

  /// Bytes at or past `limit` are never read.
  void SetLimit(uint64_t limit) { limit_ = limit; }

  /// Bytes before the end of the file or the limit: every varint takes at
  /// least one byte, so no valid length or count exceeds this.
  uint64_t BytesLeft() const {
    const uint64_t end = std::min(limit_, file_bytes_);
    return end > Tell() ? end - Tell() : 0;
  }

  /// Decodes `n` varints in one copy when all are buffered and one byte
  /// long; otherwise consumes nothing and returns false.
  bool ReadOneByteRun(size_t n, Sequence* out) {
    if (len_ - pos_ < n) return false;
    const uint8_t* run = reinterpret_cast<const uint8_t*>(buffer_) + pos_;
    uint8_t high = 0;
    for (size_t i = 0; i < n; ++i) high |= run[i];
    if ((high & 0x80) != 0) return false;
    out->assign(run, run + n);
    pos_ += n;
    return true;
  }

  /// Reads `n` raw bytes into `out`. Returns false on EOF/short read.
  bool ReadRaw(char* out, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      int byte = NextByte();
      if (byte < 0) return false;
      out[i] = static_cast<char>(byte);
    }
    return true;
  }

  enum class VarintResult { kOk, kTruncated, kOverflow };

  /// Reads one varint. A 10-byte encoding may only contribute bit 63 with
  /// its final byte; payloads whose high bits would be silently dropped are
  /// rejected as kOverflow (corruption), distinct from kTruncated (EOF).
  VarintResult ReadVarint64(uint64_t* value) {
    uint64_t result = 0;
    int shift = 0;
    while (shift <= 63) {
      int byte = NextByte();
      if (byte < 0) return VarintResult::kTruncated;
      if (shift == 63 && (byte & 0x7f) > 1) return VarintResult::kOverflow;
      result |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *value = result;
        return VarintResult::kOk;
      }
      shift += 7;
    }
    return VarintResult::kOverflow;  // continuation past the 10th byte
  }

  /// True when no byte is left before EOF or the limit.
  bool AtEof() {
    if (pos_ < len_) return false;
    Refill();
    return pos_ >= len_;
  }

 private:
  static constexpr size_t kBufferSize = 1 << 16;

  int NextByte() {
    if (pos_ >= len_) {
      Refill();
      if (pos_ >= len_) return -1;
    }
    return static_cast<uint8_t>(buffer_[pos_++]);
  }

  /// Reads the next chunk; a read error leaves the buffer empty, which the
  /// caller reports as truncation (kUnavailable, retried).
  void Refill() {
    base_ += len_;
    pos_ = 0;
    len_ = 0;
    if (base_ >= limit_) return;
    const size_t want =
        static_cast<size_t>(std::min<uint64_t>(kBufferSize, limit_ - base_));
    ssize_t got;
    do {
      got = ::pread(fd_, buffer_, want, static_cast<off_t>(base_));
    } while (got < 0 && errno == EINTR);
    if (got > 0) len_ = static_cast<size_t>(got);
  }

  int fd_;
  uint64_t file_bytes_;
  char buffer_[kBufferSize];
  uint64_t base_ = 0;  // file offset of buffer_[0]
  size_t pos_ = 0;
  size_t len_ = 0;
  uint64_t limit_ = UINT64_MAX;
};

/// Truncation mid-stream is kUnavailable: a concurrent rewrite can shrink
/// the file transiently and a bounded retry may see the complete image
/// again. Structural corruption is kDataLoss and never retried.
Status TruncatedError(std::string what) {
  return Status::Unavailable("truncated " + std::move(what));
}

Status VarintError(BufferedVarintReader::VarintResult r, std::string what) {
  if (r == BufferedVarintReader::VarintResult::kOverflow) {
    return Status::DataLoss("overlong varint in " + std::move(what));
  }
  return TruncatedError(std::move(what));
}

int64_t Nanos(const struct timespec& t) {
  return static_cast<int64_t>(t.tv_sec) * 1'000'000'000 + t.tv_nsec;
}

/// Opens `path` for reading and reports its size and, when `identity` is
/// non-null, its identity. On success `*fd` is open and the caller owns
/// it.
Status OpenFile(const std::string& path, int* fd, uint64_t* file_bytes,
                DiskFileIdentity* identity = nullptr) {
  *fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (*fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no such database file: " + path);
    }
    return Status::Unavailable("cannot open for reading: " + path);
  }
  struct stat st;
  if (::fstat(*fd, &st) != 0) {
    ::close(*fd);
    *fd = -1;
    return Status::Unavailable("cannot stat: " + path);
  }
  *file_bytes = static_cast<uint64_t>(st.st_size);
  if (identity != nullptr) {
    struct timespec now;
    ::clock_gettime(CLOCK_REALTIME, &now);
    identity->device = static_cast<uint64_t>(st.st_dev);
    identity->inode = static_cast<uint64_t>(st.st_ino);
    identity->size = *file_bytes;
    identity->mtime_ns = Nanos(st.st_mtim);
    identity->ctime_ns = Nanos(st.st_ctim);
    identity->seen_ns = Nanos(now);
  }
  return Status::Ok();
}

/// The offsets and counts of an index describe the image Open validated;
/// reading through them any other image would misdecode, so a changed
/// file is a transient failure like truncation by a concurrent rewrite.
Status ChangedSinceOpen(const std::string& path) {
  return Status::Unavailable("database file changed since open: " + path);
}

/// Reads and checks magic and version, then the sequence count.
Status ReadHeader(BufferedVarintReader* reader, uint64_t* count) {
  char magic[sizeof(dbformat::kMagic)];
  if (!reader->ReadRaw(magic, sizeof(magic)) ||
      std::memcmp(magic, dbformat::kMagic, sizeof(magic)) != 0) {
    return Status::DataLoss("bad magic: not an nmine sequence database");
  }
  char version = 0;
  if (!reader->ReadRaw(&version, 1) ||
      static_cast<uint8_t>(version) != dbformat::kVersion) {
    return Status::DataLoss("unsupported format version");
  }
  BufferedVarintReader::VarintResult vr = reader->ReadVarint64(count);
  if (vr != BufferedVarintReader::VarintResult::kOk) {
    return VarintError(vr, "sequence count");
  }
  return Status::Ok();
}

/// Reads only the header of `path` under `options`' retry policy:
/// checks magic and version and reports the count, the size and, when
/// `identity` is non-null, the identity of the file.
Status ReadHeaderOnly(const std::string& path, const DiskReadOptions& options,
                      uint64_t* count, uint64_t* size,
                      DiskFileIdentity* identity) {
  return RunScanWithRetry(
      options.retry, options.sleeper, /*can_replay=*/true, "disk open header",
      [&](int) {
        ScanAttempt attempt;
        int raw_fd = -1;
        attempt.status = OpenFile(path, &raw_fd, size, identity);
        if (!attempt.status.ok()) return attempt;
        ScopedFd fd(raw_fd);
        BufferedVarintReader reader(fd.get(), *size);
        reader.SetLimit(kMaxHeaderBytes);
        attempt.status = ReadHeader(&reader, count);
        return attempt;
      });
}

/// Decodes record `i` at the reader's position. A short read is
/// truncation. So is a record that needs bytes past the reader's end when
/// that end is the end of the file; when it is a range's end offset
/// inside the file (`end_inside_file`), the offsets do not delimit whole
/// records, which is data loss.
Status ReadRecord(BufferedVarintReader* reader, uint64_t i,
                  bool end_inside_file, SequenceRecord* record) {
  auto past_end = [end_inside_file](std::string what) {
    return end_inside_file
               ? Status::DataLoss("range overruns its end offset: " + what)
               : TruncatedError(std::move(what));
  };
  auto varint_error = [&](BufferedVarintReader::VarintResult r,
                          std::string what) {
    if (r == BufferedVarintReader::VarintResult::kTruncated &&
        reader->BytesLeft() == 0) {
      return past_end(std::move(what));
    }
    return VarintError(r, std::move(what));
  };
  BufferedVarintReader::VarintResult vr;
  uint64_t id = 0;
  uint64_t len = 0;
  if ((vr = reader->ReadVarint64(&id)) !=
          BufferedVarintReader::VarintResult::kOk ||
      (vr = reader->ReadVarint64(&len)) !=
          BufferedVarintReader::VarintResult::kOk) {
    return varint_error(vr, "record header at sequence " + std::to_string(i));
  }
  // Refuse a length the remaining bytes cannot hold before sizing.
  if (len > reader->BytesLeft()) {
    return past_end("symbols at sequence " + std::to_string(i));
  }
  record->id = static_cast<SequenceId>(id);
  if (reader->ReadOneByteRun(static_cast<size_t>(len), &record->symbols)) {
    return Status::Ok();
  }
  record->symbols.resize(static_cast<size_t>(len));
  for (SymbolId& symbol : record->symbols) {
    uint64_t sym = 0;
    if ((vr = reader->ReadVarint64(&sym)) !=
        BufferedVarintReader::VarintResult::kOk) {
      return varint_error(vr, "symbols at sequence " + std::to_string(i));
    }
    // SymbolId is int32 and -1 is the wildcard: a wider value would alias
    // another symbol or index outside the matrix.
    if (sym > static_cast<uint64_t>(INT32_MAX)) {
      return Status::DataLoss("symbol out of range at sequence " +
                              std::to_string(i));
    }
    symbol = static_cast<SymbolId>(sym);
  }
  return Status::Ok();
}

/// Decodes the `count` records after the header, passing each with its
/// ordinal and byte offset to `on_record`, then rejects trailing garbage.
template <typename OnRecord>
Status StreamRecords(BufferedVarintReader* reader, uint64_t count,
                     OnRecord on_record) {
  SequenceRecord record;
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t offset = reader->Tell();
    Status read = ReadRecord(reader, i, /*end_inside_file=*/false, &record);
    if (!read.ok()) return read;
    on_record(i, offset, record);
  }
  if (!reader->AtEof()) {
    return Status::DataLoss("trailing garbage after last record");
  }
  return Status::Ok();
}

}  // namespace

DiskSequenceDatabase::DiskSequenceDatabase(
    std::string path, Options options,
    std::shared_ptr<const FileLayout> layout)
    : path_(std::move(path)),
      options_(options),
      layout_(std::move(layout)),
      ranges_(path_, layout_->num_sequences, layout_->file_bytes, options_) {}

std::unique_ptr<DiskSequenceDatabase> DiskSequenceDatabase::Open(
    const std::string& path, Status* error) {
  return Open(path, Options(), error);
}

std::unique_ptr<DiskSequenceDatabase> DiskSequenceDatabase::Open(
    const std::string& path, const Options& options, Status* error) {
  DiskFileIdentity identity;
  return OpenValidated(path, options, &identity, error);
}

std::unique_ptr<DiskSequenceDatabase> DiskSequenceDatabase::OpenValidated(
    const std::string& path, const Options& options,
    DiskFileIdentity* identity, Status* error) {
  auto layout = std::make_shared<FileLayout>();
  Status r = RunScanWithRetry(
      options.retry, options.sleeper, /*can_replay=*/true, "disk open",
      [&](int) {
        *layout = FileLayout();
        ScanAttempt attempt;
        attempt.status = LearnLayout(path, layout.get(), identity);
        return attempt;
      });
  if (error != nullptr) *error = r;
  if (!r.ok()) return nullptr;
  return std::unique_ptr<DiskSequenceDatabase>(
      new DiskSequenceDatabase(path, options, std::move(layout)));
}

Status DiskSequenceDatabase::Scan(const Visitor& visitor,
                                  const RestartFn& restart) const {
  CountScan();
  db_telemetry::RecordScanStarted();
  return RunScanWithRetry(
      options_.retry_full_scans ? options_.retry : RetryPolicy::NoRetry(),
      options_.sleeper, /*can_replay=*/static_cast<bool>(restart),
      "disk scan",
      [&](int) {
        if (restart) restart();
        ScanAttempt attempt;
        attempt.status = StreamFile(visitor, &attempt.delivered_records);
        return attempt;
      },
      options_.retry_budget);
}

uint64_t DiskSequenceDatabase::RecordOffset(size_t record) const {
  if (record == layout_->num_sequences) return layout_->file_bytes;
  NMINE_CHECK(record % kIndexStride == 0 && record < layout_->num_sequences,
              "RecordOffset needs an indexed record");
  return layout_->record_offsets[record / kIndexStride];
}

Status DiskSequenceDatabase::ScanRange(size_t begin_record, size_t end_record,
                                       const Visitor& visitor,
                                       const RestartFn& restart) const {
  end_record = std::min(end_record, layout_->num_sequences);
  if (begin_record >= end_record) return Status::Ok();
  // The indexed records around the range: the span starts at or before
  // begin_record and ends at or after end_record.
  RecordSpan span;
  span.begin_record = begin_record / kIndexStride * kIndexStride;
  span.end_record = std::min(
      (end_record + kIndexStride - 1) / kIndexStride * kIndexStride,
      layout_->num_sequences);
  span.begin_offset = RecordOffset(span.begin_record);
  span.end_offset = RecordOffset(span.end_record);
  return ranges_.ScanWithin(span, begin_record, end_record, visitor,
                             restart);
}

Status DiskSequenceDatabase::LearnLayout(const std::string& path,
                                         FileLayout* layout,
                                         DiskFileIdentity* identity) {
  int raw_fd = -1;
  uint64_t file_bytes = 0;
  Status opened = OpenFile(path, &raw_fd, &file_bytes, identity);
  if (!opened.ok()) return opened;
  ScopedFd fd(raw_fd);
  BufferedVarintReader reader(fd.get(), file_bytes);
  uint64_t count = 0;
  Status header = ReadHeader(&reader, &count);
  if (!header.ok()) return header;
  Status streamed = StreamRecords(
      &reader, count,
      [layout](uint64_t i, uint64_t offset, const SequenceRecord& record) {
        if (i % kIndexStride == 0) layout->record_offsets.push_back(offset);
        const size_t len = record.symbols.size();
        layout->min_length = i == 0 ? len : std::min(layout->min_length, len);
        layout->max_length = std::max(layout->max_length, len);
        SymbolId max_symbol = layout->max_symbol;
        for (SymbolId s : record.symbols) max_symbol = std::max(max_symbol, s);
        layout->max_symbol = max_symbol;
        layout->total_symbols += len;
        ++layout->num_sequences;
      });
  if (!streamed.ok()) return streamed;
  layout->file_bytes = reader.Tell();
  return Status::Ok();
}

Status DiskSequenceDatabase::StreamFile(const Visitor& visitor,
                                        bool* delivered_records) const {
  *delivered_records = false;
  int raw_fd = -1;
  uint64_t file_bytes = 0;
  Status opened = OpenFile(path_, &raw_fd, &file_bytes);
  if (!opened.ok()) return opened;
  ScopedFd fd(raw_fd);
  if (file_bytes != layout_->file_bytes) return ChangedSinceOpen(path_);
  BufferedVarintReader reader(fd.get(), file_bytes);
  uint64_t count = 0;
  Status header = ReadHeader(&reader, &count);
  if (!header.ok()) return header;
  if (count != layout_->num_sequences) return ChangedSinceOpen(path_);
  return StreamRecords(
      &reader, count,
      [&](uint64_t, uint64_t, const SequenceRecord& record) {
        *delivered_records = true;
        db_telemetry::RecordSequenceVisited();
        visitor(record);
      });
}

DiskRangeReader::DiskRangeReader(std::string path, uint64_t num_sequences,
                                 uint64_t file_bytes, DiskReadOptions options)
    : path_(std::move(path)),
      num_sequences_(num_sequences),
      file_bytes_(file_bytes),
      options_(options) {}

std::unique_ptr<DiskRangeReader> DiskRangeReader::Open(
    const std::string& path, uint64_t num_sequences, uint64_t file_bytes,
    const DiskReadOptions& options, Status* error) {
  uint64_t count = 0;
  uint64_t size = 0;
  Status r = ReadHeaderOnly(path, options, &count, &size,
                            /*identity=*/nullptr);
  if (r.ok() && (count != num_sequences || size != file_bytes)) {
    r = Status::FailedPrecondition(
        path + " holds " + std::to_string(count) + " sequences in " +
        std::to_string(size) + " bytes, not " + std::to_string(num_sequences) +
        " in " + std::to_string(file_bytes));
  }
  if (error != nullptr) *error = r;
  if (!r.ok()) return nullptr;
  return std::make_unique<DiskRangeReader>(path, num_sequences, file_bytes,
                                           options);
}

Status DiskRangeReader::Scan(const RecordSpan& span, const Visitor& visitor,
                             const RestartFn& restart) const {
  return ScanWithin(span, span.begin_record, span.end_record, visitor,
                    restart);
}

Status DiskRangeReader::ScanWithin(const RecordSpan& span,
                                   uint64_t begin_record, uint64_t end_record,
                                   const Visitor& visitor,
                                   const RestartFn& restart) const {
  return RunScanWithRetry(
      options_.retry, options_.sleeper,
      /*can_replay=*/static_cast<bool>(restart), "disk range scan", [&](int) {
        if (restart) restart();
        ScanAttempt attempt;
        attempt.status = StreamSpan(span, begin_record, end_record, visitor,
                                    &attempt.delivered_records);
        return attempt;
      },
      options_.retry_budget);
}

Status DiskRangeReader::StreamSpan(const RecordSpan& span,
                                   uint64_t begin_record, uint64_t end_record,
                                   const Visitor& visitor,
                                   bool* delivered_records) const {
  *delivered_records = false;
  if (span.begin_record >= span.end_record ||
      span.end_record > num_sequences_) {
    return Status::InvalidArgument("record span outside the database");
  }
  // Every record takes at least two bytes (id and length).
  if (span.begin_offset >= span.end_offset || span.end_offset > file_bytes_) {
    return Status::DataLoss("record span offsets cannot hold its records");
  }
  int raw_fd = -1;
  uint64_t file_bytes = 0;
  Status opened = OpenFile(path_, &raw_fd, &file_bytes);
  if (!opened.ok()) return opened;
  ScopedFd fd(raw_fd);
  if (file_bytes != file_bytes_) return ChangedSinceOpen(path_);
  BufferedVarintReader reader(fd.get(), file_bytes);
  reader.SetLimit(kMaxHeaderBytes);
  uint64_t count = 0;
  Status header = ReadHeader(&reader, &count);
  if (!header.ok()) return header;
  if (count != num_sequences_) return ChangedSinceOpen(path_);
  reader.Seek(span.begin_offset);
  reader.SetLimit(span.end_offset);
  const bool end_inside_file = span.end_offset < file_bytes_;
  SequenceRecord record;
  for (uint64_t i = span.begin_record; i < end_record; ++i) {
    Status read = ReadRecord(&reader, i, end_inside_file, &record);
    if (!read.ok()) return read;
    if (i >= begin_record) {
      *delivered_records = true;
      db_telemetry::RecordSequenceVisited();
      visitor(record);
    }
  }
  if (end_record == span.end_record && reader.Tell() != span.end_offset) {
    return Status::DataLoss(
        "records " + std::to_string(span.begin_record) + ".." +
        std::to_string(span.end_record) + " end at byte " +
        std::to_string(reader.Tell()) + ", not at their end offset " +
        std::to_string(span.end_offset));
  }
  return Status::Ok();
}

DiskLayoutCache::DiskLayoutCache()
    : hits_(obs::MetricsRegistry::Global().GetCounter("db.layout_cache.hits")),
      misses_(obs::MetricsRegistry::Global().GetCounter(
          "db.layout_cache.misses")) {}

std::unique_ptr<DiskSequenceDatabase> DiskLayoutCache::Open(
    const std::string& path, const DiskReadOptions& options, Status* error) {
  const Entry cached = Find(path);
  if (cached.layout != nullptr) {
    uint64_t count = 0;
    uint64_t size = 0;
    DiskFileIdentity seen;
    Status header = ReadHeaderOnly(path, options, &count, &size, &seen);
    if (!header.ok()) {
      misses_.Increment();
      Forget(path);
      if (error != nullptr) *error = header;
      return nullptr;
    }
    if (seen.SameImage(cached.identity) &&
        count == cached.layout->num_sequences &&
        size == cached.layout->file_bytes) {
      hits_.Increment();
      if (error != nullptr) *error = Status::Ok();
      return std::unique_ptr<DiskSequenceDatabase>(
          new DiskSequenceDatabase(path, options, cached.layout));
    }
  }
  misses_.Increment();
  Entry fresh;
  fresh.path = path;
  std::unique_ptr<DiskSequenceDatabase> db =
      DiskSequenceDatabase::OpenValidated(path, options, &fresh.identity,
                                          error);
  const int64_t last_change =
      std::max(fresh.identity.mtime_ns, fresh.identity.ctime_ns);
  if (db != nullptr && last_change + kSettleNs <= fresh.identity.seen_ns) {
    fresh.layout = db->layout_;
    Store(std::move(fresh));
  } else {
    Forget(path);
  }
  return db;
}

DiskLayoutCache::Entry DiskLayoutCache::Find(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Entry& entry : entries_) {
    if (entry.path == path) {
      entry.last_use = ++uses_;
      return entry;
    }
  }
  return Entry();
}

void DiskLayoutCache::Store(Entry entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  entry.last_use = ++uses_;
  auto oldest = entries_.begin();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->path == entry.path) {
      *it = std::move(entry);
      return;
    }
    if (it->last_use < oldest->last_use) oldest = it;
  }
  if (entries_.size() < kCapacity) {
    entries_.push_back(std::move(entry));
  } else {
    *oldest = std::move(entry);
  }
}

void DiskLayoutCache::Forget(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [&](const Entry& entry) {
                                  return entry.path == path;
                                }),
                 entries_.end());
}

}  // namespace nmine
