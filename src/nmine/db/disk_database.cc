#include "nmine/db/disk_database.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>

#include "nmine/db/scan_telemetry.h"

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

}  // namespace

DiskSequenceDatabase::DiskSequenceDatabase(std::string path, Options options)
    : path_(std::move(path)), options_(options) {}

std::unique_ptr<DiskSequenceDatabase> DiskSequenceDatabase::Open(
    const std::string& path, Status* error) {
  return Open(path, Options(), error);
}

std::unique_ptr<DiskSequenceDatabase> DiskSequenceDatabase::Open(
    const std::string& path, const Options& options, Status* error) {
  std::unique_ptr<DiskSequenceDatabase> db(
      new DiskSequenceDatabase(path, options));
  FileLayout layout;
  Status r = RunScanWithRetry(
      options.retry, options.sleeper, /*can_replay=*/true, "disk open",
      [&](int) {
        layout = FileLayout();
        ScanAttempt attempt;
        attempt.status =
            db->StreamFile(/*visitor=*/nullptr, 0, SIZE_MAX, &layout,
                           &attempt.delivered_records);
        return attempt;
      });
  if (!r.ok()) {
    if (error != nullptr) *error = r;
    return nullptr;
  }
  db->layout_ = std::move(layout);
  if (error != nullptr) *error = Status::Ok();
  return db;
}

Status DiskSequenceDatabase::Scan(const Visitor& visitor,
                                  const RestartFn& restart) const {
  CountScan();
  db_telemetry::RecordScanStarted();
  return RunScanWithRetry(
      options_.retry, options_.sleeper,
      /*can_replay=*/static_cast<bool>(restart), "disk scan", [&](int) {
        if (restart) restart();
        ScanAttempt attempt;
        attempt.status = StreamFile(&visitor, 0, SIZE_MAX, /*layout=*/nullptr,
                                    &attempt.delivered_records);
        return attempt;
      },
      options_.retry_budget);
}

Status DiskSequenceDatabase::ScanRange(size_t begin_record, size_t end_record,
                                       const Visitor& visitor,
                                       const RestartFn& restart) const {
  end_record = std::min(end_record, layout_.num_sequences);
  if (begin_record >= end_record) return Status::Ok();
  return RunScanWithRetry(
      options_.retry, options_.sleeper,
      /*can_replay=*/static_cast<bool>(restart), "disk range scan", [&](int) {
        if (restart) restart();
        ScanAttempt attempt;
        attempt.status = StreamFile(&visitor, begin_record, end_record,
                                    /*layout=*/nullptr,
                                    &attempt.delivered_records);
        return attempt;
      },
      options_.retry_budget);
}

Status DiskSequenceDatabase::StreamFile(const Visitor* visitor,
                                        size_t begin_record,
                                        size_t end_record, FileLayout* layout,
                                        bool* delivered_records) const {
  if (delivered_records != nullptr) *delivered_records = false;
  const bool ranged = end_record != SIZE_MAX;
  ScopedFd fd(::open(path_.c_str(), O_RDONLY | O_CLOEXEC));
  if (fd.get() < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no such database file: " + path_);
    }
    return Status::Unavailable("cannot open for reading: " + path_);
  }
  // The index describes the image Open validated; seeking through it into
  // any other image would misdecode, so a changed file is a transient
  // failure like truncation by a concurrent rewrite.
  auto changed = [&] {
    return Status::Unavailable("database file changed since open: " + path_);
  };
  struct stat st;
  if (::fstat(fd.get(), &st) != 0) {
    return Status::Unavailable("cannot stat: " + path_);
  }
  const uint64_t file_bytes = static_cast<uint64_t>(st.st_size);
  BufferedVarintReader reader(fd.get(), file_bytes);
  if (ranged) {
    if (file_bytes != layout_.file_bytes) return changed();
    reader.SetLimit(kMaxHeaderBytes);
  }
  char magic[sizeof(dbformat::kMagic)];
  if (!reader.ReadRaw(magic, sizeof(magic)) ||
      std::memcmp(magic, dbformat::kMagic, sizeof(magic)) != 0) {
    return Status::DataLoss("bad magic: not an nmine sequence database");
  }
  char version = 0;
  if (!reader.ReadRaw(&version, 1) ||
      static_cast<uint8_t>(version) != dbformat::kVersion) {
    return Status::DataLoss("unsupported format version");
  }
  uint64_t count = 0;
  BufferedVarintReader::VarintResult vr = reader.ReadVarint64(&count);
  if (vr != BufferedVarintReader::VarintResult::kOk) {
    return VarintError(vr, "sequence count");
  }
  uint64_t first_record = 0;
  if (ranged) {
    if (count != layout_.num_sequences) return changed();
    const size_t stride = begin_record / kIndexStride;
    const size_t stop = (end_record + kIndexStride - 1) / kIndexStride;
    first_record = static_cast<uint64_t>(stride) * kIndexStride;
    reader.Seek(layout_.record_offsets[stride]);
    reader.SetLimit(stop < layout_.record_offsets.size()
                        ? layout_.record_offsets[stop]
                        : layout_.file_bytes);
  }
  SequenceRecord record;
  for (uint64_t i = first_record; i < count; ++i) {
    if (layout != nullptr && i % kIndexStride == 0) {
      layout->record_offsets.push_back(reader.Tell());
    }
    uint64_t id = 0;
    uint64_t len = 0;
    if ((vr = reader.ReadVarint64(&id)) !=
            BufferedVarintReader::VarintResult::kOk ||
        (vr = reader.ReadVarint64(&len)) !=
            BufferedVarintReader::VarintResult::kOk) {
      return VarintError(vr,
                         "record header at sequence " + std::to_string(i));
    }
    // Refuse a length the remaining bytes cannot hold before sizing.
    if (len > reader.BytesLeft()) {
      return TruncatedError("symbols at sequence " + std::to_string(i));
    }
    record.id = static_cast<SequenceId>(id);
    if (!reader.ReadOneByteRun(static_cast<size_t>(len), &record.symbols)) {
      record.symbols.resize(static_cast<size_t>(len));
      for (SymbolId& symbol : record.symbols) {
        uint64_t sym = 0;
        if ((vr = reader.ReadVarint64(&sym)) !=
            BufferedVarintReader::VarintResult::kOk) {
          return VarintError(vr, "symbols at sequence " + std::to_string(i));
        }
        symbol = static_cast<SymbolId>(sym);
      }
    }
    if (layout != nullptr) {
      layout->total_symbols += record.symbols.size();
      ++layout->num_sequences;
    }
    if (visitor != nullptr && i >= begin_record && i < end_record) {
      if (delivered_records != nullptr) *delivered_records = true;
      db_telemetry::RecordSequenceVisited();
      (*visitor)(record);
    }
    // Range scan: everything past the range is irrelevant — stop parsing
    // (so the trailing-garbage check below only guards full streams).
    if (i + 1 >= end_record) return Status::Ok();
  }
  if (!reader.AtEof()) {
    return Status::DataLoss("trailing garbage after last record");
  }
  if (layout != nullptr) layout->file_bytes = reader.Tell();
  return Status::Ok();
}

}  // namespace nmine
