#ifndef NMINE_DB_DISK_DATABASE_H_
#define NMINE_DB_DISK_DATABASE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nmine/core/status.h"
#include "nmine/db/format.h"
#include "nmine/db/retry.h"
#include "nmine/db/sequence_database.h"

namespace nmine {
namespace obs {
class Counter;
}  // namespace obs

/// How a disk reader opens and retries its file.
struct DiskReadOptions {
  /// Retry schedule applied to opening and to every scan.
  /// RetryPolicy::NoRetry() turns retries off.
  RetryPolicy retry;
  /// Sleep dependency; null means the real clock.
  Sleeper* sleeper = nullptr;
  /// Optional per-run cap on cumulative retries across every scan of the
  /// reader (see RetryBudget). Must outlive the reader.
  RetryBudget* retry_budget = nullptr;
  /// False when a decorator above the reader (RetryingDatabase) retries
  /// its full scans: DiskSequenceDatabase::Scan then makes one attempt, so
  /// a fault is retried in one layer and charged to the budget once per
  /// retry. Opening and range scans still follow `retry`.
  bool retry_full_scans = true;
};

/// What tells one image of a file from another: fstat's device, inode,
/// size, modification and change times, taken on the descriptor that
/// reads the file.
struct DiskFileIdentity {
  uint64_t device = 0;
  uint64_t inode = 0;
  uint64_t size = 0;
  int64_t mtime_ns = 0;
  int64_t ctime_ns = 0;
  /// The wall clock right after the fstat; not part of the identity.
  int64_t seen_ns = 0;

  bool SameImage(const DiskFileIdentity& other) const {
    return device == other.device && inode == other.inode &&
           size == other.size && mtime_ns == other.mtime_ns &&
           ctime_ns == other.ctime_ns;
  }
};

/// The records [begin_record, end_record) of a database file and the bytes
/// that hold them: begin_offset is where record begin_record starts and
/// end_offset where record end_record starts (the file size when
/// end_record is the record count).
struct RecordSpan {
  uint64_t begin_record = 0;
  uint64_t end_record = 0;
  uint64_t begin_offset = 0;
  uint64_t end_offset = 0;
};

/// Range reads of a database file whose record count, size and record
/// offsets were learned by one validating Open: this process's own
/// DiskSequenceDatabase, or a distributed coordinator's, whose offsets
/// reach a worker in its task frames. Every scan re-reads the header and
/// checks that the size and count still match (a mismatch is kUnavailable,
/// "file changed since open"), seeks to the span's begin offset and reads
/// no byte at or past its end offset.
class DiskRangeReader {
 public:
  using Visitor = SequenceDatabase::Visitor;
  using RestartFn = SequenceDatabase::RestartFn;

  /// Reads only the header (magic, version, count) and the size of
  /// `path`. A count or size other than `num_sequences` / `file_bytes` is
  /// kFailedPrecondition; the file is not pre-scanned.
  static std::unique_ptr<DiskRangeReader> Open(const std::string& path,
                                               uint64_t num_sequences,
                                               uint64_t file_bytes,
                                               const DiskReadOptions& options,
                                               Status* error);

  /// A reader for a layout the caller has already validated.
  DiskRangeReader(std::string path, uint64_t num_sequences,
                  uint64_t file_bytes, DiskReadOptions options);

  /// Streams the records of `span`. Its bytes must decode to exactly its
  /// records: a span that ends anywhere but at its end offset, or needs
  /// bytes past an end offset inside the file, is kDataLoss. Failures
  /// follow the retry policy; a retry after records were delivered
  /// replays the visitor from the span's first record via `restart`.
  Status Scan(const RecordSpan& span, const Visitor& visitor,
              const RestartFn& restart) const;

 private:
  friend class DiskSequenceDatabase;

  /// Scan, delivering only the records [begin_record, end_record) of
  /// `span` and stopping after end_record; the end offset is checked only
  /// when end_record is the span's end.
  Status ScanWithin(const RecordSpan& span, uint64_t begin_record,
                    uint64_t end_record, const Visitor& visitor,
                    const RestartFn& restart) const;
  Status StreamSpan(const RecordSpan& span, uint64_t begin_record,
                    uint64_t end_record, const Visitor& visitor,
                    bool* delivered_records) const;

  std::string path_;
  uint64_t num_sequences_ = 0;
  uint64_t file_bytes_ = 0;
  DiskReadOptions options_;
};

/// A disk-resident sequence database: the paper's operating assumption
/// ("we assume disk-resident data that is far beyond the memory capacity",
/// Section 2.2). Every Scan() streams the file through a fixed-size buffer;
/// only one sequence is materialized at a time.
///
/// The file is treated as unreliable: structural corruption (bad magic,
/// unsupported version, overlong varints, a symbol past INT32_MAX,
/// trailing garbage) surfaces as kDataLoss, while open failures, truncation
/// and a file whose size or header count changed since Open (seen by Scan
/// and ScanRange) — which a concurrent rewrite can cause transiently —
/// surface as kUnavailable and
/// are retried with jittered exponential backoff up to the configured
/// policy. A mid-stream retry replays the visitor from the first record,
/// so it is only performed when the caller passed a restart callback.
class DiskSequenceDatabase : public SequenceDatabase {
 public:
  using Options = DiskReadOptions;

  /// Opens `path`, validating the header and pre-scanning once (not counted)
  /// to learn the count, the symbol total, the largest symbol and the
  /// length range. On failure returns nullptr and fills `*error`.
  static std::unique_ptr<DiskSequenceDatabase> Open(const std::string& path,
                                                    Status* error);
  static std::unique_ptr<DiskSequenceDatabase> Open(const std::string& path,
                                                    const Options& options,
                                                    Status* error);

  DiskSequenceDatabase(const DiskSequenceDatabase&) = delete;
  DiskSequenceDatabase& operator=(const DiskSequenceDatabase&) = delete;

  size_t NumSequences() const override { return layout_->num_sequences; }
  using SequenceDatabase::Scan;
  /// A full pass. The file's size and header count must still be Open's;
  /// otherwise the attempt fails kUnavailable, "file changed since open".
  Status Scan(const Visitor& visitor, const RestartFn& restart) const override;
  uint64_t TotalSymbols() const override { return layout_->total_symbols; }

  /// The largest symbol in the file, -1 when it holds none: the data needs
  /// a max_symbol() + 1 symbol alphabet.
  SymbolId max_symbol() const { return layout_->max_symbol; }
  /// Shortest and longest record; both 0 for an empty file.
  size_t min_length() const { return layout_->min_length; }
  size_t max_length() const { return layout_->max_length; }
  /// Size of the validated image: header, records, nothing after.
  uint64_t file_bytes() const { return layout_->file_bytes; }

  /// Records between two entries of the sparse offset index that Open's
  /// validating pre-scan builds (the byte offset of every kIndexStride-th
  /// record; about 19 KB at 600K sequences). Fixed; the on-disk format is
  /// unchanged.
  static constexpr size_t kIndexStride = 256;

  /// Byte offset at which record `record` starts, from the index: `record`
  /// must be a multiple of kIndexStride or NumSequences() (then the file
  /// size).
  uint64_t RecordOffset(size_t record) const;

  /// Streams only the records whose 0-based ordinal falls in
  /// [begin_record, end_record), clamped to NumSequences(); an empty range
  /// touches no file. The DiskRangeReader over Open's layout does the
  /// reading: it checks the header against Open's, seeks to the nearest
  /// indexed record at or before begin_record, decodes and skips at most
  /// kIndexStride - 1 records, and stops reading at the next indexed offset
  /// past end_record, so its cost is O(range), not O(prefix + range).
  /// Failures follow the same retry policy as Scan(); a mid-range retry
  /// replays the visitor from begin_record via `restart`. Range scans are
  /// partial by design and are NOT charged to scan_count() — distributed
  /// scan accounting lives with the coordinator, not with each slice.
  Status ScanRange(size_t begin_record, size_t end_record,
                   const Visitor& visitor, const RestartFn& restart) const;

  const std::string& path() const { return path_; }

 private:
  friend class DiskLayoutCache;

  /// What a full stream learns about the file. Open keeps it: the counts
  /// answer NumSequences/TotalSymbols, the symbol and length folds the
  /// accessors above, the rest seeks and checks range scans. Handles on
  /// one file share it through a DiskLayoutCache.
  struct FileLayout {
    size_t num_sequences = 0;
    uint64_t total_symbols = 0;
    SymbolId max_symbol = -1;
    size_t min_length = 0;
    size_t max_length = 0;
    /// Size of the validated image: header, records, nothing after.
    uint64_t file_bytes = 0;
    /// record_offsets[k] is the byte offset of record k * kIndexStride.
    std::vector<uint64_t> record_offsets;
  };

  DiskSequenceDatabase(std::string path, Options options,
                       std::shared_ptr<const FileLayout> layout);

  /// Open, also reporting the identity of the image it validated.
  static std::unique_ptr<DiskSequenceDatabase> OpenValidated(
      const std::string& path, const Options& options,
      DiskFileIdentity* identity, Status* error);

  /// Open's validating pre-scan: streams `path` once, header to EOF,
  /// rejecting trailing garbage, and fills `layout` and `identity`.
  static Status LearnLayout(const std::string& path, FileLayout* layout,
                            DiskFileIdentity* identity);

  /// One attempt of Scan: checks the size and header count against the
  /// layout, then streams every record to `visitor`.
  Status StreamFile(const Visitor& visitor, bool* delivered_records) const;

  std::string path_;
  Options options_;
  std::shared_ptr<const FileLayout> layout_;
  DiskRangeReader ranges_;
};

/// The layouts DiskSequenceDatabase::Open learned, by path, so a process
/// that opens one file for many jobs (a MiningServer) validates it once,
/// not once per job. Holds layouts only: every Open returns a fresh
/// handle with its own scan counter, retry options and retry budget.
///
/// A cached layout is trusted while the file keeps its identity
/// (DiskFileIdentity: device, inode, size, modification and change
/// times). A hit still reads the header under the caller's retry policy
/// and checks magic, version, count and size, as DiskRangeReader::Open
/// does; a header error is returned as Open would return it. A miss, or
/// any mismatch, runs the validating Open and stores its layout. Thread
/// safe; opens of different paths run in parallel.
class DiskLayoutCache {
 public:
  /// Paths kept; the least recently used is evicted beyond this.
  static constexpr size_t kCapacity = 16;
  /// A layout is stored only when the file's modification and change
  /// times are this much older than the clock at its fstat: timestamps
  /// are coarse, so a same-size rewrite within one tick of the last
  /// change could otherwise keep the identity of the image validated.
  static constexpr int64_t kSettleNs = 100'000'000;

  /// Registers db.layout_cache.hits and db.layout_cache.misses.
  DiskLayoutCache();
  DiskLayoutCache(const DiskLayoutCache&) = delete;
  DiskLayoutCache& operator=(const DiskLayoutCache&) = delete;

  /// DiskSequenceDatabase::Open through the cache, counting each open as
  /// a hit or a miss.
  std::unique_ptr<DiskSequenceDatabase> Open(const std::string& path,
                                             const DiskReadOptions& options,
                                             Status* error);

 private:
  struct Entry {
    std::string path;
    DiskFileIdentity identity;
    std::shared_ptr<const DiskSequenceDatabase::FileLayout> layout;
    uint64_t last_use = 0;
  };

  /// A copy of `path`'s entry (null layout when absent), marked used.
  Entry Find(const std::string& path);
  /// Stores `entry`, evicting the least recently used beyond kCapacity.
  void Store(Entry entry);
  void Forget(const std::string& path);

  obs::Counter& hits_;
  obs::Counter& misses_;
  std::mutex mutex_;
  std::vector<Entry> entries_;
  uint64_t uses_ = 0;
};

}  // namespace nmine

#endif  // NMINE_DB_DISK_DATABASE_H_
