#ifndef NMINE_DB_DISK_DATABASE_H_
#define NMINE_DB_DISK_DATABASE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nmine/core/status.h"
#include "nmine/db/format.h"
#include "nmine/db/retry.h"
#include "nmine/db/sequence_database.h"

namespace nmine {

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
/// and a file that changed since Open (seen by ScanRange) — which a
/// concurrent rewrite can cause transiently — surface as kUnavailable and
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

  size_t NumSequences() const override { return layout_.num_sequences; }
  using SequenceDatabase::Scan;
  Status Scan(const Visitor& visitor, const RestartFn& restart) const override;
  uint64_t TotalSymbols() const override { return layout_.total_symbols; }

  /// The largest symbol in the file, -1 when it holds none: the data needs
  /// a max_symbol() + 1 symbol alphabet.
  SymbolId max_symbol() const { return layout_.max_symbol; }
  /// Shortest and longest record; both 0 for an empty file.
  size_t min_length() const { return layout_.min_length; }
  size_t max_length() const { return layout_.max_length; }
  /// Size of the validated image: header, records, nothing after.
  uint64_t file_bytes() const { return layout_.file_bytes; }

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
  DiskSequenceDatabase(std::string path, Options options);

  /// What a full stream learns about the file. Open keeps it: the counts
  /// answer NumSequences/TotalSymbols, the symbol and length folds the
  /// accessors above, the rest seeks and checks range scans.
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

  /// Streams the whole file once, header to EOF, rejecting trailing
  /// garbage, invoking `visitor` (when non-null) per record and, when
  /// `layout` is non-null, filling it (Open's pre-scan).
  Status StreamFile(const Visitor* visitor, FileLayout* layout,
                    bool* delivered_records) const;

  std::string path_;
  Options options_;
  FileLayout layout_;
  std::unique_ptr<DiskRangeReader> ranges_;
};

}  // namespace nmine

#endif  // NMINE_DB_DISK_DATABASE_H_
