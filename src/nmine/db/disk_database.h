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

/// A disk-resident sequence database: the paper's operating assumption
/// ("we assume disk-resident data that is far beyond the memory capacity",
/// Section 2.2). Every Scan() streams the file through a fixed-size buffer;
/// only one sequence is materialized at a time.
///
/// The file is treated as unreliable: structural corruption (bad magic,
/// unsupported version, overlong varints, trailing garbage) surfaces as
/// kDataLoss, while open failures, truncation and a file that changed
/// since Open (seen by ScanRange) — which a concurrent rewrite can cause
/// transiently — surface as kUnavailable and are retried
/// with jittered exponential backoff up to the configured policy. A
/// mid-stream retry replays the visitor from the first record, so it is
/// only performed when the caller passed a restart callback.
class DiskSequenceDatabase : public SequenceDatabase {
 public:
  struct Options {
    /// Retry schedule applied to Open's validating pre-scan and to every
    /// Scan(). RetryPolicy::NoRetry() turns retries off.
    RetryPolicy retry;
    /// Sleep dependency; null means the real clock.
    Sleeper* sleeper = nullptr;
    /// Optional per-run cap on cumulative retries across every Scan() of
    /// this database (see RetryBudget). Must outlive the database.
    RetryBudget* retry_budget = nullptr;
  };

  /// Opens `path`, validating the header and pre-scanning once (not counted)
  /// to establish NumSequences/TotalSymbols. On failure returns nullptr and
  /// fills `*error`.
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

  /// Records between two entries of the sparse offset index that Open's
  /// validating pre-scan builds (the byte offset of every kIndexStride-th
  /// record; about 19 KB at 600K sequences). Fixed; the on-disk format is
  /// unchanged.
  static constexpr size_t kIndexStride = 256;

  /// Streams only the records whose 0-based ordinal falls in
  /// [begin_record, end_record), clamped to NumSequences(); an empty range
  /// touches no file. The scan reads the header (bounded to the header's
  /// bytes) and checks that the file size and header count still match
  /// what Open saw — a mismatch is kUnavailable ("file changed since
  /// open"), never a decode of the new image. It then seeks to the nearest
  /// indexed record at or before begin_record, decodes and skips at most
  /// kIndexStride - 1 records, and stops reading at the next indexed offset
  /// past end_record, so its cost is O(range), not O(prefix + range)
  /// (distributed workers count their shard without paying for the file
  /// before it). Failures follow the same retry policy as Scan(); a
  /// mid-range retry replays the visitor from begin_record via `restart`.
  /// Range scans are partial by design and are NOT charged to
  /// scan_count() — distributed scan accounting lives with the
  /// coordinator, not with each worker's slice.
  Status ScanRange(size_t begin_record, size_t end_record,
                   const Visitor& visitor, const RestartFn& restart) const;

  const std::string& path() const { return path_; }

 private:
  DiskSequenceDatabase(std::string path, Options options);

  /// What a full stream learns about the file. Open keeps it: the counts
  /// answer NumSequences/TotalSymbols, the rest seeks and checks range
  /// scans.
  struct FileLayout {
    size_t num_sequences = 0;
    uint64_t total_symbols = 0;
    /// Size of the validated image: header, records, nothing after.
    uint64_t file_bytes = 0;
    /// record_offsets[k] is the byte offset of record k * kIndexStride.
    std::vector<uint64_t> record_offsets;
  };

  /// Streams the file once, invoking `visitor` (when non-null) per record
  /// with ordinal in [begin_record, end_record). With end_record ==
  /// SIZE_MAX it decodes header to EOF, rejects trailing garbage and, when
  /// `layout` is non-null, fills it (Open's pre-scan). A bounded
  /// end_record (ScanRange, already clamped to a non-empty range within
  /// NumSequences) checks the file against `layout_`, seeks through the
  /// index and stops reading after end_record.
  Status StreamFile(const Visitor* visitor, size_t begin_record,
                    size_t end_record, FileLayout* layout,
                    bool* delivered_records) const;

  std::string path_;
  Options options_;
  FileLayout layout_;
};

}  // namespace nmine

#endif  // NMINE_DB_DISK_DATABASE_H_
