#ifndef NMINE_RUNTIME_APPEND_LOG_H_
#define NMINE_RUNTIME_APPEND_LOG_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "nmine/core/status.h"

namespace nmine {
namespace runtime {

/// Writes `contents` to `path` atomically: temp file `path + ".tmp"` in
/// the same directory, fsync, rename. A crash at any point leaves either
/// the previous file or the new one — never a torn mixture — so the last
/// good checkpoint (or compacted log) always survives a failed flush.
Status AtomicWriteFile(const std::string& path, const std::string& contents);

/// Removes `path` if present. Best-effort: a failure is logged under
/// `component` and otherwise ignored (a stale checkpoint is refused by its
/// guard fields on the next load, so leaking one is safe).
void BestEffortRemoveFile(const std::string& path, const char* component);

/// The write-ahead log mechanics shared by serve::JobJournal and
/// dist::DistJournal: a file of newline-terminated lines, each appended
/// whole and fsync'd before the append returns.
///
/// Torn-tail contract: a crash can tear only the append in flight, which
/// by construction was never acknowledged. Open therefore replays exactly
/// the newline-terminated prefix of the file; an unterminated final
/// fragment is never handed to the replay callback, and the compaction
/// that follows replay rewrites the file without it. A `.tmp` left behind
/// by a crash inside a compaction is never read, and the next compaction
/// renames over it.
class AppendLog {
 public:
  using ReplayFn = std::function<void(const std::string& line)>;
  /// Returns the bytes that replace the replayed file (every line
  /// newline-terminated); called once, after the last replayed line.
  using CompactFn = std::function<std::string()>;

  /// Creates `dir` when missing, replays `<dir>/<name>` line by line
  /// (without the newline), writes the compacted contents atomically, and
  /// reopens the file for append. kUnavailable with *out null when the
  /// directory or the file cannot be created, read, or written.
  static Status Open(const std::string& dir, const std::string& name,
                     const ReplayFn& replay, const CompactFn& compact,
                     std::unique_ptr<AppendLog>* out);

  ~AppendLog();
  AppendLog(const AppendLog&) = delete;
  AppendLog& operator=(const AppendLog&) = delete;

  /// Writes `line` (newline-terminated) whole and fsyncs it. Appends from
  /// concurrent threads are serialized, so lines never interleave.
  Status Append(const std::string& line);

  const std::string& path() const { return path_; }

 private:
  AppendLog(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  const std::string path_;
  std::mutex mutex_;
  const int fd_;
};

}  // namespace runtime
}  // namespace nmine

#endif  // NMINE_RUNTIME_APPEND_LOG_H_
