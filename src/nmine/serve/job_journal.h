#ifndef NMINE_SERVE_JOB_JOURNAL_H_
#define NMINE_SERVE_JOB_JOURNAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nmine/core/status.h"
#include "nmine/runtime/append_log.h"
#include "nmine/serve/job.h"

namespace nmine {
namespace serve {

/// Write-ahead journal of the server's job board, the crash-recovery spine
/// of nmine_server.
///
/// Every job transition is appended to `<state_dir>/jobs.journal` as one
/// durable JSON line (runtime::AppendLog) BEFORE the client sees a
/// response:
///
///   {"event": "submit", "id": N, "client": C, "tag": T,
///    ["trace_id": H,] "spec": {...}}
///   {"event": "state",  "id": N, "state": "running"|"queued"|...}
///   {"event": "result", "id": N, "result": {...}}
///
/// Submit ordering gives at-most-once admission: a submit is journaled
/// only AFTER it clears the admission queue, and the "ok" response is sent
/// only AFTER the journal write. A crash between the two means the client
/// never saw ok and safely resubmits (the idempotency tag dedups if the
/// journal record did land).
///
/// Recovery: Open() replays the journal's newline-terminated lines; the
/// AppendLog torn-tail contract drops the one write that was in flight at
/// SIGKILL. Jobs whose last state
/// was running are rewound to queued — their RunCheckpoint carries the
/// actual progress. Open() then compacts: the replayed board is rewritten
/// atomically as a fresh journal (keeping the `kMaxTerminalKept` jobs that
/// finished last, in finish order), so the journal stays bounded across
/// restarts.
class JobJournal {
 public:
  /// The earliest-finished terminal (done/failed) jobs beyond this count
  /// are dropped at compaction; queued/running jobs are always kept.
  static constexpr size_t kMaxTerminalKept = 512;

  /// Opens (creating state_dir if needed), replays, and compacts the
  /// journal. `recovered` receives the replayed board keyed by job id
  /// (running already rewound to queued); `next_id` the first unused job
  /// id. nullptr on unreadable/unwritable state, with *error set.
  static std::unique_ptr<JobJournal> Open(const std::string& state_dir,
                                          std::map<uint64_t, Job>* recovered,
                                          uint64_t* next_id,
                                          std::string* error);

  /// Each append is one whole line, durable before it returns (see
  /// runtime::AppendLog), so an acknowledged append survives SIGKILL.
  Status AppendSubmit(const Job& job);
  Status AppendState(uint64_t id, JobState state);
  Status AppendResult(uint64_t id, const JobResult& result);

  const std::string& path() const { return log_->path(); }

  /// Ids of the terminal jobs Open() kept, in the order they finished
  /// (their result lines' order), oldest first.
  const std::vector<uint64_t>& finished_order() const { return finished_; }

 private:
  JobJournal(std::unique_ptr<runtime::AppendLog> log,
             std::vector<uint64_t> finished)
      : log_(std::move(log)), finished_(std::move(finished)) {}

  std::unique_ptr<runtime::AppendLog> log_;
  std::vector<uint64_t> finished_;
};

}  // namespace serve
}  // namespace nmine

#endif  // NMINE_SERVE_JOB_JOURNAL_H_
