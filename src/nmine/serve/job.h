#ifndef NMINE_SERVE_JOB_H_
#define NMINE_SERVE_JOB_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "nmine/core/compatibility_matrix.h"
#include "nmine/core/metric.h"
#include "nmine/core/pattern.h"
#include "nmine/core/status.h"
#include "nmine/mining/miner_options.h"
#include "nmine/obs/json_parse.h"
#include "nmine/runtime/run_control.h"

namespace nmine {

class DiskLayoutCache;
class DiskSequenceDatabase;
class FaultInjectingDatabase;
class RetryBudget;
class RetryingDatabase;
class SequenceDatabase;

namespace serve {

/// Lifecycle of one mining job inside the server.
///
///   queued --> running --> done
///                 |   \--> failed        (typed error to the client)
///                 \--> queued            (drain interrupt / crash; the job
///                                         is re-admitted on restart and
///                                         resumes from its checkpoint)
enum class JobState {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,
  kFailed = 3,
};

const char* ToString(JobState state);
std::optional<JobState> ParseJobState(const std::string& text);

/// Most threads one job may ask for. The shared pool grows to a job's
/// thread count and never shrinks, so a remote request must not size it.
inline constexpr uint64_t kMaxJobThreads = 256;

/// One mining request, the unit of admission, journaling, and execution.
/// `nmine_cli mine`, `nmine_client submit` and `nmine_coordinator` all
/// read their job flags into this one struct, so a job run by the server
/// is bit-identical to the same flags run solo (the chaos drill diffs the
/// two).
struct JobSpec {
  std::string db_path;               // required
  std::string algorithm = "collapse";
  std::string metric = "match";      // match|support
  std::string matrix_path;           // wins over uniform_alpha when set
  double uniform_alpha = -1.0;       // < 0: identity matrix
  double threshold = 0.1;
  uint64_t max_span = 10;
  uint64_t max_gap = 0;
  uint64_t max_level = 0;            // 0: use max_span
  uint64_t sample_size = 1000;
  double delta = 1e-4;
  uint64_t seed = 42;
  uint64_t num_threads = 1;
  std::string fault_plan;            // drill fault injection, may be empty
  int64_t scan_retries = 2;
  double retry_backoff_ms = 5.0;
  int64_t retry_budget = -1;         // < 0: unlimited
  double deadline_s = 0.0;           // per-job; 0: none
  uint64_t memory_budget = 0;        // bytes; 0: unlimited

  /// Appends this spec as a JSON object (used by the wire protocol and the
  /// job journal — one codec, so a journaled job replays exactly).
  void AppendJson(std::string* out) const;

  /// Parses a spec from a JSON object. Unknown members are ignored
  /// (forward compatibility); a missing/empty `db` is an error, and so is
  /// a count that is not a whole number in range (obs::ReadWholeNumber)
  /// or `threads` above kMaxJobThreads. A negative `retry_budget` reads as
  /// unlimited.
  static std::optional<JobSpec> FromJson(const obs::JsonValue& value,
                                         std::string* error);
};

/// Terminal outcome of a job: either the result rows (exactly the CLI's
/// pattern/value table cells, preformatted so no float re-rendering can
/// drift) or a typed error.
struct JobResult {
  bool ok = false;
  std::string error_code;  // StatusCode wire name ("DATA_LOSS", ...) if !ok
  std::string message;
  std::vector<std::pair<std::string, std::string>> rows;
  int64_t scans = 0;
  bool truncated = false;
  /// True when the run continued from an existing RunCheckpoint instead of
  /// starting over (recovered jobs must set this — the drill asserts it).
  bool resumed_from_checkpoint = false;

  void AppendJson(std::string* out) const;
  static std::optional<JobResult> FromJson(const obs::JsonValue& value);
};

/// One job as tracked by the server: spec + lifecycle + its cancellation
/// token. State transitions and result publication happen under the
/// server's job mutex; the RunControl is the only field touched from
/// other threads (it is lock-free by design).
///
/// Every job carries a 128-bit trace id (client-minted or server-minted at
/// admission) that names its end-to-end trace, and `root_span_id`, the
/// lifecycle root span all of the job's spans descend from. The *_tus
/// timestamps are on the tracer's clock base (obs::SinceEpochUs()) so
/// lifecycle spans can be emitted with exact queue-wait and run bounds;
/// the *_us wall-clock fields remain what /jobsz and the journal report.
struct Job {
  uint64_t id = 0;
  std::string client;
  std::string tag;  // client idempotency key; empty = no dedup
  JobSpec spec;
  JobState state = JobState::kQueued;
  int64_t submit_us = 0;
  int64_t start_us = 0;
  int64_t finish_us = 0;
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  uint64_t root_span_id = 0;
  int64_t submit_tus = 0;  // trace clock: admitted to the queue
  int64_t start_tus = 0;   // trace clock: last admitted to run
  int64_t finish_tus = 0;  // trace clock: reached a terminal state
  int64_t requeues = 0;    // drain/crash re-admissions
  int64_t resubmits = 0;   // idempotent duplicate submits absorbed
  JobResult result;
  std::string checkpoint_path;
  runtime::RunControl run_control;
};

/// Extension points a distributed driver splices into the run. The driver
/// reuses ALL of the job path (database open, matrix resolution,
/// checkpointing, row formatting) so its output stays byte-identical to a
/// solo run by construction; only the hooked stage differs.
struct RunJobHooks {
  /// Counts one Phase-3 probe batch out of process (collapse algorithm
  /// only; other algorithms ignore it). Must be bit-identical to the
  /// in-process counters — see MinerOptions::phase3_count_override.
  std::function<Status(Metric metric, const std::vector<Pattern>& probe,
                       std::vector<double>* values)>
      phase3_count;
};

/// The miner options `spec` asks for: thresholds, pattern space, sample,
/// seed, threads and memory budget. The caller adds the run control, the
/// checkpoint path and any hook.
MinerOptions MinerOptionsFor(const JobSpec& spec);

/// What a job mines, opened once: the database under the spec's retry
/// policy and retry budget, the fault-plan wrappers when the spec has a
/// plan, and the compatibility matrix sized by the alphabet Open learned.
/// A coordinator keeps these for its whole run.
struct JobInputs {
  JobInputs();
  ~JobInputs();
  JobInputs(const JobInputs&) = delete;
  JobInputs& operator=(const JobInputs&) = delete;

  std::unique_ptr<RetryBudget> retry_budget;  // null: unlimited
  std::unique_ptr<DiskSequenceDatabase> db;
  std::unique_ptr<FaultInjectingDatabase> injector;  // with a fault plan
  std::unique_ptr<RetryingDatabase> retrier;         // over the injector
  std::optional<CompatibilityMatrix> matrix;

  /// What the miners scan: the retrier when there is a fault plan, else
  /// the database. The plan's scan indices count mining scans only.
  const SequenceDatabase& mining_db() const;
};

/// Opens `spec`'s database (one validating pass, which also learns the
/// alphabet) and resolves its matrix. Null with `*error` set on failure.
/// With `layouts`, a file whose identity and header match the layout
/// cached there is opened on that layout, reading only its header. Under
/// a fault plan the reader makes one attempt per full scan and the
/// RetryingDatabase above it does the retrying.
std::unique_ptr<JobInputs> OpenJobInputs(const JobSpec& spec, Status* error,
                                         DiskLayoutCache* layouts = nullptr);

/// Mines opened `inputs` as one governed run with the requested algorithm
/// under `run`, checkpointing to `checkpoint_path` (border-collapsing runs
/// resume from it when it exists). Never throws and never returns a
/// partial answer: the outcome is either ok with the full rows, or a typed
/// error. kCancelled / kDeadlineExceeded surface as a !ok result with the
/// corresponding wire code — the caller decides whether that means
/// "re-queue" (drain) or "failed" (per-job deadline).
JobResult MineJob(const JobSpec& spec, const JobInputs& inputs,
                  const std::string& checkpoint_path,
                  const runtime::RunControl* run, const RunJobHooks& hooks);

/// OpenJobInputs then MineJob: the file is read once per charged scan,
/// plus once to open it unless `layouts` holds its layout.
JobResult RunJob(const JobSpec& spec, const std::string& checkpoint_path,
                 const runtime::RunControl* run,
                 const RunJobHooks& hooks = RunJobHooks(),
                 DiskLayoutCache* layouts = nullptr);

}  // namespace serve
}  // namespace nmine

#endif  // NMINE_SERVE_JOB_H_
