#ifndef NMINE_SERVE_SERVER_H_
#define NMINE_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "nmine/db/disk_database.h"
#include "nmine/net/transport.h"
#include "nmine/serve/job.h"
#include "nmine/serve/job_journal.h"
#include "nmine/serve/job_queue.h"
#include "nmine/serve/protocol.h"

namespace nmine {
namespace obs {
class HistogramMetric;
}  // namespace obs

namespace serve {

/// nmine_server's core: accepts line-JSON mining jobs over TCP,
/// runs them on executor threads it owns, and keeps every admitted job
/// durable in a write-ahead journal so a SIGKILL loses nothing a client
/// was ever acknowledged for.
///
/// Robustness spine:
///   - bounded admission (BoundedFairQueue): full queue => typed
///     RESOURCE_EXHAUSTED shed with a retry_after_s hint, never unbounded
///     memory
///   - per-job fault isolation: a job's failure (fault plan, corrupt db,
///     bad spec, deadline) becomes a typed result for that job only
///   - graceful drain (Drain(), wired to SIGTERM by the tool): stop
///     admitting, cancel in-flight jobs via their RunControl so the
///     miners flush RunCheckpoints, journal them back to queued, exit
///   - crash recovery (Start() on an existing state_dir): replay the
///     journal, re-admit queued/interrupt jobs, resume them from their
///     per-job checkpoints; finished jobs keep their cached results
///   - idempotent submits: a (client, tag) pair maps to one job id
///     forever, so a client that resubmits after losing the ack gets the
///     original job instead of a duplicate run
///
/// Metrics: serve.jobs.{admitted,shed,completed,failed,recovered,
/// interrupted} counters, the serve.queue.depth gauge, and the
/// serve.job.queue_wait_ms / serve.job.run_ms lifecycle histograms. Jobs
/// open their database through the server's DiskLayoutCache, which
/// counts db.layout_cache.{hits,misses}. The
/// job board is exported process-wide as /jobsz (and, with tracing on,
/// per-job traces as /tracez) via StatusServer::RegisterEndpoint while the
/// server runs; after Stop or Drain those paths answer 404.
///
/// Tracing (Options::tracing): every job is bound to a 128-bit trace id
/// through its whole lifecycle — received, journaled, queued, admitted,
/// running, checkpointing, drained/requeued, done/failed. The server
/// emits "job" (root), "job.queue_wait", and "job.run" spans per job plus
/// requeue/cancel markers, and installs the job's TraceContext around
/// RunJob so every miner span, log line, and flight event the run
/// produces carries the job's ids (see DESIGN.md §15).
class MiningServer {
 public:
  struct Options {
    /// TCP port; 0 picks an ephemeral port (see port()).
    uint16_t port = 0;
    std::string bind_address = "127.0.0.1";
    /// Directory for the job journal and per-job run checkpoints.
    /// Required; created when missing. Reusing a dir = crash recovery.
    std::string state_dir;
    /// Admission bound: queued (not yet running) jobs beyond this are
    /// shed with RESOURCE_EXHAUSTED.
    size_t queue_capacity = 64;
    /// Executor workers (concurrent jobs). 0 = admit-only mode: jobs
    /// queue and journal but never start (deterministic-shedding tests).
    size_t max_running = 1;
    /// retry_after_s hint attached to shed responses.
    double shed_retry_after_s = 1.0;
    /// Enables per-job request tracing: starts the global Tracer, binds
    /// every job to a 128-bit trace id (client-minted via the protocol's
    /// "trace_id" or server-minted at admission), emits lifecycle spans,
    /// and serves /tracez. Off by default — the lifecycle histograms and
    /// /jobsz latency block work either way.
    bool tracing = false;
    /// When > 0 and tracing is on, resizes the Tracer ring to this many
    /// events before starting it (see obs::Tracer::kDefaultCapacity).
    size_t trace_buffer = 0;
  };

  MiningServer() = default;
  ~MiningServer();
  MiningServer(const MiningServer&) = delete;
  MiningServer& operator=(const MiningServer&) = delete;

  /// Opens (or recovers) the state dir, binds the socket, starts the
  /// accept loop and executors, and registers /jobsz and /tracez. False
  /// with *error set on any setup failure.
  bool Start(const Options& options, std::string* error);

  /// Graceful drain (SIGTERM path): stop admitting (submits get a typed
  /// UNAVAILABLE), cancel in-flight jobs cooperatively so they flush
  /// their checkpoints, journal them back to queued, join everything.
  /// The journal then holds exactly the work a restarted server resumes.
  void Drain();

  /// Abrupt stop: like Drain() but in-flight jobs are NOT journaled back
  /// to queued — their last journaled state stays "running", exactly as
  /// after a SIGKILL. In-process crash-recovery tests use this; real
  /// servers should Drain().
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  uint16_t port() const { return transport_.port(); }

  /// The /jobsz body: board snapshot with per-state counts, queue-wait /
  /// run-latency quantiles (serve.job.queue_wait_ms / serve.job.run_ms),
  /// current max queue wait + oldest-queued-job age, a slow-job exemplar
  /// table, and one entry per tracked job (with its trace_id).
  std::string JobszJson();

  /// The /tracez body. Empty query: {"version": "nmine.tracez.v1",
  /// "traces": [...]} — the most recent completed job traces with their
  /// phase breakdowns. Query "id=<32 hex>": that trace as single-line
  /// Chrome trace JSON (wall-clock anchored), loadable in Perfetto.
  std::string TracezJson(const std::string& query);

  /// The /healthz queue-staleness contributor: returns the
  /// "queue": {...} member (depth, oldest queued age, max queue wait)
  /// and pushes "queue_stalled" into `reasons` when the oldest queued
  /// job has waited implausibly long for an executor.
  std::string HealthQueueMember(std::vector<std::string>* reasons);

 private:
  void ExecutorLoop();
  void RunOne(uint64_t id);
  std::string HandleRequest(const Request& request);
  std::string HandleSubmit(const Request& request);
  std::string StatusResponseLocked(const Job& job) const;
  std::string CheckpointPathFor(uint64_t id) const;
  void Shutdown(bool graceful);
  /// Records `id` as the newest finished job and evicts the earliest
  /// finished jobs (and their dedup entries) beyond
  /// JobJournal::kMaxTerminalKept. Finish order is the journal's
  /// result-line order, which is what compaction keeps, so the live board
  /// holds what a restart would recover; `id` itself is never evicted.
  /// Caller holds finish_mutex_ and jobs_mutex_.
  void RetireLocked(uint64_t id);
  /// Oldest-queued-job age on the trace clock, 0 when nothing is queued.
  /// Caller holds jobs_mutex_.
  int64_t OldestQueuedAgeMsLocked() const;

  Options options_;
  net::LineServer transport_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};

  std::unique_ptr<JobJournal> journal_;
  std::unique_ptr<BoundedFairQueue> queue_;

  /// Lifecycle latency histograms (registry-owned, stable for the
  /// process); fetched once at Start.
  obs::HistogramMetric* queue_wait_hist_ = nullptr;
  obs::HistogramMetric* run_hist_ = nullptr;

  /// Serializes the capacity-check -> journal -> enqueue sequence of a
  /// submit, so an executor can never observe (and finish!) a job before
  /// its submit record is durable.
  std::mutex submit_mutex_;

  /// Serializes an executor's journal-result -> publish sequence, so jobs
  /// retire on the board in the order of their journal result lines.
  /// Taken before jobs_mutex_.
  std::mutex finish_mutex_;

  /// Board state: jobs_, dedup index, id counter. The cv signals job
  /// completion (wait op) and shutdown.
  std::mutex jobs_mutex_;
  std::condition_variable jobs_cv_;
  std::map<uint64_t, Job> jobs_;
  std::map<std::pair<std::string, std::string>, uint64_t> dedup_;
  std::deque<uint64_t> finished_ids_;  // board's finished jobs, oldest first
  uint64_t next_id_ = 1;

  /// The layouts of the files this server's jobs opened, so a job on a
  /// file an earlier job validated reads only its header to open it.
  DiskLayoutCache layouts_;

  std::vector<std::thread> executors_;
  /// This server's /jobsz, /tracez and /healthz registrations.
  std::vector<uint64_t> endpoints_;
};

}  // namespace serve
}  // namespace nmine

#endif  // NMINE_SERVE_SERVER_H_
