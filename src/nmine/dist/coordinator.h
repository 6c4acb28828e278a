#ifndef NMINE_DIST_COORDINATOR_H_
#define NMINE_DIST_COORDINATOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nmine/core/metric.h"
#include "nmine/core/pattern.h"
#include "nmine/core/status.h"
#include "nmine/dist/journal.h"
#include "nmine/dist/wire.h"
#include "nmine/net/transport.h"
#include "nmine/runtime/run_control.h"
#include "nmine/serve/job.h"

namespace nmine {
namespace dist {

/// Coordinator of one fault-tolerant distributed mining run.
///
/// The coordinator owns the mining algorithm end to end: Start opens the
/// job's inputs once (serve::OpenJobInputs) and Run mines them with
/// serve::MineJob on the caller's thread exactly as the solo CLI would —
/// same database open, matrix resolution, checkpointing, and row
/// formatting — splicing in only the Phase-3 batch counting, which it
/// farms out to workers over TCP. Each counting scan is partitioned into
/// dist shards (contiguous runs of exec shards, boundaries aligned to
/// exec::kDefaultShardSize). Task frames carry the byte offsets of their
/// exec shards from Open's index, so no worker pre-scans the file.
/// Workers stream back one partial vector per exec shard, and the
/// coordinator folds all partials into the totals in
/// ascending global shard order before dividing by N once — the exact
/// float grouping of ShardedScanReducer, so the mined pattern set is
/// bit-identical to the serial CLI at any worker count and under any kill
/// schedule.
///
/// Fault model:
///  - Worker death: shards are held under a time-bounded lease renewed by
///    every poll/progress frame. A missed lease returns the shard to the
///    pending pool; the next live worker resumes from the shard's last
///    journaled exec-shard checkpoint instead of restarting it.
///  - Zombie workers: every grant carries a per-shard epoch, bumped and
///    journaled (durably) BEFORE the grant response, so epochs never regress
///    — even across coordinator restarts. Progress carrying a stale epoch
///    is fenced: typed FAILED_PRECONDITION, dropped, counted in
///    dist.results.fenced. Partials are stored by replacement (cumulative
///    arrays), so a duplicate or racing frame can never double-count.
///  - Coordinator death: assignment epochs and in-flight scan progress
///    live in a write-ahead journal (<state_dir>/dist.journal). A
///    restarted coordinator resumes the run from its RunCheckpoint; the
///    re-issued probe batch is matched to the journaled scan by a
///    fingerprint over (metric, patterns) and adopts the journaled shard
///    progress, so worker output from the previous life is not recounted.
///
/// Introspection: /shardz on the status server (per-shard owner, epoch,
/// lease age, reassignments, progress), dist.* metrics, and grant /
/// reassign / fence spans in the tracer.
class Coordinator {
 public:
  struct Options {
    /// TCP port for workers and clients; 0 picks an ephemeral port.
    uint16_t port = 0;
    std::string bind_address = "127.0.0.1";
    /// Journal + run checkpoint live here. Reusing a dir resumes.
    std::string state_dir;
    /// The job to mine. Only "collapse" distributes its Phase-3 scans;
    /// other algorithms run entirely local.
    serve::JobSpec spec;
    /// Shard lease duration. A worker silent this long loses its shards.
    int64_t lease_ms = 2000;
    /// Poll-again hint handed to idle workers.
    int64_t poll_idle_ms = 50;
    /// Records per dist shard; rounded up to a multiple of the exec shard
    /// size so dist boundaries coincide with the serial reducer's grid.
    uint64_t records_per_task = 1024;
  };

  Coordinator();
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Opens the journal and database, binds the listen socket, starts the
  /// accept loop, and registers /shardz. False with *error on failure.
  bool Start(const Options& options, std::string* error);

  /// Runs the mining job to completion on the calling thread, counting
  /// Phase-3 batches through connected workers (local when none connect —
  /// see CountBatch). Blocks; returns the terminal JobResult. After Run
  /// returns, polling workers receive shutdown and waiting clients the
  /// result. Call once per Start.
  serve::JobResult Run();

  /// Abrupt stop: cancels the run, closes the listener, joins threads.
  /// The journal keeps the in-flight state — a new Coordinator on the
  /// same state_dir resumes (this is the crash path tests exercise).
  void Stop();

  /// Cancellation token of the governed run (signal handlers flip it).
  runtime::RunControl* run_control() { return &run_control_; }

  uint16_t port() const { return transport_.port(); }

  /// The /shardz board: one JSON object per dist shard of the scan in
  /// flight plus run-level counters.
  std::string ShardzJson();

 private:
  struct ShardState {
    uint64_t begin_record = 0;
    uint64_t end_record = 0;
    std::string owner;             // empty = pending or complete
    int64_t lease_deadline_us = 0; // steady clock; owner only
    int64_t granted_us = 0;
    int64_t reassigns = 0;
    ShardProgress progress;
  };

  /// Counts one probe batch: the Phase-3 hook spliced into RunJob.
  Status CountBatch(Metric metric, const std::vector<Pattern>& probe,
                    std::vector<double>* values);

  std::string HandleRequest(const DistRequest& request);
  std::string HandleHello(const DistRequest& request);
  std::string HandlePoll(const DistRequest& request);
  std::string HandleProgress(const DistRequest& request);
  std::string HandleWait();

  /// Returns expired leases' shards to the pending pool. Caller holds
  /// state_mutex_.
  void SweepLeasesLocked(int64_t now_us);

  /// Counts one pending shard on the Run() thread (liveness when no live
  /// worker exists) through the same journaled grant/progress path a
  /// worker would take. Enters with `lock` held, drops it for the scan,
  /// reacquires before returning.
  Status CountShardLocallyLocked(std::unique_lock<std::mutex>& lock);

  /// Merges all complete shards into `values` in ascending shard order
  /// (the serial reducer's grouping) and divides by N. Caller holds
  /// state_mutex_ with every shard complete.
  void MergeLocked(std::vector<double>* values) const;

  void EmitDistSpan(const char* name, uint64_t shard, uint64_t epoch,
                    const std::string& worker);

  Options options_;
  // The job's opened database and matrix, set in Start() before any thread
  // that reads them starts, and kept until the destructor: Run() mines on
  // them, the hello mirrors them, and the local fallback counts with them.
  std::unique_ptr<serve::JobInputs> env_;
  std::unique_ptr<DistJournal> journal_;
  ReplayState replay_;
  bool adopt_pending_ = false;  // replay_ holds an unconsumed in-flight scan

  uint64_t num_sequences_ = 0;
  uint64_t num_symbols_ = 0;  // matrix dimension m of the database
  uint64_t exec_shard_size_ = 0;
  uint64_t records_per_shard_ = 0;

  net::LineServer transport_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  runtime::RunControl run_control_;
  uint64_t trace_hi_ = 0;
  uint64_t trace_lo_ = 0;

  // Scan + assignment state. One mutex: grants, progress, lease sweeps,
  // and the merge all serialize here (durable journal appends happen under
  // it, so the journaled and in-memory orders agree).
  std::mutex state_mutex_;
  std::condition_variable scan_cv_;    // progress/completion of the scan
  std::condition_variable result_cv_;  // terminal JobResult published
  std::map<uint64_t, uint64_t> epochs_;  // per-shard, survives scans
  bool scan_active_ = false;
  uint64_t scan_id_ = 0;
  uint64_t next_scan_ = 0;
  Metric scan_metric_ = Metric::kMatch;
  std::vector<Pattern> scan_patterns_;
  std::map<uint64_t, ShardState> shards_;
  std::map<std::string, int64_t> workers_;  // name -> last frame (steady us)
  bool result_ready_ = false;
  serve::JobResult result_;
};

}  // namespace dist
}  // namespace nmine

#endif  // NMINE_DIST_COORDINATOR_H_
