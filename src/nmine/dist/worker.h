#ifndef NMINE_DIST_WORKER_H_
#define NMINE_DIST_WORKER_H_

#include <cstdint>
#include <string>

#include "nmine/core/status.h"
#include "nmine/net/retry.h"
#include "nmine/runtime/run_control.h"

namespace nmine {
namespace dist {

/// One mining worker: connects to a coordinator, mirrors its counting
/// environment (database, compatibility matrix, metric — all named in the
/// hello response), and then polls for shard tasks. Each task is counted
/// one exec shard at a time with the exact serial kernel
/// (lattice::BatchCountKernel over a DiskRangeReader that seeks by the
/// byte offsets the task carries; the worker never pre-scans the file), and
/// every finished exec shard is reported as a cumulative progress frame —
/// the worker's checkpoint stream. A worker killed mid-task loses at most
/// one exec shard of work; its successor resumes from the last frame the
/// coordinator journaled.
///
/// The connection is expendable: every RPC failure tears it down and the
/// jittered net::ReconnectBackoff (shared with nmine_client) re-dials and
/// re-hellos. A typed FAILED_PRECONDITION from the coordinator means this
/// worker's view is stale (fenced epoch, superseded scan) — the task is
/// abandoned and the next poll starts fresh.
class DistWorker {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    /// Worker identity: leases and /shardz attribute shards to this name.
    std::string name;
    /// Give up after this long without a successful (re)connect.
    double connect_timeout_s = 30.0;
    /// Artificial delay after every exec shard — drills use it to hold
    /// scans open long enough to kill processes mid-task.
    int64_t throttle_ms = 0;
    /// Cooperative stop (signal handlers / tests). May be null.
    const runtime::RunControl* run = nullptr;
    /// Reconnect backoff schedule.
    RetryPolicy reconnect = net::ReconnectPolicy();
  };

  DistWorker() = default;
  DistWorker(const DistWorker&) = delete;
  DistWorker& operator=(const DistWorker&) = delete;

  /// Runs until the coordinator says shutdown (Ok), the run control stops
  /// it (kCancelled), or the coordinator stays unreachable past
  /// connect_timeout_s (kUnavailable). Blocking.
  Status Run(const Options& options);

  /// Tasks fully processed (cumulative across reconnects).
  int64_t tasks_completed() const { return tasks_completed_; }

 private:
  int64_t tasks_completed_ = 0;
};

}  // namespace dist
}  // namespace nmine

#endif  // NMINE_DIST_WORKER_H_
