#ifndef NMINE_EXEC_SHARDED_REDUCE_H_
#define NMINE_EXEC_SHARDED_REDUCE_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "nmine/core/sequence.h"
#include "nmine/exec/policy.h"

namespace nmine {
namespace exec {

/// Per-shard record kernel: folds one record into a partial accumulator
/// (already sized to accum_size, zero-initialized at shard start). The
/// kernel may carry mutable per-shard scratch in its closure — each shard
/// gets a FRESH kernel from the factory, so scratch is never shared
/// across threads.
using RecordFn = std::function<void(const SequenceRecord&, std::vector<double>*)>;

/// Builds a fresh kernel (with fresh scratch) for one shard. Called once
/// per shard, possibly concurrently from worker threads; everything it
/// captures by reference must be immutable during the reduction.
using RecordFnFactory = std::function<RecordFn()>;

/// Deterministic sharded sum over a stream of records (a database scan).
///
/// The record stream is cut into fixed-size shards (policy.shard_size
/// records each, in delivery order). Each shard folds its records — in
/// order — into a zeroed partial vector, and partials are added into the
/// running totals in ascending shard order. Because shard boundaries and
/// the merge order depend only on shard_size (never on the thread
/// count), the floating-point additions are grouped identically whether
/// the shards are evaluated inline (num_threads == 1) or on a pool:
/// results are bit-identical for every thread count.
///
/// Parallel mode copies records into waves of 2 x threads shards, reusing
/// each record slot (and its symbol buffer) from wave to wave; when a
/// wave fills, a blocking ParallelFor evaluates its shards and the
/// partials are merged in order before more records are consumed. The
/// producer (the database Scan visitor) therefore never runs concurrently
/// with an unfinished wave, which makes Restart() race-free: when the
/// database retries a failed attempt there are no outstanding tasks, so
/// emptying the slots and zeroing the totals cannot race with workers.
///
/// Usage:
///   ShardedScanReducer reducer(k, policy, factory);
///   Status s = db.Scan([&](const SequenceRecord& r) { reducer.Consume(r); },
///                      [&] { reducer.Restart(); });
///   if (s.ok()) std::vector<double> totals = reducer.Finish();
class ShardedScanReducer {
 public:
  ShardedScanReducer(size_t accum_size, const ExecPolicy& policy,
                     RecordFnFactory factory);

  /// Feeds the next record of the scan. Call from the Scan visitor (one
  /// producer thread).
  void Consume(const SequenceRecord& record);

  /// Resets all accumulation to the pre-scan state. Call from the Scan
  /// restart callback so a retried attempt never double-counts.
  void Restart();

  /// Flushes any buffered records and returns the merged totals. Call
  /// once, after Scan returned OK.
  ///
  /// Cancellation: when policy.run is set it is polled at shard
  /// boundaries; once stopped, remaining kernel work is skipped (records
  /// keep streaming by, unprocessed). The totals are then meaningless —
  /// the caller must check runtime::CheckRun after the scan and discard
  /// them on non-OK, which TryCountMatches/TryCountSupports do.
  std::vector<double> Finish();

 private:
  void BeginSerialShard();
  void FlushWave();

  const size_t accum_size_;
  const size_t shard_size_;
  const size_t threads_;
  const runtime::RunControl* run_;
  bool stopped_ = false;
  RecordFnFactory factory_;

  std::vector<double> totals_;

  // Serial streaming state (threads_ == 1): one live shard at a time.
  RecordFn serial_fn_;
  std::vector<double> serial_partial_;
  size_t serial_count_ = 0;

  // Parallel streaming state: shard_size record slots per shard of the
  // wave, reused by every wave; the first fill_[i] of wave_[i] are live.
  // Shard `current_shard_` is being filled; a wave flushes when all shards
  // are full (or at Finish/Restart).
  std::vector<std::vector<SequenceRecord>> wave_;
  std::vector<size_t> fill_;
  std::vector<std::vector<double>> partials_;
  size_t current_shard_ = 0;
};

/// Deterministic sharded sum over an in-memory record vector (no
/// copies: shards are index ranges). Same grouping contract as
/// ShardedScanReducer: results are bit-identical for every thread count
/// at a fixed shard_size. Partial vectors are bounded by one wave
/// (2 x threads shards), not by the total shard count.
std::vector<double> ReduceRecords(const std::vector<SequenceRecord>& records,
                                  size_t accum_size, const ExecPolicy& policy,
                                  const RecordFnFactory& factory);

}  // namespace exec
}  // namespace nmine

#endif  // NMINE_EXEC_SHARDED_REDUCE_H_
