#ifndef NMINE_EXEC_SHARDED_REDUCE_H_
#define NMINE_EXEC_SHARDED_REDUCE_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "nmine/core/sequence.h"
#include "nmine/exec/policy.h"

namespace nmine {
namespace exec {

/// Per-record kernel: folds one record into a partial accumulator. The
/// per-record API of BatchCountKernel, which out-of-process workers and
/// benchmarks call one record at a time; the reducers below take ShardFns.
using RecordFn = std::function<void(const SequenceRecord&, std::vector<double>*)>;

/// Shard kernel: folds records[0, count), in order, into `partial`
/// (accum_size entries, zeroed at shard start). Called once per shard,
/// possibly concurrently from worker threads on different shards, so any
/// mutable scratch lives in the call; everything it captures by reference
/// must be immutable during the reduction.
using ShardFn = std::function<void(const SequenceRecord* records,
                                   size_t count, std::vector<double>* partial)>;

/// One shard's records, copied in delivery order into slots that keep
/// their symbol buffers: refilling it at steady state allocates nothing.
class RecordBuffer {
 public:
  void Add(const SequenceRecord& record) {
    if (size_ == slots_.size()) {
      slots_.push_back(record);
    } else {
      slots_[size_] = record;
    }
    ++size_;
  }
  void Clear() { size_ = 0; }

  const SequenceRecord* data() const { return slots_.data(); }
  size_t size() const { return size_; }

 private:
  std::vector<SequenceRecord> slots_;
  size_t size_ = 0;
};

/// Deterministic sharded sum over a stream of records (a database scan).
///
/// The record stream is cut into fixed-size shards (policy.shard_size
/// records each, in delivery order). Each shard folds its records — in
/// order — into a zeroed partial vector, and partials are added into the
/// running totals in ascending shard order. Because shard boundaries and
/// the merge order depend only on shard_size (never on the thread
/// count), the floating-point additions are grouped identically whatever
/// the thread count: results are bit-identical for every num_threads.
///
/// Records are copied into waves of shards (RecordBuffers reused from
/// wave to wave): 2 x threads shards, or one shard evaluated inline on
/// the scanning thread when num_threads == 1. When a wave fills, a
/// blocking ParallelFor hands each shard's records to the ShardFn in one
/// call and the partials are merged in order before more records are
/// consumed. The producer (the database Scan visitor) therefore never
/// runs concurrently with an unfinished wave, which makes Restart()
/// race-free: when the database retries a failed attempt there are no
/// outstanding tasks, so emptying the buffers and zeroing the totals
/// cannot race with workers.
///
/// Usage:
///   ShardedScanReducer reducer(k, policy, fn);
///   Status s = db.Scan([&](const SequenceRecord& r) { reducer.Consume(r); },
///                      [&] { reducer.Restart(); });
///   if (s.ok()) std::vector<double> totals = reducer.Finish();
class ShardedScanReducer {
 public:
  ShardedScanReducer(size_t accum_size, const ExecPolicy& policy, ShardFn fn);

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
  void FlushWave();

  const size_t accum_size_;
  const size_t shard_size_;
  const size_t threads_;
  const runtime::RunControl* run_;
  bool stopped_ = false;
  ShardFn fn_;

  std::vector<double> totals_;

  // One buffer per shard of the wave, reused by every wave. Shard
  // `current_shard_` is being filled; a wave flushes when all shards are
  // full (or at Finish).
  std::vector<RecordBuffer> wave_;
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
                                  const ShardFn& fn);

}  // namespace exec
}  // namespace nmine

#endif  // NMINE_EXEC_SHARDED_REDUCE_H_
