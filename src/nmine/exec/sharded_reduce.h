#ifndef NMINE_EXEC_SHARDED_REDUCE_H_
#define NMINE_EXEC_SHARDED_REDUCE_H_

#include <cstddef>
#include <functional>
#include <memory>
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

namespace detail {
class ShardPipeline;
}  // namespace detail

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
/// Shards are counted as they fill. Records are copied into a ring of
/// 4 x threads shard slots (one slot at num_threads == 1); a full slot is
/// published, and up to threads - 1 helper tasks on ThreadPool::Shared()
/// claim published shards in order, while the producer (the database
/// Scan visitor) keeps decoding into the next free slot. Partials merge
/// in ascending shard order as they complete, which frees their slots.
/// When the ring is full the producer counts the oldest unclaimed shard
/// itself instead of sleeping, so a reduction finishes even if no helper
/// ever starts. A helper leaves when no published shard is left to claim,
/// so it holds a pool worker only while there is work; a publication
/// submits a new one only if fewer than threads - 1 are queued or
/// counting, and wakes the producer only when it waits.
///
/// Restart() drops the unclaimed shards, waits for the claimed ones, then
/// resets the totals: a retried attempt never double-counts. The
/// destructor joins the helpers, also when Finish() was never called
/// (a failed scan).
///
/// Usage:
///   ShardedScanReducer reducer(k, policy, fn);
///   Status s = db.Scan([&](const SequenceRecord& r) { reducer.Consume(r); },
///                      [&] { reducer.Restart(); });
///   if (s.ok()) std::vector<double> totals = reducer.Finish();
class ShardedScanReducer {
 public:
  ShardedScanReducer(size_t accum_size, const ExecPolicy& policy, ShardFn fn);
  ~ShardedScanReducer();

  ShardedScanReducer(const ShardedScanReducer&) = delete;
  ShardedScanReducer& operator=(const ShardedScanReducer&) = delete;

  /// Feeds the next record of the scan. Call from the Scan visitor (one
  /// producer thread).
  void Consume(const SequenceRecord& record);

  /// Resets all accumulation to the pre-scan state. Call from the Scan
  /// restart callback so a retried attempt never double-counts.
  void Restart();

  /// Counts any buffered records and returns the merged totals. Call
  /// once, after Scan returned OK.
  ///
  /// Cancellation: when policy.run is set it is polled as each shard is
  /// claimed; once stopped, the remaining shards skip the kernel (records
  /// keep streaming by, unprocessed). The totals are then meaningless —
  /// the caller must check runtime::CheckRun after the scan and discard
  /// them on non-OK, which TryCountMatches/TryCountSupports do.
  std::vector<double> Finish();

 private:
  // Shared with the helper tasks, which may start after the reduction
  // ended and then leave without touching anything else.
  std::shared_ptr<detail::ShardPipeline> pipeline_;
};

/// Deterministic sharded sum over an in-memory record vector. Same engine
/// and grouping contract as ShardedScanReducer, but shards are index
/// ranges into `records` (no copies), and at most a ring's worth of
/// partial vectors exists at once. Results are bit-identical for every
/// thread count at a fixed shard_size.
std::vector<double> ReduceRecords(const std::vector<SequenceRecord>& records,
                                  size_t accum_size, const ExecPolicy& policy,
                                  const ShardFn& fn);

}  // namespace exec
}  // namespace nmine

#endif  // NMINE_EXEC_SHARDED_REDUCE_H_
