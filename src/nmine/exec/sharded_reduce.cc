#include "nmine/exec/sharded_reduce.h"

#include <algorithm>
#include <utility>

#include "nmine/exec/parallel_for.h"
#include "nmine/runtime/run_control.h"

namespace nmine {
namespace exec {

namespace {

void MergeInto(std::vector<double>* totals, const std::vector<double>& partial) {
  for (size_t i = 0; i < totals->size(); ++i) {
    (*totals)[i] += partial[i];
  }
}

}  // namespace

ShardedScanReducer::ShardedScanReducer(size_t accum_size,
                                       const ExecPolicy& policy,
                                       RecordFnFactory factory)
    : accum_size_(accum_size),
      shard_size_(std::max<size_t>(1, policy.shard_size)),
      threads_(policy.ResolvedThreads()),
      run_(policy.run),
      factory_(std::move(factory)) {
  totals_.assign(accum_size_, 0.0);
  if (threads_ <= 1) {
    BeginSerialShard();
  } else {
    // Two shards per thread bounds buffered records (and partial vectors)
    // per wave while leaving enough shards to keep every worker busy.
    wave_.assign(2 * threads_, std::vector<SequenceRecord>(shard_size_));
    fill_.assign(wave_.size(), 0);
    partials_.resize(wave_.size());
  }
}

void ShardedScanReducer::BeginSerialShard() {
  serial_fn_ = factory_();
  serial_partial_.assign(accum_size_, 0.0);
  serial_count_ = 0;
}

void ShardedScanReducer::Consume(const SequenceRecord& record) {
  // Once stopped, records stream past unprocessed: the scan completes (so
  // database retry accounting stays simple) but no more kernel work runs,
  // and the now-meaningless totals are discarded by the caller.
  if (stopped_) return;
  if (threads_ <= 1) {
    serial_fn_(record, &serial_partial_);
    if (++serial_count_ == shard_size_) {
      MergeInto(&totals_, serial_partial_);
      BeginSerialShard();
      stopped_ = runtime::StopRequested(run_);
    }
    return;
  }
  // Copy-assigning into a live slot reuses its symbol buffer, so a
  // steady-state wave allocates nothing.
  wave_[current_shard_][fill_[current_shard_]] = record;
  if (++fill_[current_shard_] == shard_size_) {
    ++current_shard_;
    if (current_shard_ == wave_.size()) FlushWave();
  }
}

void ShardedScanReducer::FlushWave() {
  size_t n_shards = current_shard_;
  if (n_shards < wave_.size() && fill_[n_shards] > 0) ++n_shards;
  if (n_shards == 0) return;
  if (runtime::StopRequested(run_)) stopped_ = true;
  if (!stopped_) {
    ParallelFor(
        threads_, n_shards,
        [this](size_t i) {
          partials_[i].assign(accum_size_, 0.0);
          RecordFn fn = factory_();
          for (size_t r = 0; r < fill_[i]; ++r) {
            fn(wave_[i][r], &partials_[i]);
          }
        },
        run_);
    if (runtime::StopRequested(run_)) stopped_ = true;
  }
  if (!stopped_) {
    // ParallelFor is a barrier, so merging in ascending shard order here
    // reproduces the serial grouping exactly. A stopped ParallelFor may
    // have skipped shards (stale partials), so merging is gated above.
    for (size_t i = 0; i < n_shards; ++i) {
      MergeInto(&totals_, partials_[i]);
    }
  }
  std::fill(fill_.begin(), fill_.begin() + n_shards, 0);
  current_shard_ = 0;
}

void ShardedScanReducer::Restart() {
  totals_.assign(accum_size_, 0.0);
  stopped_ = runtime::StopRequested(run_);
  if (threads_ <= 1) {
    BeginSerialShard();
    return;
  }
  // No tasks are in flight between Consume calls (waves are synchronous),
  // so emptying the slots cannot race with workers.
  std::fill(fill_.begin(), fill_.end(), 0);
  current_shard_ = 0;
}

std::vector<double> ShardedScanReducer::Finish() {
  if (threads_ <= 1) {
    if (serial_count_ > 0 && !stopped_) MergeInto(&totals_, serial_partial_);
    BeginSerialShard();
  } else {
    FlushWave();
  }
  return std::move(totals_);
}

std::vector<double> ReduceRecords(const std::vector<SequenceRecord>& records,
                                  size_t accum_size, const ExecPolicy& policy,
                                  const RecordFnFactory& factory) {
  const size_t shard_size = std::max<size_t>(1, policy.shard_size);
  const size_t threads = policy.ResolvedThreads();
  const size_t n_shards = (records.size() + shard_size - 1) / shard_size;
  std::vector<double> totals(accum_size, 0.0);
  if (n_shards == 0) return totals;

  // Same wave structure as the streaming reducer, but shards are index
  // ranges into `records` — no copies. Stops between waves (and between
  // shards, inside ParallelFor) when policy.run is stopped; the partial
  // totals are then meaningless and the caller discards them.
  const size_t wave_width = threads <= 1 ? 1 : 2 * threads;
  std::vector<std::vector<double>> partials(std::min(wave_width, n_shards));
  for (size_t base = 0; base < n_shards; base += wave_width) {
    if (runtime::StopRequested(policy.run)) break;
    const size_t count = std::min(wave_width, n_shards - base);
    ParallelFor(
        threads, count,
        [&](size_t i) {
          partials[i].assign(accum_size, 0.0);
          RecordFn fn = factory();
          const size_t begin = (base + i) * shard_size;
          const size_t end = std::min(begin + shard_size, records.size());
          for (size_t r = begin; r < end; ++r) {
            fn(records[r], &partials[i]);
          }
        },
        policy.run);
    if (runtime::StopRequested(policy.run)) break;
    for (size_t i = 0; i < count; ++i) {
      MergeInto(&totals, partials[i]);
    }
  }
  return totals;
}

}  // namespace exec
}  // namespace nmine
