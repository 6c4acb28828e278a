#include "nmine/exec/sharded_reduce.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "nmine/exec/thread_pool.h"
#include "nmine/runtime/run_control.h"

namespace nmine {
namespace exec {
namespace detail {

/// The engine behind ShardedScanReducer and ReduceRecords: a ring of
/// shard slots that one producer thread fills and publishes, and that the
/// producer and up to threads - 1 helper tasks count.
///
/// Shards are numbered in publication order, and under mutex_:
///   [merged_, claimed_)    claimed: being counted, or done and not merged;
///   [claimed_, published_) published and unclaimed;
///   published_             the shard the producer fills (scan mode).
/// Shard k lives in slot k % slots_.size() from the time it is filled to
/// the time it is merged, so the ring is full when published_ - merged_
/// equals the slot count. Shards are claimed in order and merged in order
/// by one merger at a time (merging_), which owns totals_ while it adds.
///
/// A helper holds its pool worker only while a published shard is left to
/// claim: it leaves when the ring has none, and the next publication
/// submits a fresh helper if fewer than threads - 1 are queued or
/// counting. So a reduction whose producer is decoding holds no idle pool
/// worker, and other work on the shared pool is not held behind its scan.
///
/// Only the producer writes published_ and the buffers of unpublished
/// slots, so it reads them without the lock.
class ShardPipeline : public std::enable_shared_from_this<ShardPipeline> {
 public:
  ShardPipeline(size_t accum_size, const ExecPolicy& policy, ShardFn fn)
      : accum_size_(accum_size),
        shard_size_(std::max<size_t>(1, policy.shard_size)),
        threads_(policy.ResolvedThreads()),
        run_(policy.run),
        fn_(std::move(fn)),
        slots_(threads_ <= 1 ? 1 : kSlotsPerThread * threads_),
        totals_(accum_size, 0.0) {
    if (threads_ > 1) ThreadPool::Shared().EnsureWorkers(threads_ - 1);
  }

  /// Scan mode: copies `record` into the filling slot and publishes the
  /// slot once it holds a shard.
  void Add(const SequenceRecord& record) {
    // Once stopped, records stream past unprocessed: the scan completes
    // (so database retry accounting stays simple) but no more kernel work
    // runs, and the now-meaningless totals are discarded by the caller.
    if (stopped_.load(std::memory_order_relaxed)) return;
    RecordBuffer& buffer = Filling().buffer;
    buffer.Add(record);
    if (buffer.size() == shard_size_) Publish(buffer.data(), buffer.size());
  }

  /// Publishes records[0, count) as the next shard, then makes room in
  /// the ring for the one after it: while the ring is full the producer
  /// counts unclaimed shards itself, and sleeps only when every shard in
  /// the ring is already claimed.
  void Publish(const SequenceRecord* records, size_t count) {
    std::unique_lock<std::mutex> lock(mutex_);
    PublishLocked(records, count, &lock);
    while (published_ - merged_ == slots_.size()) HelpOrWait(&lock);
    Filling().buffer.Clear();
  }

  /// Drops the unclaimed shards, waits for the claimed ones, then resets
  /// the ring and the totals to the pre-scan state.
  void Restart() {
    std::unique_lock<std::mutex> lock(mutex_);
    DropUnclaimed(&lock);
    published_ = claimed_ = merged_ = 0;
    for (Slot& slot : slots_) {
      slot.buffer.Clear();
      slot.done = false;
    }
    std::fill(totals_.begin(), totals_.end(), 0.0);
    stopped_ = runtime::StopRequested(run_);
  }

  /// Publishes the last, partial shard, counts and merges everything, and
  /// joins the helpers.
  std::vector<double> Finish() {
    std::unique_lock<std::mutex> lock(mutex_);
    RecordBuffer& last = Filling().buffer;
    if (!stopped_ && last.size() > 0) {
      PublishLocked(last.data(), last.size(), &lock);
    }
    closed_ = true;
    while (merged_ < published_ || merging_) HelpOrWait(&lock);
    JoinHelpers(&lock);
    return std::move(totals_);
  }

  /// Ends a reduction that did not Finish: drops the unclaimed shards,
  /// waits for the claimed ones and joins the helpers. A no-op after
  /// Finish.
  void Close() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (closed_) return;
    closed_ = true;
    DropUnclaimed(&lock);
    JoinHelpers(&lock);
  }

 private:
  // Ring slots per thread. With two, a full ring is the common case: the
  // producer counts the shard it just published, the helpers find nothing
  // to claim, and the reducer cost ~7% more CPU on disk_scan's probe
  // (EXPERIMENTS.md). A reduction holds up to this many partials per
  // thread, which mining/governed_count.cc's CounterBytes does not charge.
  static constexpr size_t kSlotsPerThread = 4;

  struct Slot {
    RecordBuffer buffer;  // scan mode: the shard's copied records
    const SequenceRecord* records = nullptr;
    size_t count = 0;
    std::vector<double> partial;
    bool done = false;  // counted, not yet merged
  };

  Slot& Filling() { return slots_[published_ % slots_.size()]; }

  /// A helper claims published shards until none is left, then gives its
  /// pool worker back. It never waits: not on the producer, and not on a
  /// queued task.
  void HelperLoop() {
    std::unique_lock<std::mutex> lock(mutex_);
    --helpers_;
    // Started after the reduction ended (or while it drains): nothing to
    // do that the producer will not do itself.
    if (closed_) return;
    ++running_;
    while (claimed_ < published_) CountOne(&lock);
    --running_;
    if (producer_waiting_) producer_cv_.notify_one();
  }

  /// Publishes the filling slot and, if fewer than threads - 1 helpers
  /// are queued or counting, submits one more.
  void PublishLocked(const SequenceRecord* records, size_t count,
                     std::unique_lock<std::mutex>* lock) {
    Slot& slot = Filling();
    slot.records = records;
    slot.count = count;
    ++published_;
    if (helpers_ + running_ + 1 >= threads_) return;
    ++helpers_;
    // Each task holds the pipeline: one that starts after the reduction
    // ended finds closed_ and leaves without touching anything else.
    std::shared_ptr<ShardPipeline> self = shared_from_this();
    lock->unlock();
    ThreadPool::Shared().Submit([self] { self->HelperLoop(); });
    lock->lock();
  }

  void HelpOrWait(std::unique_lock<std::mutex>* lock) {
    if (claimed_ < published_) {
      CountOne(lock);
    } else {
      Wait(lock);
    }
  }

  /// Producer only: sleeps until a helper completes a shard or leaves.
  void Wait(std::unique_lock<std::mutex>* lock) {
    producer_waiting_ = true;
    producer_cv_.wait(*lock);
    producer_waiting_ = false;
  }

  /// Claims the oldest unclaimed shard, counts it outside the lock, and
  /// merges whatever run of done shards now heads the ring. A stop skips
  /// the kernel: the shard completes empty and merges nothing.
  void CountOne(std::unique_lock<std::mutex>* lock) {
    Slot& slot = slots_[claimed_++ % slots_.size()];
    ++in_flight_;
    lock->unlock();
    if (runtime::StopRequested(run_)) stopped_ = true;
    if (!stopped_) {
      slot.partial.assign(accum_size_, 0.0);
      fn_(slot.records, slot.count, &slot.partial);
    }
    lock->lock();
    slot.done = true;
    --in_flight_;
    if (!merging_) MergeDone(lock);
    if (producer_waiting_) producer_cv_.notify_one();
  }

  /// Adds done partials into totals_ in ascending shard order, outside
  /// the lock, until the oldest claimed shard is still being counted.
  void MergeDone(std::unique_lock<std::mutex>* lock) {
    merging_ = true;
    while (merged_ < claimed_ && slots_[merged_ % slots_.size()].done) {
      Slot& slot = slots_[merged_ % slots_.size()];
      lock->unlock();
      if (!stopped_) {
        for (size_t i = 0; i < accum_size_; ++i) totals_[i] += slot.partial[i];
      }
      lock->lock();
      slot.done = false;
      ++merged_;
    }
    merging_ = false;
  }

  void DropUnclaimed(std::unique_lock<std::mutex>* lock) {
    claimed_ = published_;
    while (in_flight_ > 0 || merging_) Wait(lock);
  }

  /// Waits for the running helpers; queued ones will leave at once.
  void JoinHelpers(std::unique_lock<std::mutex>* lock) {
    while (running_ > 0) Wait(lock);
    // Late helper tasks may keep the pipeline alive; the kernel's
    // captures must not outlive the reduction.
    fn_ = nullptr;
  }

  const size_t accum_size_;
  const size_t shard_size_;
  const size_t threads_;
  const runtime::RunControl* const run_;
  ShardFn fn_;
  std::atomic<bool> stopped_{false};

  std::mutex mutex_;
  std::condition_variable producer_cv_;  // the producer waits for progress
  std::vector<Slot> slots_;
  std::vector<double> totals_;
  size_t published_ = 0;
  size_t claimed_ = 0;
  size_t merged_ = 0;
  size_t in_flight_ = 0;
  size_t helpers_ = 0;  // submitted, not yet started
  size_t running_ = 0;  // started, claiming shards
  bool merging_ = false;
  bool producer_waiting_ = false;
  bool closed_ = false;
};

}  // namespace detail

ShardedScanReducer::ShardedScanReducer(size_t accum_size,
                                       const ExecPolicy& policy, ShardFn fn)
    : pipeline_(std::make_shared<detail::ShardPipeline>(accum_size, policy,
                                                        std::move(fn))) {}

ShardedScanReducer::~ShardedScanReducer() { pipeline_->Close(); }

void ShardedScanReducer::Consume(const SequenceRecord& record) {
  pipeline_->Add(record);
}

void ShardedScanReducer::Restart() { pipeline_->Restart(); }

std::vector<double> ShardedScanReducer::Finish() { return pipeline_->Finish(); }

std::vector<double> ReduceRecords(const std::vector<SequenceRecord>& records,
                                  size_t accum_size, const ExecPolicy& policy,
                                  const ShardFn& fn) {
  const size_t shard_size = std::max<size_t>(1, policy.shard_size);
  const size_t n_shards = (records.size() + shard_size - 1) / shard_size;
  if (n_shards == 0) return std::vector<double>(accum_size, 0.0);
  // No more threads than shards. Stops between publications (and at each
  // claim); the totals are then meaningless and the caller discards them.
  ExecPolicy capped = policy;
  capped.num_threads = std::min(policy.ResolvedThreads(), n_shards);
  auto pipeline = std::make_shared<detail::ShardPipeline>(accum_size, capped, fn);
  for (size_t begin = 0; begin < records.size(); begin += shard_size) {
    if (runtime::StopRequested(policy.run)) break;
    pipeline->Publish(records.data() + begin,
                      std::min(shard_size, records.size() - begin));
  }
  return pipeline->Finish();
}

}  // namespace exec
}  // namespace nmine
