// Tests for the pipelined shard reducer behind ShardedScanReducer and
// ReduceRecords: totals bitwise equal to the one-thread grouping at every
// thread count, shard size and ring fill, and the engine's liveness
// contract — restart and stop mid-stream, a producer that counts when
// the ring is full, completion with no pool worker free, no pool worker
// held while no shard is left, concurrent reductions, and destruction
// without Finish.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nmine/core/sequence.h"
#include "nmine/exec/policy.h"
#include "nmine/exec/sharded_reduce.h"
#include "nmine/exec/thread_pool.h"
#include "nmine/runtime/run_control.h"

namespace nmine {
namespace exec {
namespace {

std::vector<SequenceRecord> MakeRecords(size_t n) {
  std::vector<SequenceRecord> records(n);
  for (size_t i = 0; i < n; ++i) {
    records[i].id = static_cast<SequenceId>(i);
    for (size_t j = 0; j < i % 9; ++j) {
      records[i].symbols.push_back(static_cast<SymbolId>((5 * i + j) % 13));
    }
  }
  return records;
}

/// An order-sensitive fold: floating-point sums whose bits depend on the
/// grouping, so only the fixed shard grouping reproduces them.
void Fold(const SequenceRecord* records, size_t count,
          std::vector<double>* partial) {
  for (size_t r = 0; r < count; ++r) {
    const SequenceRecord& rec = records[r];
    (*partial)[0] += 1.0 / (1.0 + 0.7 * static_cast<double>(rec.id));
    for (size_t j = 0; j < rec.symbols.size(); ++j) {
      (*partial)[1] += 1.0 / (3.0 + static_cast<double>(rec.symbols[j]) +
                              0.37 * static_cast<double>(j));
    }
    (*partial)[2] += static_cast<double>(rec.symbols.size());
  }
}

/// The grouping the reducers guarantee: shard_size shards, each folded
/// into a zeroed partial, added in ascending shard order.
std::vector<double> Grouped(const std::vector<SequenceRecord>& records,
                            size_t shard_size) {
  std::vector<double> totals(3, 0.0);
  for (size_t begin = 0; begin < records.size(); begin += shard_size) {
    std::vector<double> partial(3, 0.0);
    Fold(records.data() + begin,
         std::min(shard_size, records.size() - begin), &partial);
    for (size_t i = 0; i < totals.size(); ++i) totals[i] += partial[i];
  }
  return totals;
}

ExecPolicy Policy(size_t threads, size_t shard_size,
                  const runtime::RunControl* run = nullptr) {
  ExecPolicy policy;
  policy.num_threads = threads;
  policy.shard_size = shard_size;
  policy.run = run;
  return policy;
}

std::vector<double> Scan(const std::vector<SequenceRecord>& records,
                         const ExecPolicy& policy, const ShardFn& fn = Fold) {
  ShardedScanReducer reducer(3, policy, fn);
  for (const SequenceRecord& r : records) reducer.Consume(r);
  return reducer.Finish();
}

/// Sleeps in every shard call, so counting is slower than publishing.
ShardFn SlowFold(std::chrono::microseconds delay) {
  return [delay](const SequenceRecord* records, size_t count,
                 std::vector<double>* partial) {
    std::this_thread::sleep_for(delay);
    Fold(records, count, partial);
  };
}

TEST(ShardedScanReducerPipeline, BitwiseEqualToOneThreadAtEveryShape) {
  for (size_t shard : {size_t{1}, size_t{7}, size_t{256}}) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                           size_t{8}}) {
      const size_t full_ring = 4 * threads * shard;
      for (size_t n : {size_t{0}, size_t{1}, shard - 1, full_ring + 1}) {
        const std::vector<SequenceRecord> records = MakeRecords(n);
        const std::string where = "threads=" + std::to_string(threads) +
                                  " shard=" + std::to_string(shard) +
                                  " n=" + std::to_string(n);
        const std::vector<double> serial = Scan(records, Policy(1, shard));
        EXPECT_EQ(serial, Grouped(records, shard)) << where;
        EXPECT_EQ(Scan(records, Policy(threads, shard)), serial) << where;
        EXPECT_EQ(ReduceRecords(records, 3, Policy(threads, shard), Fold),
                  serial)
            << where;
      }
    }
  }
}

TEST(ShardedScanReducerPipeline, RestartMidStreamDropsEveryShard) {
  // Slow shards keep claimed shards in flight when Restart lands; the
  // cuts fall inside the first shard, mid-ring and past a full ring.
  const size_t shard = 7;
  const std::vector<SequenceRecord> records = MakeRecords(600);
  const std::vector<double> want = Grouped(records, shard);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    for (size_t cut : {size_t{3}, 2 * threads * shard + 2,
                       4 * threads * shard + shard + 1}) {
      ShardedScanReducer reducer(3, Policy(threads, shard),
                                 SlowFold(std::chrono::microseconds(200)));
      for (size_t i = 0; i < cut; ++i) reducer.Consume(records[i]);
      reducer.Restart();
      for (const SequenceRecord& r : records) reducer.Consume(r);
      EXPECT_EQ(reducer.Finish(), want)
          << "threads=" << threads << " cut=" << cut;
    }
  }
}

TEST(ShardedScanReducerPipeline, StopSkipsTheKernelAtTheNextClaim) {
  const size_t shard = 4;
  const std::vector<SequenceRecord> records = MakeRecords(400);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    runtime::RunControl run;
    std::atomic<size_t> calls{0};
    ShardFn counting = [&calls](const SequenceRecord* recs, size_t count,
                                std::vector<double>* partial) {
      calls.fetch_add(1);
      Fold(recs, count, partial);
    };
    ShardedScanReducer reducer(3, Policy(threads, shard, &run), counting);
    for (size_t i = 0; i < 100; ++i) reducer.Consume(records[i]);
    run.RequestCancel();
    // Claims that passed the stop check before the cancel may still run.
    const size_t before = calls.load();
    for (size_t i = 100; i < records.size(); ++i) reducer.Consume(records[i]);
    reducer.Finish();
    EXPECT_LE(calls.load(), before + threads) << "threads=" << threads;
    EXPECT_FALSE(runtime::CheckRun(&run).ok());
  }
  // ReduceRecords stops publishing once stopped.
  runtime::RunControl run;
  run.RequestCancel();
  std::atomic<size_t> calls{0};
  ReduceRecords(records, 3, Policy(4, shard, &run),
                [&calls](const SequenceRecord*, size_t, std::vector<double>*) {
                  calls.fetch_add(1);
                });
  EXPECT_EQ(calls.load(), 0u);
}

TEST(ShardedScanReducerPipeline, ProducerCountsWhenTheRingIsFull) {
  // One helper sleeping 2 ms per shard cannot keep up with 60 shards
  // published at once: the ring (8 slots) fills and the producer must
  // count shards itself.
  const size_t shard = 3;
  const std::vector<SequenceRecord> records = MakeRecords(60 * shard);
  const std::thread::id producer = std::this_thread::get_id();
  std::atomic<size_t> by_producer{0};
  ShardFn slow = [&](const SequenceRecord* recs, size_t count,
                     std::vector<double>* partial) {
    if (std::this_thread::get_id() == producer) by_producer.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    Fold(recs, count, partial);
  };
  EXPECT_EQ(Scan(records, Policy(2, shard), slow), Grouped(records, shard));
  EXPECT_GT(by_producer.load(), 0u);
  by_producer = 0;
  EXPECT_EQ(ReduceRecords(records, 3, Policy(2, shard), slow),
            Grouped(records, shard));
  EXPECT_GT(by_producer.load(), 0u);
}

TEST(ShardedScanReducerPipeline, FinishesWhileEveryPoolWorkerIsBusy) {
  ThreadPool& pool = ThreadPool::Shared();
  pool.EnsureWorkers(3);
  const size_t workers = pool.num_workers();
  std::mutex mutex;
  std::condition_variable cv;
  size_t started = 0;
  bool release = false;
  size_t finished = 0;
  for (size_t i = 0; i < workers; ++i) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mutex);
      ++started;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
      ++finished;
      cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return started == workers; });
  }
  // No helper can start: the producer alone must count every shard.
  const size_t shard = 5;
  const std::vector<SequenceRecord> records = MakeRecords(300);
  EXPECT_EQ(Scan(records, Policy(4, shard)), Grouped(records, shard));
  EXPECT_EQ(ReduceRecords(records, 3, Policy(4, shard), Fold),
            Grouped(records, shard));
  {
    // The queued helpers start after their reductions ended and leave.
    std::unique_lock<std::mutex> lock(mutex);
    release = true;
    cv.notify_all();
    cv.wait(lock, [&] { return finished == workers; });
  }
}

TEST(ShardedScanReducerPipeline, IdleReductionHoldsNoPoolWorker) {
  // Helpers leave once no published shard is left, so while the producer
  // is between shards (decoding, in a real scan) every pool worker is free
  // for other work: a task needing all of them at once still starts.
  ThreadPool& pool = ThreadPool::Shared();
  const size_t shard = 5;
  const std::vector<SequenceRecord> records = MakeRecords(12 * shard);
  std::atomic<size_t> calls{0};
  ShardedScanReducer reducer(
      3, Policy(4, shard),
      [&calls](const SequenceRecord* recs, size_t count,
               std::vector<double>* partial) {
        Fold(recs, count, partial);
        calls.fetch_add(1);
      });
  for (const SequenceRecord& r : records) reducer.Consume(r);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (calls.load() < 12 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(calls.load(), 12u);
  const size_t workers = pool.num_workers();
  std::mutex mutex;
  std::condition_variable cv;
  size_t started = 0;
  size_t finished = 0;
  bool release = false;
  for (size_t i = 0; i < workers; ++i) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mutex);
      ++started;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
      ++finished;
      cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mutex);
  EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                          [&] { return started == workers; }))
      << started << " of " << workers << " pool workers were free";
  release = true;
  cv.notify_all();
  lock.unlock();
  EXPECT_EQ(reducer.Finish(), Grouped(records, shard));
  lock.lock();
  cv.wait(lock, [&] { return finished == workers; });
}

TEST(ShardedScanReducerPipeline, TwoConcurrentReductionsBothFinish) {
  const size_t shard = 6;
  const std::vector<SequenceRecord> records = MakeRecords(900);
  const std::vector<double> want = Grouped(records, shard);
  std::vector<double> got_scan;
  std::vector<double> got_records;
  const ShardFn slow = SlowFold(std::chrono::microseconds(100));
  std::thread a([&] { got_scan = Scan(records, Policy(4, shard), slow); });
  std::thread b([&] {
    got_records = ReduceRecords(records, 3, Policy(4, shard), slow);
  });
  a.join();
  b.join();
  EXPECT_EQ(got_scan, want);
  EXPECT_EQ(got_records, want);
}

TEST(ShardedScanReducerPipeline, DestroyedAfterAFailedScan) {
  // A scan that fails mid-stream never calls Finish. The destructor must
  // wait for the claimed shards and drop the rest: no kernel call may
  // start after it returns (the kernel's state goes out of scope here).
  const size_t shard = 4;
  const std::vector<SequenceRecord> records = MakeRecords(200);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    std::atomic<size_t> calls{0};
    std::atomic<bool> destroyed{false};
    std::atomic<size_t> late{0};
    {
      ShardFn fn = [&](const SequenceRecord* recs, size_t count,
                       std::vector<double>* partial) {
        if (destroyed.load()) late.fetch_add(1);
        calls.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(300));
        Fold(recs, count, partial);
      };
      ShardedScanReducer reducer(3, Policy(threads, shard), fn);
      for (size_t i = 0; i < 150; ++i) reducer.Consume(records[i]);
    }
    destroyed = true;
    const size_t after = calls.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(calls.load(), after) << "threads=" << threads;
    EXPECT_EQ(late.load(), 0u);
    EXPECT_GT(after, 0u);
  }
}

}  // namespace
}  // namespace exec
}  // namespace nmine
