// Unit tests for the exec layer: ParallelFor index coverage and the
// deterministic sharded reduction primitives.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "nmine/core/sequence.h"
#include "nmine/db/in_memory_database.h"
#include "nmine/exec/parallel_for.h"
#include "nmine/exec/policy.h"
#include "nmine/exec/sharded_reduce.h"
#include "nmine/exec/thread_pool.h"

namespace nmine {
namespace exec {
namespace {

TEST(ThreadPoolTest, HardwareThreadsIsPositive) {
  EXPECT_GE(HardwareThreads(), 1u);
  EXPECT_EQ(ResolveNumThreads(0), HardwareThreads());
  EXPECT_EQ(ResolveNumThreads(3), 3u);
}

TEST(ThreadPoolTest, SharedPoolGrowsAndNeverShrinks) {
  ThreadPool& pool = ThreadPool::Shared();
  pool.EnsureWorkers(2);
  size_t after_two = pool.num_workers();
  EXPECT_GE(after_two, 2u);
  pool.EnsureWorkers(1);  // no-op: never shrinks
  EXPECT_EQ(pool.num_workers(), after_two);
}

TEST(ParallelForTest, EveryIndexExactlyOnce) {
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{7}}) {
    const size_t count = 1000;
    std::vector<std::atomic<int>> hits(count);
    for (auto& h : hits) h.store(0);
    ParallelFor(threads, count,
                [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ParallelForTest, EdgeCases) {
  // count == 0: no calls, returns immediately.
  std::atomic<int> calls{0};
  ParallelFor(4, 0, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);

  // More threads than indices: still every index exactly once.
  std::vector<std::atomic<int>> hits(3);
  for (auto& h : hits) h.store(0);
  ParallelFor(16, 3, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(hits[i].load(), 1);

  // 0 = hardware concurrency.
  std::atomic<uint64_t> sum{0};
  ParallelFor(0, 100, [&](size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ParallelForTest, BarrierMakesWritesVisible) {
  std::vector<size_t> out(256, 0);
  ParallelFor(4, out.size(), [&](size_t i) { out[i] = i * i; });
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

std::vector<SequenceRecord> MakeRecords(size_t n) {
  std::vector<SequenceRecord> records;
  for (size_t i = 0; i < n; ++i) {
    SequenceRecord r;
    r.id = static_cast<int64_t>(i);
    r.symbols = {static_cast<SymbolId>(i % 5), static_cast<SymbolId>(i % 3)};
    records.push_back(std::move(r));
  }
  return records;
}

// A kernel that counts records and sums their ids; stateless, so any
// grouping yields the same totals (these are exact integer sums).
ShardFn Counting() {
  return [](const SequenceRecord* records, size_t count,
            std::vector<double>* partial) {
    for (size_t r = 0; r < count; ++r) {
      (*partial)[0] += 1.0;
      (*partial)[1] += static_cast<double>(records[r].id);
    }
  };
}

TEST(ShardedScanReducerTest, SumsAreCorrectForAnyPolicy) {
  const size_t n = 700;  // not a multiple of any shard size used below
  std::vector<SequenceRecord> records = MakeRecords(n);
  const double expect_ids = static_cast<double>(n * (n - 1) / 2);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    for (size_t shard : {size_t{16}, size_t{256}}) {
      ExecPolicy policy;
      policy.num_threads = threads;
      policy.shard_size = shard;
      ShardedScanReducer reducer(2, policy, Counting());
      for (const SequenceRecord& r : records) reducer.Consume(r);
      std::vector<double> totals = reducer.Finish();
      EXPECT_EQ(totals[0], static_cast<double>(n))
          << "threads=" << threads << " shard=" << shard;
      EXPECT_EQ(totals[1], expect_ids);
    }
  }
}

TEST(ShardedScanReducerTest, RestartDropsAllAccumulation) {
  std::vector<SequenceRecord> records = MakeRecords(300);
  ExecPolicy policy;
  policy.num_threads = 4;
  policy.shard_size = 32;
  ShardedScanReducer reducer(2, policy, Counting());
  // Simulate a failed attempt: feed some records, then restart mid-way,
  // as a retrying database would before redelivering from the top.
  for (size_t i = 0; i < 123; ++i) reducer.Consume(records[i]);
  reducer.Restart();
  for (const SequenceRecord& r : records) reducer.Consume(r);
  std::vector<double> totals = reducer.Finish();
  EXPECT_EQ(totals[0], 300.0);
}

TEST(ShardedScanReducerTest, ReusedSlotsFollowGrowingAndShrinkingRecords) {
  // Wave slots keep their symbol buffers across waves, so a record that
  // is shorter than the slot's last tenant must not see stale symbols.
  // Lengths rise to 96 and fall back to 0 across several waves, and a
  // restart lands mid-wave; the order-sensitive sums must equal the serial
  // reducer's bit for bit.
  std::vector<SequenceRecord> records(900);
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].id = static_cast<SequenceId>(i);
    const size_t phase = i % 300;
    const size_t len = phase < 150 ? phase * 96 / 150 : (300 - phase) / 3;
    for (size_t j = 0; j < len; ++j) {
      records[i].symbols.push_back(static_cast<SymbolId>((7 * i + j) % 23));
    }
  }
  ShardFn fold = [](const SequenceRecord* records, size_t count,
                       std::vector<double>* partial) {
    for (size_t r = 0; r < count; ++r) {
      const Sequence& symbols = records[r].symbols;
      (*partial)[0] += static_cast<double>(symbols.size());
      for (size_t j = 0; j < symbols.size(); ++j) {
        (*partial)[1] += 1.0 / (1.0 + static_cast<double>(symbols[j]) +
                                0.37 * static_cast<double>(j));
      }
    }
  };
  for (size_t shard : {size_t{8}, size_t{50}}) {
    ExecPolicy serial;
    serial.shard_size = shard;
    ShardedScanReducer reference(2, serial, fold);
    for (const SequenceRecord& r : records) reference.Consume(r);
    const std::vector<double> want = reference.Finish();
    for (size_t threads : {size_t{2}, size_t{4}}) {
      ExecPolicy policy = serial;
      policy.num_threads = threads;
      ShardedScanReducer reducer(2, policy, fold);
      // A failed first attempt that stops mid-wave, after the slots have
      // held the longest records.
      const size_t cut = 2 * threads * shard * 3 + shard / 2 + 1;
      for (size_t i = 0; i < std::min(cut, records.size()); ++i) {
        reducer.Consume(records[i]);
      }
      reducer.Restart();
      for (const SequenceRecord& r : records) reducer.Consume(r);
      EXPECT_EQ(reducer.Finish(), want)
          << "threads=" << threads << " shard=" << shard;
    }
  }
}

TEST(ReduceRecordsTest, MatchesSerialBitForBit) {
  // A kernel with a value whose accumulation is order-sensitive in
  // floating point: equality across thread counts demonstrates that the
  // grouping really is fixed by shard_size alone.
  std::vector<SequenceRecord> records = MakeRecords(511);
  ShardFn fold = [](const SequenceRecord* records, size_t count,
                       std::vector<double>* partial) {
    for (size_t r = 0; r < count; ++r) {
      (*partial)[0] += 1.0 / (1.0 + static_cast<double>(records[r].id) * 0.7);
    }
  };
  ExecPolicy serial;  // num_threads = 1, default shard size
  std::vector<double> reference = ReduceRecords(records, 1, serial, fold);
  for (size_t threads : {size_t{2}, size_t{4}, size_t{7}}) {
    ExecPolicy policy;
    policy.num_threads = threads;
    std::vector<double> got = ReduceRecords(records, 1, policy, fold);
    EXPECT_EQ(got[0], reference[0]) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace exec
}  // namespace nmine
