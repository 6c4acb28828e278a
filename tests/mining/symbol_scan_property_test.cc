// Randomized property tests for Phase 1 (Algorithm 4.1) end to end: a
// disk-resident database (one- and two-byte varint symbols, empty
// records) decoded, folded by the sharded stamp-and-sweep kernel and
// sampled on the scanning thread must give exactly the symbol matches of
// a naive per-record Algorithm 4.1 grouped like the reducer, and exactly
// the sample of a standalone sequential sampler. All double comparisons
// are exact (EXPECT_EQ on doubles is deliberate).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nmine/bio/blosum.h"
#include "nmine/core/compatibility_matrix.h"
#include "nmine/db/disk_database.h"
#include "nmine/db/fault_injecting_database.h"
#include "nmine/db/format.h"
#include "nmine/db/in_memory_database.h"
#include "nmine/db/reservoir_sampler.h"
#include "nmine/db/retrying_database.h"
#include "nmine/exec/policy.h"
#include "nmine/gen/matrix_generator.h"
#include "nmine/mining/symbol_scan.h"
#include "nmine/stats/random.h"

namespace nmine {
namespace {

enum class Kind { kDense, kSparse, kIdentity, kBlosum };

struct Case {
  Kind kind;
  size_t m;
};

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  const char* kind = "";
  switch (info.param.kind) {
    case Kind::kDense: kind = "dense"; break;
    case Kind::kSparse: kind = "sparse"; break;
    case Kind::kIdentity: kind = "identity"; break;
    case Kind::kBlosum: kind = "blosum50"; break;
  }
  return std::string(kind) + "_" + std::to_string(info.param.m);
}

CompatibilityMatrix MakeMatrix(const Case& c) {
  switch (c.kind) {
    case Kind::kDense:
      return UniformNoiseMatrix(c.m, 0.1);
    case Kind::kSparse: {
      Rng rng(c.m);
      return SparseRandomMatrix(c.m, 0.05, 0.8, &rng);
    }
    case Kind::kIdentity:
      return CompatibilityMatrix::Identity(c.m);
    case Kind::kBlosum:
      return BlosumCompatibilityMatrix(1.0);
  }
  return CompatibilityMatrix::Identity(c.m);
}

/// 700 records of 0..40 uniform symbols over [0, m), every 17th empty.
std::vector<SequenceRecord> MakeRecords(size_t m, uint64_t seed) {
  Rng rng(seed);
  std::vector<SequenceRecord> records(700);
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].id = static_cast<SequenceId>(3 * i + 1);
    const size_t len = i % 17 == 0 ? 0 : rng.UniformInt(41);
    for (size_t j = 0; j < len; ++j) {
      records[i].symbols.push_back(static_cast<SymbolId>(rng.UniformInt(m)));
    }
  }
  return records;
}

/// Sums per-record values into shard_size shards merged in ascending
/// order: the grouping ShardedScanReducer guarantees at any thread count.
template <typename PerRecord>
std::vector<double> ShardedSum(const std::vector<SequenceRecord>& records,
                               size_t m, size_t shard_size,
                               PerRecord per_record) {
  std::vector<double> totals(m, 0.0);
  for (size_t begin = 0; begin < records.size(); begin += shard_size) {
    std::vector<double> partial(m, 0.0);
    const size_t end = std::min(begin + shard_size, records.size());
    for (size_t r = begin; r < end; ++r) per_record(records[r], &partial);
    for (size_t d = 0; d < m; ++d) totals[d] += partial[d];
  }
  return totals;
}

/// Algorithm 4.1 as the paper states it: for every sequence and every
/// symbol d, max_match[d] is the largest C(d, s) over its positions s, and
/// each nonzero max_match[d] / N joins match[d].
std::vector<double> NaiveSymbolMatch(const std::vector<SequenceRecord>& records,
                                     const CompatibilityMatrix& c,
                                     size_t shard_size) {
  const size_t m = c.size();
  const double n = static_cast<double>(records.size());
  return ShardedSum(records, m, shard_size,
                    [&](const SequenceRecord& r, std::vector<double>* p) {
                      std::vector<double> max_match(m, 0.0);
                      for (SymbolId s : r.symbols) {
                        for (size_t d = 0; d < m; ++d) {
                          max_match[d] = std::max(
                              max_match[d], c(static_cast<SymbolId>(d), s));
                        }
                      }
                      for (size_t d = 0; d < m; ++d) {
                        if (max_match[d] > 0.0) (*p)[d] += max_match[d] / n;
                      }
                    });
}

/// Support analogue: 1 / N for every distinct symbol of a sequence.
std::vector<double> NaiveSymbolSupport(
    const std::vector<SequenceRecord>& records, size_t m, size_t shard_size) {
  const double n = static_cast<double>(records.size());
  return ShardedSum(records, m, shard_size,
                    [&](const SequenceRecord& r, std::vector<double>* p) {
                      std::vector<bool> seen(m, false);
                      for (SymbolId s : r.symbols) {
                        const size_t d = static_cast<size_t>(s);
                        if (!seen[d]) (*p)[d] += 1.0 / n;
                        seen[d] = true;
                      }
                    });
}

/// The sample a standalone sequential sampler draws from `seed`.
std::vector<SequenceRecord> NaiveSample(
    const std::vector<SequenceRecord>& records, size_t n, uint64_t seed) {
  Rng rng(seed);
  SequentialSampler sampler(n, records.size(), &rng);
  for (const SequenceRecord& r : records) sampler.Offer(r);
  return sampler.sample();
}

exec::ExecPolicy Policy(size_t threads, size_t shard_size) {
  exec::ExecPolicy policy;
  policy.num_threads = threads;
  policy.shard_size = shard_size;
  return policy;
}

void ExpectSameSample(const InMemorySequenceDatabase& got,
                      const std::vector<SequenceRecord>& want,
                      const std::string& where) {
  ASSERT_EQ(got.records().size(), want.size()) << where;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.records()[i].id, want[i].id) << where << " i=" << i;
    EXPECT_EQ(got.records()[i].symbols, want[i].symbols) << where;
  }
}

using ScanFn = SymbolScanResult (*)(const SequenceDatabase&,
                                    const CompatibilityMatrix&, size_t, Rng*,
                                    const exec::ExecPolicy&);

SymbolScanResult ScanMatch(const SequenceDatabase& db,
                           const CompatibilityMatrix& c, size_t sample,
                           Rng* rng, const exec::ExecPolicy& exec) {
  return ScanSymbolsAndSample(db, c, sample, rng, exec);
}

SymbolScanResult ScanSupport(const SequenceDatabase& db,
                             const CompatibilityMatrix& c, size_t sample,
                             Rng* rng, const exec::ExecPolicy& exec) {
  return ScanSymbolSupports(db, c.size(), sample, rng, exec);
}

constexpr uint64_t kSampleSeed = 11;
const size_t kShardSizes[] = {16, exec::kDefaultShardSize};

class SymbolScanProperty : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    c_ = std::make_unique<CompatibilityMatrix>(MakeMatrix(GetParam()));
    records_ = MakeRecords(GetParam().m, 100 + GetParam().m);
    path_ = std::string(::testing::TempDir()) + "/symbol_scan_property_" +
            CaseName({GetParam(), 0}) + ".nmsq";
    ASSERT_TRUE(dbformat::WriteDatabaseFile(path_, records_).ok);
    Status error;
    db_ = DiskSequenceDatabase::Open(path_, &error);
    ASSERT_NE(db_, nullptr) << error.ToString();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Every thread count and sample size against the naive oracle `want`.
  void CheckAllPolicies(ScanFn scan, size_t shard,
                        const std::vector<double>& want) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (size_t sample : {size_t{0}, size_t{1}, records_.size()}) {
        const std::string where = "threads=" + std::to_string(threads) +
                                  " shard=" + std::to_string(shard) +
                                  " sample=" + std::to_string(sample);
        Rng rng(kSampleSeed);
        SymbolScanResult got =
            scan(*db_, *c_, sample, &rng, Policy(threads, shard));
        ASSERT_TRUE(got.status.ok()) << where << ": "
                                     << got.status.ToString();
        EXPECT_EQ(got.symbol_match, want) << where;
        ExpectSameSample(got.sample,
                         NaiveSample(records_, sample, kSampleSeed), where);
      }
    }
  }

  std::unique_ptr<CompatibilityMatrix> c_;
  std::vector<SequenceRecord> records_;
  std::string path_;
  std::unique_ptr<DiskSequenceDatabase> db_;
};

TEST_P(SymbolScanProperty, MatchEqualsNaiveAlgorithm41) {
  for (size_t shard : kShardSizes) {
    CheckAllPolicies(ScanMatch, shard,
                     NaiveSymbolMatch(records_, *c_, shard));
  }
}

TEST_P(SymbolScanProperty, SupportEqualsNaiveAlgorithm41) {
  for (size_t shard : kShardSizes) {
    CheckAllPolicies(ScanSupport, shard,
                     NaiveSymbolSupport(records_, c_->size(), shard));
  }
}

// short-read:1:300 delivers 300 records and fails once; the retried scan
// restarts the reducer and rewinds the generator, so it must equal the
// fault-free oracle. At 4 threads the match fold of the m = 300 cases is
// sharded, so the fault lands mid-ring and the restart drops buffered
// shards. Every other case folds on the scanning thread, where 4 threads
// checks that num_threads does not change Phase 1's result
// (tests/exec/thread_pool_test.cc covers the parallel restart directly).
TEST_P(SymbolScanProperty, RestartMidScanGivesTheFaultFreeResult) {
  const size_t shard = 16;
  const size_t sample = 50;
  const std::vector<double> want_match =
      NaiveSymbolMatch(records_, *c_, shard);
  const std::vector<double> want_support =
      NaiveSymbolSupport(records_, c_->size(), shard);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (bool match : {true, false}) {
      const std::string where = "threads=" + std::to_string(threads) +
                                (match ? " match" : " support");
      std::string error;
      std::optional<FaultPlan> plan =
          FaultPlan::Parse("short-read:1:300", &error);
      ASSERT_TRUE(plan.has_value()) << error;
      FaultInjectingDatabase faulty(db_.get(), *plan);
      RetryPolicy retry;
      retry.max_attempts = 3;
      retry.initial_backoff_ms = 0.0;
      RetryingDatabase retrying(&faulty, retry);
      Rng rng(kSampleSeed);
      SymbolScanResult got = (match ? ScanMatch : ScanSupport)(
          retrying, *c_, sample, &rng, Policy(threads, shard));
      ASSERT_TRUE(got.status.ok()) << where << ": " << got.status.ToString();
      EXPECT_GE(faulty.attempts(), 2) << where;
      EXPECT_EQ(got.symbol_match, match ? want_match : want_support) << where;
      ExpectSameSample(got.sample, NaiveSample(records_, sample, kSampleSeed),
                       where);
    }
  }
}

// The m = 300 cases take the sharded match fold and the smaller ones the
// serial fold, so both paths stay under the oracle.
static_assert(kMinShardedFoldAlphabet > 65 && kMinShardedFoldAlphabet <= 300);

INSTANTIATE_TEST_SUITE_P(
    Regimes, SymbolScanProperty,
    ::testing::Values(Case{Kind::kDense, 1}, Case{Kind::kDense, 20},
                      Case{Kind::kDense, 65}, Case{Kind::kDense, 300},
                      Case{Kind::kSparse, 20}, Case{Kind::kSparse, 65},
                      Case{Kind::kSparse, 300}, Case{Kind::kIdentity, 1},
                      Case{Kind::kIdentity, 20}, Case{Kind::kIdentity, 65},
                      Case{Kind::kIdentity, 300}, Case{Kind::kBlosum, 20}),
    CaseName);

/// n records of 1..1.5m uniform symbols over [0, m), every 29th empty:
/// their symbol sets are mostly distinct random subsets of the alphabet.
std::vector<SequenceRecord> SubsetRecords(size_t n, size_t m, uint64_t seed) {
  Rng rng(seed);
  std::vector<SequenceRecord> records(n);
  for (size_t i = 0; i < n; ++i) {
    records[i].id = static_cast<SequenceId>(i);
    const size_t len = i % 29 == 0 ? 0 : 1 + rng.UniformInt(3 * m / 2);
    for (size_t j = 0; j < len; ++j) {
      records[i].symbols.push_back(static_cast<SymbolId>(rng.UniformInt(m)));
    }
  }
  return records;
}

size_t DistinctSets(const std::vector<SequenceRecord>& records) {
  std::set<uint64_t> sets;
  for (const SequenceRecord& r : records) {
    uint64_t mask = 0;
    for (SymbolId s : r.symbols) mask |= uint64_t{1} << s;
    sets.insert(mask);
  }
  return sets.size();
}

// At m = 64 the match fold is memoized by symbol set; at m = 65 it folds
// directly. A 65-symbol matrix whose top-left block is the 64-symbol
// matrix, over records that never hold symbol 64, gives every symbol
// d < 64 the same column maxima, so the two folds must agree bit for bit.
TEST(SymbolScanMemo, M64MemoizedEqualsM65Direct) {
  static_assert(kMaxMemoAlphabet == 64);
  Rng matrix_rng(64);
  const CompatibilityMatrix big = SparseRandomMatrix(65, 0.3, 0.8, &matrix_rng);
  std::vector<std::vector<double>> rows(64, std::vector<double>(64));
  for (size_t i = 0; i < 64; ++i) {
    for (size_t j = 0; j < 64; ++j) {
      rows[i][j] = big(static_cast<SymbolId>(i), static_cast<SymbolId>(j));
    }
  }
  const CompatibilityMatrix small(rows);
  const std::vector<SequenceRecord> records = SubsetRecords(900, 64, 7);
  const InMemorySequenceDatabase db =
      InMemorySequenceDatabase::FromRecords(records);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    Rng rng_small(kSampleSeed);
    Rng rng_big(kSampleSeed);
    const SymbolScanResult memoized = ScanSymbolsAndSample(
        db, small, 10, &rng_small, Policy(threads, exec::kDefaultShardSize));
    const SymbolScanResult direct = ScanSymbolsAndSample(
        db, big, 10, &rng_big, Policy(threads, exec::kDefaultShardSize));
    ASSERT_TRUE(memoized.status.ok());
    ASSERT_TRUE(direct.status.ok());
    ASSERT_EQ(memoized.symbol_match.size(), 64u);
    const std::vector<double> head(direct.symbol_match.begin(),
                                   direct.symbol_match.begin() + 64);
    EXPECT_EQ(memoized.symbol_match, head) << "threads=" << threads;
    EXPECT_EQ(memoized.symbol_match,
              NaiveSymbolMatch(records, small, exec::kDefaultShardSize));
  }
}

// More distinct symbol sets than the memo holds: the sets past the cap
// are folded directly, to the same bits as the oracle, for the match and
// the support scans.
TEST(SymbolScanMemo, MoreDistinctSetsThanTheCap) {
  const size_t m = 20;
  const std::vector<SequenceRecord> records = SubsetRecords(9000, m, 3);
  ASSERT_GT(DistinctSets(records), kSymbolSetMemoEntries);
  const InMemorySequenceDatabase db =
      InMemorySequenceDatabase::FromRecords(records);
  const CompatibilityMatrix c = UniformNoiseMatrix(m, 0.1);
  for (size_t shard : kShardSizes) {
    const std::vector<double> want_match = NaiveSymbolMatch(records, c, shard);
    const std::vector<double> want_support =
        NaiveSymbolSupport(records, m, shard);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      const std::string where = "threads=" + std::to_string(threads) +
                                " shard=" + std::to_string(shard);
      Rng rng(kSampleSeed);
      const SymbolScanResult match =
          ScanSymbolsAndSample(db, c, 0, &rng, Policy(threads, shard));
      ASSERT_TRUE(match.status.ok()) << where;
      EXPECT_EQ(match.symbol_match, want_match) << where;
      const SymbolScanResult support =
          ScanSymbolSupports(db, m, 0, &rng, Policy(threads, shard));
      ASSERT_TRUE(support.status.ok()) << where;
      EXPECT_EQ(support.symbol_match, want_support) << where;
    }
  }
}

}  // namespace
}  // namespace nmine
