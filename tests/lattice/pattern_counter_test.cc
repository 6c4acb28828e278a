#include "nmine/lattice/pattern_counter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <tuple>

#include "nmine/bio/blosum.h"
#include "nmine/core/match.h"
#include "nmine/core/match_kernel.h"
#include "nmine/gen/matrix_generator.h"
#include "nmine/gen/sequence_generator.h"
#include "test_util.h"

namespace nmine {
namespace {

using testutil::Figure2Matrix;
using testutil::Figure4Database;
using testutil::NaiveMatches;
using testutil::NaiveSupports;
using testutil::P;
using testutil::RunnableKernels;

TEST(PatternTrieTest, SinglePatternMatchesSequenceMatch) {
  CompatibilityMatrix c = Figure2Matrix();
  PatternTrie trie({P({0, 1})}, &c);
  std::vector<double> best = trie.Best({0, 1, 1, 2, 3, 0});
  ASSERT_EQ(best.size(), 1u);
  EXPECT_DOUBLE_EQ(best[0], 0.72);  // the Section-3 example
}

TEST(PatternTrieTest, SharedPrefixesComputeCorrectly) {
  CompatibilityMatrix c = Figure2Matrix();
  std::vector<Pattern> patterns = {P({0, 1}), P({0, 1, 2}), P({0, -1, 2}),
                                   P({1}), P({1, 1})};
  PatternTrie trie(patterns, &c);
  Sequence s = {0, 1, 2, 0, 1};
  std::vector<double> best = trie.Best(s);
  std::vector<double> expected = NaiveMatches(
      {{0, s}}, c, patterns);
  ASSERT_EQ(best.size(), expected.size());
  for (size_t i = 0; i < best.size(); ++i) {
    EXPECT_DOUBLE_EQ(best[i], expected[i]) << patterns[i].ToString();
  }
}

TEST(PatternTrieTest, DuplicatePatternsBothReceiveResults) {
  CompatibilityMatrix c = Figure2Matrix();
  PatternTrie trie({P({0, 1}), P({0, 1})}, &c);
  std::vector<double> best = trie.Best({0, 1});
  ASSERT_EQ(best.size(), 2u);
  EXPECT_DOUBLE_EQ(best[0], best[1]);
  EXPECT_GT(best[0], 0.0);
}

TEST(PatternTrieTest, SupportsAreBinary) {
  PatternTrie trie({P({0, 1}), P({1, 0}), P({0, -1, 0})}, nullptr);
  std::vector<double> best = trie.Best({0, 1, 0});
  EXPECT_DOUBLE_EQ(best[0], 1.0);
  EXPECT_DOUBLE_EQ(best[1], 1.0);
  EXPECT_DOUBLE_EQ(best[2], 1.0);
  best = trie.Best({0, 0, 0});
  EXPECT_DOUBLE_EQ(best[0], 0.0);
  EXPECT_DOUBLE_EQ(best[1], 0.0);
  EXPECT_DOUBLE_EQ(best[2], 1.0);
}

/// Restores the auto-resolved kernel when a forced-kernel test ends.
struct ActiveKernelGuard {
  ~ActiveKernelGuard() {
    SimdLevel level = SimdLevel::kScalar;
    ResolveSimdLevel("auto", DetectCpuFeatures(), &level, nullptr);
    SetActiveMatchKernel(level, nullptr);
  }
};

/// Definition 3.6 from the scalar reference: the max of SegmentMatch over
/// every window, 0 when the sequence is shorter than the pattern.
double WindowMax(const CompatibilityMatrix& c, const Pattern& p,
                 const Sequence& seq) {
  double best = 0.0;
  for (size_t offset = 0; offset + p.length() <= seq.size(); ++offset) {
    best = std::max(best, SegmentMatch(c, p, seq, offset));
  }
  return best;
}

TEST(PatternTrieTest, SingleRecordCallsMatchSegmentMatchUpToThreePieces) {
  // A one-record call cuts its record into at least lanes() pieces:
  // Best(seq) and the per-record fold of MakeRecordFn must give
  // SegmentMatch's window max at every length from 0 to three full
  // groups of the widest kernel's pieces, on every kernel. The fold's
  // partial is the running sum of those maxima, in record order. A
  // depth-7 batch and a depth-2 batch (one symbol of overlap, as in every
  // level-2 Apriori count) each cross every group boundary.
  ActiveKernelGuard guard;
  const CompatibilityMatrix c = UniformNoiseMatrix(7, 0.3);
  Rng rng(8128);
  std::vector<Pattern> deep = {P({0}), P({1, 2}), P({3, -1, 4}),
                               P({0, 1, 2, 3, 4, 5, 6}), P({1, 2})};
  for (int i = 0; i < 12; ++i) {
    deep.push_back(RandomPattern(1 + rng.UniformInt(7), 2, 7, &rng));
  }
  std::vector<Pattern> shallow = {P({0, 1}), P({2}), P({3, 3}),
                                  P({4, 5}), P({6})};
  const size_t max_len =
      3 * PatternTrie::kTileWindows * WindowTrie::kMaxLanes + 7;
  const Sequence full = RandomSequence(max_len, 7, &rng);
  for (const std::vector<Pattern>* batch : {&deep, &shallow}) {
    const std::vector<Pattern>& patterns = *batch;
    const PatternTrie trie(patterns, &c);
    const BatchCountKernel kernel(patterns, &c);
    for (SimdLevel level : RunnableKernels()) {
      ASSERT_TRUE(SetActiveMatchKernel(level, nullptr));
      exec::RecordFn fold = kernel.MakeRecordFn();
      std::vector<double> partial(patterns.size(), 0.0);
      std::vector<double> running(patterns.size(), 0.0);
      for (size_t len = 0; len <= max_len; ++len) {
        const SequenceRecord record{
            static_cast<SequenceId>(len),
            Sequence(full.begin(), full.begin() + len)};
        const std::vector<double> best = trie.Best(record.symbols);
        fold(record, &partial);
        for (size_t i = 0; i < patterns.size(); ++i) {
          const double want = WindowMax(c, patterns[i], record.symbols);
          running[i] += want;
          ASSERT_EQ(best[i], want) << SimdLevelName(level) << " "
                                   << patterns[i].ToString() << " length "
                                   << len;
          ASSERT_EQ(partial[i], running[i])
              << SimdLevelName(level) << " MakeRecordFn "
              << patterns[i].ToString() << " length " << len;
        }
      }
    }
  }
}

TEST(PatternTrieTest, WalkBuffersAre64ByteAligned) {
  // Every lane step loads and stores whole aligned vectors, so each buffer
  // the walk receives must start on a cache line, whatever the trie's
  // depth, row count or pattern count.
  const CompatibilityMatrix c = UniformNoiseMatrix(9, 0.2);
  const std::vector<std::vector<Pattern>> batches = {
      {P({0})},
      {P({0, 1, 2}), P({3, -1, 4})},
      {P({0, 1, 2, 3, 4, 5, 6, 7, 8}), P({8, 7}), P({5}), P({5})},
  };
  auto aligned = [](const void* p) {
    return reinterpret_cast<uintptr_t>(p) % 64 == 0;
  };
  for (const std::vector<Pattern>& batch : batches) {
    for (const CompatibilityMatrix* matrix :
         {&c, static_cast<const CompatibilityMatrix*>(nullptr)}) {
      size_t depth = 0;
      for (const Pattern& p : batch) depth = std::max(depth, p.length());
      const PatternTrie trie(batch, matrix);
      PatternTrie::Scratch scratch = trie.MakeScratch();
      const WindowTrieBuffers buffers = scratch.buffers();
      EXPECT_TRUE(aligned(buffers.symbols));
      EXPECT_TRUE(aligned(buffers.factors));
      EXPECT_TRUE(aligned(buffers.rows));
      // The second factor and node rows start a whole number of lines in.
      EXPECT_TRUE(aligned(buffers.factors + WindowTrie::RowStride(depth)));
      EXPECT_TRUE(aligned(buffers.rows + WindowTrie::RowStride(depth)));
    }
  }
}

TEST(CountersTest, OneScanPerBatch) {
  InMemorySequenceDatabase db = Figure4Database();
  CompatibilityMatrix c = Figure2Matrix();
  CountMatches(db, c, {P({0}), P({1}), P({0, 1})});
  EXPECT_EQ(db.scan_count(), 1);
  CountSupports(db, {P({0}), P({1})});
  EXPECT_EQ(db.scan_count(), 2);
}

TEST(CountersTest, MatchesPaperFigure4cSpotChecks) {
  // Hand-verified cells of Figure 4(c): match(d1d2) = 0.2025 (paper rounds
  // to 0.203) and match(d2d1) = 0.39125 (paper: 0.391).
  InMemorySequenceDatabase db = Figure4Database();
  CompatibilityMatrix c = Figure2Matrix();
  std::vector<double> v = CountMatches(db, c, {P({0, 1}), P({1, 0})});
  EXPECT_NEAR(v[0], 0.2025, 1e-12);
  EXPECT_NEAR(v[1], 0.39125, 1e-12);
}

TEST(CountersTest, SupportsMatchPaperFigure4c) {
  // support(d1d2) = 0.25, support(d2d1) = 0.50, support(d4d2) = 0.50.
  InMemorySequenceDatabase db = Figure4Database();
  std::vector<double> v =
      CountSupports(db, {P({0, 1}), P({1, 0}), P({3, 1})});
  EXPECT_DOUBLE_EQ(v[0], 0.25);
  EXPECT_DOUBLE_EQ(v[1], 0.50);
  EXPECT_DOUBLE_EQ(v[2], 0.50);
}

TEST(CountersTest, EmptyDatabaseYieldsZeros) {
  InMemorySequenceDatabase db;
  CompatibilityMatrix c = Figure2Matrix();
  std::vector<double> v = CountMatches(db, c, {P({0})});
  EXPECT_DOUBLE_EQ(v[0], 0.0);
}

class TrieVsNaiveProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TrieVsNaiveProperty, RandomBatchesAgreeWithNaiveOracle) {
  Rng rng(GetParam());
  const size_t m = 5;
  CompatibilityMatrix c = Figure2Matrix();

  // Random database.
  std::vector<SequenceRecord> records;
  const size_t num_seq = 1 + rng.UniformInt(8);
  for (size_t i = 0; i < num_seq; ++i) {
    SequenceRecord r;
    r.id = static_cast<SequenceId>(i);
    r.symbols = RandomSequence(1 + rng.UniformInt(20), m, &rng);
    records.push_back(std::move(r));
  }

  // Random pattern batch (with wildcards).
  std::vector<Pattern> patterns;
  const size_t num_patterns = 1 + rng.UniformInt(30);
  for (size_t i = 0; i < num_patterns; ++i) {
    patterns.push_back(
        RandomPattern(1 + rng.UniformInt(4), /*max_gap=*/2, m, &rng));
  }

  std::vector<double> trie_match = CountMatchesInRecords(records, c, patterns);
  std::vector<double> naive_match = NaiveMatches(records, c, patterns);
  std::vector<double> trie_sup = CountSupportsInRecords(records, patterns);
  std::vector<double> naive_sup = NaiveSupports(records, patterns);
  for (size_t i = 0; i < patterns.size(); ++i) {
    EXPECT_NEAR(trie_match[i], naive_match[i], 1e-12)
        << patterns[i].ToString();
    EXPECT_DOUBLE_EQ(trie_sup[i], naive_sup[i]) << patterns[i].ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, TrieVsNaiveProperty,
                         ::testing::Range<uint64_t>(0, 25));

// ---- PatternCounterProperty: the window trie against the naive oracle,
// bit for bit (EXPECT_EQ on doubles, no tolerance) ----

// The first five regimes vary the matrix over short records; the last
// four vary the records' shapes against the lane layout, each for a
// match trie and a support trie.
enum class Regime {
  kDense,
  kSparse,
  kBlosum,
  kSupport,
  kLargeAlphabet,
  kMixedLengths,    // lengths 0-400: many pieces per record
  kPartialGroups,   // one piece per record, shards not a lane multiple
  kLongAmongShort,  // one record longer than a piece among short ones
  kShortRecords,    // records shorter than most patterns
};

const char* RegimeName(Regime regime) {
  switch (regime) {
    case Regime::kDense:
      return "dense";
    case Regime::kSparse:
      return "sparse";
    case Regime::kBlosum:
      return "blosum";
    case Regime::kSupport:
      return "support";
    case Regime::kLargeAlphabet:
      return "large_alphabet";
    case Regime::kMixedLengths:
      return "mixed_lengths";
    case Regime::kPartialGroups:
      return "partial_groups";
    case Regime::kLongAmongShort:
      return "long_among_short";
    case Regime::kShortRecords:
      return "short_records";
  }
  return "?";
}

/// A batch with lengths 1-14, interior wildcards, shared prefixes (a
/// pattern extended from an earlier one) and exact duplicates, over the
/// symbols in `alphabet`.
std::vector<Pattern> PropertyBatch(Rng& rng,
                                   const std::vector<SymbolId>& alphabet) {
  std::vector<Pattern> patterns;
  const size_t count = 1 + rng.UniformInt(40);
  while (patterns.size() < count) {
    std::vector<SymbolId> body;
    if (!patterns.empty() && rng.Bernoulli(0.15)) {
      patterns.push_back(patterns[rng.UniformInt(patterns.size())]);
      continue;
    }
    if (!patterns.empty() && rng.Bernoulli(0.3)) {
      body = patterns[rng.UniformInt(patterns.size())].body();
    }
    const size_t target = 1 + rng.UniformInt(14);
    if (body.size() >= target) body.resize(target);
    while (body.size() < target) {
      const bool interior = !body.empty() && body.size() + 1 < target;
      body.push_back(interior && rng.Bernoulli(0.3)
                         ? kWildcard
                         : alphabet[rng.UniformInt(alphabet.size())]);
    }
    std::optional<Pattern> p = Pattern::Trimmed(body);
    if (p.has_value()) patterns.push_back(*p);
  }
  return patterns;
}

/// Records over the symbols in `alphabet` with the given lengths.
std::vector<SequenceRecord> RecordsOfLengths(
    Rng& rng, const std::vector<SymbolId>& alphabet,
    const std::vector<size_t>& lengths) {
  std::vector<SequenceRecord> records;
  for (size_t len : lengths) {
    SequenceRecord r;
    r.id = static_cast<SequenceId>(records.size());
    r.symbols = RandomSequence(len, alphabet.size(), &rng);
    for (SymbolId& sym : r.symbols) sym = alphabet[static_cast<size_t>(sym)];
    records.push_back(std::move(r));
  }
  return records;
}

/// Records whose lengths cover the empty sequence, sequences shorter than
/// most patterns, and every piece boundary the lanes cross.
std::vector<SequenceRecord> PropertyRecords(
    Rng& rng, const std::vector<SymbolId>& alphabet) {
  const size_t t = PatternTrie::kTileWindows;
  std::vector<size_t> lengths = {0,     1,     t - 1, t,         t + 1,
                                 t + 13, t + 14, 2 * t, 2 * t + 7};
  for (int i = 0; i < 12; ++i) lengths.push_back(rng.UniformInt(20));
  return RecordsOfLengths(rng, alphabet, lengths);
}

/// The record lengths of a shape regime, and its shard size. Partial
/// groups: every record fits one piece and the shard size is 17-23, so
/// the last lane group of a shard holds 1-7 records on an 8-lane kernel
/// (and a partial group on a 4-lane one), as does the last, short shard.
std::vector<size_t> ShapeLengths(Regime regime, Rng& rng,
                                 size_t* shard_size) {
  const size_t t = PatternTrie::kTileWindows;
  std::vector<size_t> lengths;
  switch (regime) {
    case Regime::kMixedLengths:
      for (int i = 0; i < 24; ++i) lengths.push_back(rng.UniformInt(401));
      *shard_size = 4;
      break;
    case Regime::kPartialGroups:
      *shard_size = 17 + rng.UniformInt(7);
      for (size_t i = 0; i < 3 * *shard_size + 1 + rng.UniformInt(7); ++i) {
        lengths.push_back(1 + rng.UniformInt(t));
      }
      break;
    case Regime::kLongAmongShort:
      for (int i = 0; i < 20; ++i) lengths.push_back(1 + rng.UniformInt(12));
      lengths[rng.UniformInt(lengths.size())] = 3 * t + 1 + rng.UniformInt(t);
      *shard_size = 8;
      break;
    default:  // kShortRecords
      for (int i = 0; i < 30; ++i) lengths.push_back(rng.UniformInt(6));
      *shard_size = 5;
      break;
  }
  return lengths;
}

/// Per-record oracle values summed in the reducer's shard grouping
/// (ascending shards, records in order within a shard), then averaged.
std::vector<double> ShardedOracle(
    const std::vector<std::vector<double>>& per_record, size_t k,
    size_t shard_size) {
  std::vector<double> totals(k, 0.0);
  for (size_t begin = 0; begin < per_record.size(); begin += shard_size) {
    std::vector<double> partial(k, 0.0);
    const size_t end = std::min(begin + shard_size, per_record.size());
    for (size_t r = begin; r < end; ++r) {
      for (size_t i = 0; i < k; ++i) partial[i] += per_record[r][i];
    }
    for (size_t i = 0; i < k; ++i) totals[i] += partial[i];
  }
  for (double& v : totals) v /= static_cast<double>(per_record.size());
  return totals;
}

/// Checks one trie (`c` == nullptr: supports) on `records` under every
/// runnable kernel: Best per record, and the sharded counters at 1 and 4
/// threads, bit for bit against the naive oracle.
void CheckAgainstOracle(Regime regime, const CompatibilityMatrix* c,
                        const std::vector<Pattern>& patterns,
                        const std::vector<SequenceRecord>& records,
                        size_t shard_size) {
  std::vector<std::vector<double>> oracle;
  for (const SequenceRecord& r : records) {
    oracle.push_back(c != nullptr ? NaiveMatches({r}, *c, patterns)
                                  : NaiveSupports({r}, patterns));
  }
  const std::vector<double> expected =
      ShardedOracle(oracle, patterns.size(), shard_size);

  const PatternTrie trie(patterns, c);
  PatternTrie::Scratch scratch = trie.MakeScratch();
  std::vector<double> best(patterns.size());
  const char* metric = c != nullptr ? "match" : "support";
  for (SimdLevel level : RunnableKernels()) {
    ASSERT_TRUE(SetActiveMatchKernel(level, nullptr));
    for (size_t r = 0; r < records.size(); ++r) {
      trie.Best(records[r].symbols, &scratch, best.data());
      for (size_t i = 0; i < patterns.size(); ++i) {
        EXPECT_EQ(best[i], oracle[r][i])
            << RegimeName(regime) << " " << metric << " "
            << SimdLevelName(level) << " " << patterns[i].ToString()
            << " on a length-" << records[r].symbols.size() << " sequence";
      }
    }
    for (size_t threads : {1u, 4u}) {
      exec::ExecPolicy exec;
      exec.num_threads = threads;
      exec.shard_size = shard_size;
      const std::vector<double> counted =
          c != nullptr ? CountMatchesInRecords(records, *c, patterns, exec)
                       : CountSupportsInRecords(records, patterns, exec);
      EXPECT_EQ(counted, expected)
          << RegimeName(regime) << " " << metric << " "
          << SimdLevelName(level) << " " << threads << " threads";
    }
  }
}

class PatternCounterProperty
    : public ::testing::TestWithParam<std::tuple<Regime, uint64_t>> {};

TEST_P(PatternCounterProperty, WindowTrieIsBitIdenticalToNaiveOracle) {
  ActiveKernelGuard guard;
  const Regime regime = std::get<0>(GetParam());
  Rng rng(std::get<1>(GetParam()) * 7919 + static_cast<uint64_t>(regime));
  std::optional<CompatibilityMatrix> matrix;
  switch (regime) {
    case Regime::kDense:
      matrix = UniformNoiseMatrix(8, 0.3);
      break;
    case Regime::kSparse:
      matrix = SparseRandomMatrix(12, 0.15, 0.7, &rng);
      break;
    case Regime::kBlosum:
      matrix = BlosumCompatibilityMatrix(1.0);
      break;
    case Regime::kSupport:
      break;
    case Regime::kLargeAlphabet:
      matrix = SparseRandomMatrix(320, 0.15, 0.7, &rng);
      break;
    default:  // shape regimes: a dense matrix, then supports
      matrix = UniformNoiseMatrix(6, 0.3);
      break;
  }
  const CompatibilityMatrix* c = matrix.has_value() ? &*matrix : nullptr;
  const size_t m = c != nullptr ? c->size() : 6;
  std::vector<SymbolId> batch_symbols(m);
  std::iota(batch_symbols.begin(), batch_symbols.end(), 0);
  std::vector<SymbolId> record_symbols = batch_symbols;
  if (regime == Regime::kLargeAlphabet) {
    // A sparse set of far-apart ids, mostly above 255: factor rows gather
    // from distant matrix entries, and most products are zero, so whole
    // subtrees are skipped. Records also hold symbols outside the batch.
    batch_symbols.clear();
    while (batch_symbols.size() < 8) {
      const SymbolId sym = static_cast<SymbolId>(
          batch_symbols.size() < 2 ? rng.UniformInt(256)
                                   : 256 + rng.UniformInt(m - 256));
      if (std::find(batch_symbols.begin(), batch_symbols.end(), sym) ==
          batch_symbols.end()) {
        batch_symbols.push_back(sym);
      }
    }
    record_symbols = batch_symbols;
    for (int i = 0; i < 4; ++i) {
      record_symbols.push_back(static_cast<SymbolId>(rng.UniformInt(m)));
    }
  }
  const std::vector<Pattern> patterns = PropertyBatch(rng, batch_symbols);
  if (regime <= Regime::kLargeAlphabet) {
    CheckAgainstOracle(regime, c, patterns,
                       PropertyRecords(rng, record_symbols),
                       /*shard_size=*/4);
    return;
  }
  size_t shard_size = 0;
  const std::vector<size_t> lengths = ShapeLengths(regime, rng, &shard_size);
  const std::vector<SequenceRecord> records =
      RecordsOfLengths(rng, record_symbols, lengths);
  CheckAgainstOracle(regime, c, patterns, records, shard_size);
  CheckAgainstOracle(regime, nullptr, patterns, records, shard_size);
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, PatternCounterProperty,
    ::testing::Combine(::testing::Values(Regime::kDense, Regime::kSparse,
                                         Regime::kBlosum, Regime::kSupport,
                                         Regime::kLargeAlphabet,
                                         Regime::kMixedLengths,
                                         Regime::kPartialGroups,
                                         Regime::kLongAmongShort,
                                         Regime::kShortRecords),
                       ::testing::Range<uint64_t>(0, 8)),
    [](const ::testing::TestParamInfo<std::tuple<Regime, uint64_t>>& info) {
      return std::string(RegimeName(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace nmine
