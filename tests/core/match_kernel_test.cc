#include "nmine/core/match_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "nmine/core/match.h"
#include "nmine/gen/matrix_generator.h"
#include "nmine/lattice/pattern_counter.h"
#include "nmine/mining/border_collapse_miner.h"
#include "nmine/stats/random.h"
#include "test_util.h"

namespace nmine {
namespace {

using testutil::Figure2Matrix;
using testutil::P;

/// Restores the auto-resolved kernel on scope exit so forced-kernel tests
/// never leak process-wide state into later tests.
struct KernelGuard {
  ~KernelGuard() {
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

std::vector<const MatchKernel*> CompiledKernels() {
  std::vector<const MatchKernel*> kernels;
  CpuFeatures host = DetectCpuFeatures();
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kNeon}) {
    const MatchKernel* k = GetMatchKernel(level);
    if (k == nullptr) continue;
    if (level == SimdLevel::kAvx2 && !host.avx2) continue;
    if (level == SimdLevel::kNeon && !host.neon) continue;
    kernels.push_back(k);
  }
  return kernels;
}

Sequence RandomSequence(Rng& rng, size_t length, size_t m) {
  Sequence seq(length);
  for (SymbolId& s : seq) {
    s = static_cast<SymbolId>(rng.UniformInt(m));
  }
  return seq;
}

Pattern RandomPattern(Rng& rng, size_t length, size_t m,
                      double wildcard_prob) {
  std::vector<SymbolId> body(length);
  for (size_t i = 0; i < length; ++i) {
    bool interior = i > 0 && i + 1 < length;
    body[i] = interior && rng.Bernoulli(wildcard_prob)
                  ? kWildcard
                  : static_cast<SymbolId>(rng.UniformInt(m));
  }
  return Pattern(body);
}

/// Runs each round's random (patterns, sequence) drawn for `c` through
/// the window trie under every compiled-and-supported kernel and checks
/// every value bitwise against SegmentMatch's window max (and
/// SequenceMatch, which must be that max). The window-trie step
/// (ProductMax) is checked directly on the same rounds.
void CheckCorpus(const CompatibilityMatrix& c, double wildcard_prob,
                 uint64_t seed) {
  KernelGuard guard;
  Rng rng(seed);
  const size_t m = c.size();
  std::vector<const MatchKernel*> kernels = CompiledKernels();
  ASSERT_FALSE(kernels.empty());
  ASSERT_EQ(kernels[0]->level(), SimdLevel::kScalar);

  for (int round = 0; round < 12; ++round) {
    std::vector<Pattern> patterns;
    const size_t num_patterns = 1 + rng.UniformInt(6);
    for (size_t i = 0; i < num_patterns; ++i) {
      patterns.push_back(RandomPattern(rng, 1 + rng.UniformInt(12), m,
                                       wildcard_prob));
    }
    // Lengths straddle the vector block width (8 on AVX2) so full blocks,
    // tails, and sequences shorter than every pattern are all exercised.
    const size_t seq_len = rng.UniformInt(70);
    Sequence seq = RandomSequence(rng, seq_len, m);

    std::vector<double> expected(patterns.size());
    for (size_t i = 0; i < patterns.size(); ++i) {
      expected[i] = WindowMax(c, patterns[i], seq);
      EXPECT_EQ(SequenceMatch(c, patterns[i], seq), expected[i])
          << "SequenceMatch diverges from SegmentMatch (pattern " << i
          << ", round " << round << ")";
    }
    const PatternTrie trie(patterns, &c);
    for (const MatchKernel* k : kernels) {
      ASSERT_TRUE(SetActiveMatchKernel(k->level(), nullptr));
      const std::vector<double> best = trie.Best(seq);
      for (size_t i = 0; i < patterns.size(); ++i) {
        // Bit-identity, not tolerance: the trie multiplies in
        // SegmentMatch's factor order on every kernel.
        EXPECT_EQ(best[i], expected[i])
            << k->name() << " trie diverges from SegmentMatch (pattern "
            << i << ", round " << round << ", seq_len " << seq.size()
            << ")";
      }
    }

    // ProductMax over matrix entries: every kernel writes the same row
    // and returns the same max, also for lengths off the vector width.
    std::vector<double> a(seq_len), b(seq_len);
    for (size_t j = 0; j < seq_len; ++j) {
      a[j] = c.Column(seq[j])[rng.UniformInt(m)];
      b[j] = c.Column(seq[seq_len - 1 - j])[rng.UniformInt(m)];
    }
    std::vector<double> scalar_out(seq_len);
    const double scalar_peak =
        kernels[0]->ProductMax(a.data(), b.data(), seq_len, scalar_out.data());
    double expected_peak = 0.0;
    for (size_t j = 0; j < seq_len; ++j) {
      EXPECT_EQ(scalar_out[j], a[j] * b[j]);
      expected_peak = std::max(expected_peak, a[j] * b[j]);
    }
    EXPECT_EQ(scalar_peak, expected_peak);
    for (size_t ki = 1; ki < kernels.size(); ++ki) {
      std::vector<double> out(seq_len);
      EXPECT_EQ(kernels[ki]->ProductMax(a.data(), b.data(), seq_len,
                                        out.data()),
                scalar_peak)
          << kernels[ki]->name();
      EXPECT_EQ(out, scalar_out) << kernels[ki]->name();
    }
  }
}

TEST(MatchKernelTest, DenseMatrixCorpusBitIdentical) {
  CheckCorpus(UniformNoiseMatrix(20, 0.2), /*wildcard_prob=*/0.0,
              /*seed=*/101);
}

TEST(MatchKernelTest, SparseMatrixCorpusBitIdentical) {
  // Figure-2-style sparse matrix scaled up: mostly zeros, so -inf log
  // entries and the zero short-circuit dominate.
  CompatibilityMatrix c(12);
  Rng rng(7);
  for (size_t j = 0; j < 12; ++j) {
    c.Set(static_cast<SymbolId>(j), static_cast<SymbolId>(j), 0.8);
    c.Set(static_cast<SymbolId>((j + 1) % 12), static_cast<SymbolId>(j), 0.2);
  }
  CheckCorpus(c, /*wildcard_prob=*/0.0, /*seed=*/202);
}

TEST(MatchKernelTest, NearUnderflowTinyProbabilitiesBitIdentical) {
  // Entries so small that products of a dozen factors sink to ~1e-250:
  // the trie's rows must carry such products exactly on every kernel.
  CompatibilityMatrix c(6);
  Rng rng(11);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 6; ++j) {
      double v = (i == j) ? 1e-18 : 1e-21 * (1.0 + rng.UniformDouble());
      c.Set(static_cast<SymbolId>(i), static_cast<SymbolId>(j), v);
    }
  }
  CheckCorpus(c, /*wildcard_prob=*/0.0, /*seed=*/303);
}

TEST(MatchKernelTest, WildcardHeavyCorpusBitIdentical) {
  CheckCorpus(UniformNoiseMatrix(10, 0.3), /*wildcard_prob=*/0.5,
              /*seed=*/404);
}

TEST(MatchKernelTest, SequenceShorterThanPatternIsZeroOnEveryKernel) {
  KernelGuard guard;
  CompatibilityMatrix c = Figure2Matrix();
  const std::vector<Pattern> patterns = {P({0, 1, 2}), P({0, -1, -1, 1})};
  const PatternTrie trie(patterns, &c);
  Sequence seq = {0, 1};
  for (const Pattern& p : patterns) {
    EXPECT_EQ(SequenceMatch(c, p, seq), 0.0);
  }
  for (const MatchKernel* k : CompiledKernels()) {
    ASSERT_TRUE(SetActiveMatchKernel(k->level(), nullptr));
    EXPECT_EQ(trie.Best(seq), std::vector<double>({0.0, 0.0})) << k->name();
  }
}

TEST(MatchKernelTest, SegmentMatchIsTheExactReference) {
  // SequenceMatch is the max of SegmentMatch over the windows; pin the
  // equivalence through the public single-window API.
  CompatibilityMatrix c = Figure2Matrix();
  Sequence s = {0, 1, 1, 2, 3, 0};
  Pattern p = P({0, 1});
  double expected = 0.0;
  for (size_t w = 0; w + p.length() <= s.size(); ++w) {
    expected = std::max(expected, SegmentMatch(c, p, s, w));
  }
  EXPECT_EQ(SequenceMatch(c, p, s), expected);
  EXPECT_DOUBLE_EQ(expected, 0.72);
}

TEST(MatchKernelTest, ThresholdAcceptRejectAgreesAcrossKernels) {
  KernelGuard guard;
  // A mining threshold placed exactly on the best match value: the
  // accept/reject decision (match >= tau) must agree across kernels,
  // which requires the match values themselves to be bitwise equal.
  CompatibilityMatrix c = Figure2Matrix();
  Sequence s = {0, 1, 1, 2, 3, 0};
  const std::vector<Pattern> patterns = {P({0, 1}), P({0, 1, 1})};
  const PatternTrie trie(patterns, &c);
  const std::vector<double> reference = {SequenceMatch(c, patterns[0], s),
                                         SequenceMatch(c, patterns[1], s)};
  EXPECT_DOUBLE_EQ(reference[0], 0.72);
  const double tau = reference[0];  // threshold exactly at the best match
  for (const MatchKernel* k : CompiledKernels()) {
    ASSERT_TRUE(SetActiveMatchKernel(k->level(), nullptr));
    const std::vector<double> best = trie.Best(s);
    EXPECT_TRUE(best[0] >= tau) << k->name();
    EXPECT_EQ(best, reference) << k->name();
    EXPECT_FALSE(best[1] >= tau) << k->name();
  }
}

TEST(MatchKernelDispatchTest, AutoNeverSelectsUnsupportedIsa) {
  // Mocked host with no vector features: auto must land on scalar even
  // though wider kernels may be compiled into this binary.
  CpuFeatures none;
  SimdLevel level = SimdLevel::kAvx2;
  std::string error;
  ASSERT_TRUE(ResolveSimdLevel("auto", none, &level, &error));
  EXPECT_EQ(level, SimdLevel::kScalar);

  // Mocked AVX2-only host: auto picks avx2 iff the kernel is compiled in,
  // and never neon.
  CpuFeatures avx2_host;
  avx2_host.avx2 = true;
  ASSERT_TRUE(ResolveSimdLevel("auto", avx2_host, &level, &error));
  if (KernelCompiled(SimdLevel::kAvx2)) {
    EXPECT_EQ(level, SimdLevel::kAvx2);
  } else {
    EXPECT_EQ(level, SimdLevel::kScalar);
  }

  CpuFeatures neon_host;
  neon_host.neon = true;
  ASSERT_TRUE(ResolveSimdLevel("auto", neon_host, &level, &error));
  if (KernelCompiled(SimdLevel::kNeon)) {
    EXPECT_EQ(level, SimdLevel::kNeon);
  } else {
    EXPECT_EQ(level, SimdLevel::kScalar);
  }
}

TEST(MatchKernelDispatchTest, ExplicitRequestForUnsupportedIsaFails) {
  CpuFeatures none;
  SimdLevel level;
  std::string error;
  // scalar always works, even on a featureless host.
  EXPECT_TRUE(ResolveSimdLevel("scalar", none, &level, &error));
  EXPECT_EQ(level, SimdLevel::kScalar);
  // An explicit vector request on a host without the feature must fail
  // with a diagnostic, never silently fall back.
  EXPECT_FALSE(ResolveSimdLevel("avx2", none, &level, &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(ResolveSimdLevel("neon", none, &level, &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(ResolveSimdLevel("sse9", none, &level, &error));
  EXPECT_NE(error.find("sse9"), std::string::npos);
}

TEST(MatchKernelDispatchTest, EmptyFlagMeansAuto) {
  CpuFeatures none;
  SimdLevel level = SimdLevel::kAvx2;
  ASSERT_TRUE(ResolveSimdLevel("", none, &level, nullptr));
  EXPECT_EQ(level, SimdLevel::kScalar);
}

TEST(MatchKernelDispatchTest, SetActiveRejectsUnavailableKernel) {
  KernelGuard guard;
  // At least one of avx2/neon is absent on any single host; setting it
  // must fail and leave the active kernel usable.
  CpuFeatures host = DetectCpuFeatures();
  SimdLevel missing = host.avx2 ? SimdLevel::kNeon : SimdLevel::kAvx2;
  std::string error;
  EXPECT_FALSE(SetActiveMatchKernel(missing, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(SetActiveMatchKernel(SimdLevel::kScalar, &error));
  EXPECT_STREQ(ActiveMatchKernelName(), "scalar");
}

std::vector<SequenceRecord> RandomRecords(Rng& rng, size_t count,
                                          size_t max_len, size_t m) {
  std::vector<SequenceRecord> records;
  for (size_t i = 0; i < count; ++i) {
    records.push_back({static_cast<SequenceId>(i + 1),
                       RandomSequence(rng, 1 + rng.UniformInt(max_len), m)});
  }
  return records;
}

TEST(MatchKernelBatchTest, FlatBatchCountsBitIdenticalAcrossKernels) {
  KernelGuard guard;
  // Dense matrix: nothing prunes, every node row runs through
  // MatchKernel::ProductMax on every tile.
  CompatibilityMatrix c = UniformNoiseMatrix(12, 0.25);
  ASSERT_LT(c.Sparsity(), 0.5);
  Rng rng(17);
  std::vector<SequenceRecord> records = RandomRecords(rng, 40, 60, 12);
  std::vector<Pattern> patterns;
  for (int i = 0; i < 24; ++i) {
    patterns.push_back(RandomPattern(rng, 1 + rng.UniformInt(6), 12, 0.2));
  }
  ASSERT_TRUE(SetActiveMatchKernel(SimdLevel::kScalar, nullptr));
  std::vector<double> scalar = CountMatchesInRecords(records, c, patterns);
  EXPECT_EQ(scalar, testutil::NaiveMatches(records, c, patterns));
  for (const MatchKernel* k : CompiledKernels()) {
    ASSERT_TRUE(SetActiveMatchKernel(k->level(), nullptr));
    EXPECT_EQ(CountMatchesInRecords(records, c, patterns), scalar)
        << k->name();
  }
}

TEST(MatchKernelBatchTest, SparseTrieBatchBitIdenticalAcrossKernels) {
  KernelGuard guard;
  // Sparse matrix: all-zero node rows skip their subtrees, the rest run
  // through MatchKernel::ProductMax.
  CompatibilityMatrix c(10);
  for (size_t j = 0; j < 10; ++j) {
    c.Set(static_cast<SymbolId>(j), static_cast<SymbolId>(j), 0.7);
    c.Set(static_cast<SymbolId>((j + 3) % 10), static_cast<SymbolId>(j), 0.3);
  }
  ASSERT_GE(c.Sparsity(), 0.5);
  Rng rng(23);
  std::vector<SequenceRecord> records = RandomRecords(rng, 40, 50, 10);
  // Many patterns sharing prefixes -> plenty of shared interior rows and
  // single-pattern leaves.
  std::vector<Pattern> patterns;
  for (int i = 0; i < 40; ++i) {
    patterns.push_back(RandomPattern(rng, 1 + rng.UniformInt(4), 10, 0.15));
  }
  ASSERT_TRUE(SetActiveMatchKernel(SimdLevel::kScalar, nullptr));
  std::vector<double> scalar = CountMatchesInRecords(records, c, patterns);
  EXPECT_EQ(scalar, testutil::NaiveMatches(records, c, patterns));
  const PatternTrie support_trie(patterns, nullptr);
  const std::vector<double> supports_scalar =
      support_trie.Best(records[0].symbols);
  for (const MatchKernel* k : CompiledKernels()) {
    ASSERT_TRUE(SetActiveMatchKernel(k->level(), nullptr));
    EXPECT_EQ(CountMatchesInRecords(records, c, patterns), scalar)
        << k->name();
    // The kernel must not change exact-support semantics either.
    EXPECT_EQ(support_trie.Best(records[0].symbols), supports_scalar)
        << k->name();
  }
  for (size_t i = 0; i < patterns.size(); ++i) {
    EXPECT_EQ(supports_scalar[i],
              SequenceSupport(patterns[i], records[0].symbols));
  }
}

TEST(MatchKernelBatchTest, MinedPatternSetsBitIdenticalScalarVsAuto) {
  KernelGuard guard;
  // End-to-end acceptance: a full border-collapsing mining run must
  // produce the same patterns with the same metric values on --simd=scalar
  // and --simd=auto.
  Rng rng(31);
  InMemorySequenceDatabase db;
  for (const SequenceRecord& r : RandomRecords(rng, 60, 40, 8)) {
    db.Add(r.symbols);
  }
  CompatibilityMatrix c = UniformNoiseMatrix(8, 0.2);
  MinerOptions options;
  options.min_threshold = 0.3;
  options.space.max_span = 4;
  options.sample_size = 30;
  options.seed = 9;
  BorderCollapseMiner miner(Metric::kMatch, options);

  ASSERT_TRUE(SetActiveMatchKernel(SimdLevel::kScalar, nullptr));
  MiningResult scalar_result = miner.Mine(db, c);
  ASSERT_TRUE(scalar_result.status.ok());

  SimdLevel auto_level = SimdLevel::kScalar;
  ASSERT_TRUE(
      ResolveSimdLevel("auto", DetectCpuFeatures(), &auto_level, nullptr));
  ASSERT_TRUE(SetActiveMatchKernel(auto_level, nullptr));
  MiningResult auto_result = miner.Mine(db, c);
  ASSERT_TRUE(auto_result.status.ok());

  std::vector<Pattern> scalar_patterns = scalar_result.FrequentSorted();
  std::vector<Pattern> auto_patterns = auto_result.FrequentSorted();
  ASSERT_EQ(scalar_patterns.size(), auto_patterns.size());
  for (size_t i = 0; i < scalar_patterns.size(); ++i) {
    EXPECT_EQ(scalar_patterns[i].body(), auto_patterns[i].body());
    EXPECT_EQ(scalar_result.values.at(scalar_patterns[i]),
              auto_result.values.at(auto_patterns[i]));
  }
}

}  // namespace
}  // namespace nmine
