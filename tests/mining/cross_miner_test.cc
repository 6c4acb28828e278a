#include <gtest/gtest.h>

#include "nmine/gen/sequence_generator.h"
#include "nmine/mining/border_collapse_miner.h"
#include "nmine/mining/depth_first_miner.h"
#include "nmine/mining/levelwise_miner.h"
#include "nmine/mining/max_miner.h"
#include "nmine/mining/toivonen_miner.h"
#include "test_util.h"

namespace nmine {
namespace {

using testutil::Figure2Matrix;

/// Property sweep: on random databases, all five miners agree under both
/// metrics — the exact level-wise result is the ground truth; the
/// probabilistic miners run with sample == whole database, where the
/// Chernoff machinery still produces an ambiguous band but every ambiguous
/// pattern gets verified exactly.
class MinerAgreementProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MinerAgreementProperty, AllMinersAgree) {
  Rng rng(GetParam());
  const size_t m = 5;
  GeneratorConfig config;
  config.num_sequences = 20 + rng.UniformInt(20);
  config.min_length = 5;
  config.max_length = 15;
  config.alphabet_size = m;
  config.planted = {RandomPattern(3 + rng.UniformInt(2), 0, m, &rng)};
  config.plant_probability = 0.5;
  InMemorySequenceDatabase db = GenerateDatabase(config, &rng);

  MinerOptions o;
  o.min_threshold = 0.25 + 0.1 * rng.UniformDouble();
  o.space.max_span = 5;
  o.space.max_gap = GetParam() % 2;  // alternate contiguous / gapped
  o.sample_size = db.NumSequences();
  o.delta = 0.2;  // keep the Chernoff band narrower than the threshold
  o.seed = GetParam();

  const CompatibilityMatrix figure2 = Figure2Matrix();
  const CompatibilityMatrix identity = CompatibilityMatrix::Identity(m);
  for (Metric metric : {Metric::kMatch, Metric::kSupport}) {
    SCOPED_TRACE(metric == Metric::kMatch ? "match" : "support");
    const CompatibilityMatrix& c =
        metric == Metric::kMatch ? figure2 : identity;
    db.ResetScanCount();
    LevelwiseMiner levelwise(metric, o);
    MiningResult truth = levelwise.Mine(db, c);

    db.ResetScanCount();
    BorderCollapseMiner collapse(metric, o);
    MiningResult rc = collapse.Mine(db, c);
    EXPECT_EQ(rc.frequent.ToSortedVector(), truth.frequent.ToSortedVector());
    EXPECT_EQ(rc.border.ToSortedVector(), truth.border.ToSortedVector());

    db.ResetScanCount();
    ToivonenMiner toivonen(metric, o);
    MiningResult rt = toivonen.Mine(db, c);
    EXPECT_EQ(rt.frequent.ToSortedVector(), truth.frequent.ToSortedVector());

    db.ResetScanCount();
    MaxMiner max_miner(metric, o);
    MiningResult rm = max_miner.Mine(db, c);
    EXPECT_EQ(rm.border.ToSortedVector(), truth.border.ToSortedVector());

    db.ResetScanCount();
    DepthFirstMiner depth_first(metric, o);
    MiningResult rd = depth_first.Mine(db, c);
    EXPECT_EQ(rd.frequent.ToSortedVector(), truth.frequent.ToSortedVector());
    EXPECT_EQ(rd.border.ToSortedVector(), truth.border.ToSortedVector());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, MinerAgreementProperty,
                         ::testing::Range<uint64_t>(0, 12));

/// Apriori monotonicity property on random pattern pairs: Claim 3.2.
class AprioriProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AprioriProperty, SubpatternHasAtLeastTheMatch) {
  Rng rng(GetParam() + 1000);
  const size_t m = 5;
  CompatibilityMatrix c = Figure2Matrix();
  std::vector<SequenceRecord> records;
  for (size_t i = 0; i < 6; ++i) {
    SequenceRecord r;
    r.id = static_cast<SequenceId>(i);
    r.symbols = RandomSequence(4 + rng.UniformInt(20), m, &rng);
    records.push_back(std::move(r));
  }
  Pattern super = RandomPattern(2 + rng.UniformInt(4), 1, m, &rng);
  std::vector<Pattern> batch = {super};
  std::vector<Pattern> subs = super.ImmediateSubpatterns();
  batch.insert(batch.end(), subs.begin(), subs.end());
  std::vector<double> v = testutil::NaiveMatches(records, c, batch);
  for (size_t i = 1; i < batch.size(); ++i) {
    EXPECT_GE(v[i], v[0] - 1e-12)
        << batch[i].ToString() << " vs " << super.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, AprioriProperty,
                         ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace nmine
