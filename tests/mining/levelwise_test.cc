#include "nmine/mining/levelwise_miner.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace nmine {
namespace {

using testutil::Figure2Matrix;
using testutil::Figure4Database;
using testutil::P;

MinerOptions SmallOptions(double threshold) {
  MinerOptions o;
  o.min_threshold = threshold;
  o.space.max_span = 4;
  o.space.max_gap = 1;
  return o;
}

TEST(LevelwiseMinerTest, MatchMiningOnPaperExample) {
  InMemorySequenceDatabase db = Figure4Database();
  LevelwiseMiner miner(Metric::kMatch, SmallOptions(0.3));
  MiningResult r = miner.Mine(db, Figure2Matrix());
  // Symbols above 0.3: d1 (0.7), d2 (0.8), d3 (0.3875), d4 (0.425).
  EXPECT_TRUE(r.frequent.Contains(P({0})));
  EXPECT_TRUE(r.frequent.Contains(P({1})));
  EXPECT_TRUE(r.frequent.Contains(P({2})));
  EXPECT_TRUE(r.frequent.Contains(P({3})));
  EXPECT_FALSE(r.frequent.Contains(P({4})));  // d5: 0.075
  // 2-patterns above 0.3 (Figure 4(c)): d2d1 (0.391) and d4d2 (0.321).
  EXPECT_TRUE(r.frequent.Contains(P({1, 0})));
  EXPECT_TRUE(r.frequent.Contains(P({3, 1})));
  EXPECT_FALSE(r.frequent.Contains(P({0, 1})));  // 0.2025
  EXPECT_NEAR(r.values[P({1, 0})], 0.39125, 1e-12);
}

TEST(LevelwiseMinerTest, SupportMiningOnPaperExample) {
  InMemorySequenceDatabase db = Figure4Database();
  LevelwiseMiner miner(Metric::kSupport, SmallOptions(0.5));
  MiningResult r = miner.Mine(db, Figure2Matrix());
  // Supports >= 0.5: d1, d2, d3, d4, d2d1, d4d2, and longer chains
  // d4d2d1 (S2+S3 = 0.5) and d3*d2d1? (S1: d3 at 2, then d1... window
  // d3 d1 -> no; S3: d3 d4 d2 d1 gives d3*d2? d3 * d2 occurs in S3 only)
  EXPECT_TRUE(r.frequent.Contains(P({1, 0})));
  EXPECT_TRUE(r.frequent.Contains(P({3, 1})));
  EXPECT_TRUE(r.frequent.Contains(P({3, 1, 0})));
  EXPECT_TRUE(r.frequent.Contains(P({3, -1, 0})));
  EXPECT_FALSE(r.frequent.Contains(P({4})));
  EXPECT_NEAR(r.values[P({3, 1, 0})], 0.5, 1e-12);
}

TEST(LevelwiseMinerTest, SupportEqualsIdentityMatch) {
  InMemorySequenceDatabase db = Figure4Database();
  LevelwiseMiner support_miner(Metric::kSupport, SmallOptions(0.4));
  LevelwiseMiner match_miner(Metric::kMatch, SmallOptions(0.4));
  MiningResult rs = support_miner.Mine(db, Figure2Matrix());
  MiningResult rm = match_miner.Mine(db, CompatibilityMatrix::Identity(5));
  EXPECT_EQ(rs.frequent.ToSortedVector(), rm.frequent.ToSortedVector());
}

TEST(LevelwiseMinerTest, OneScanPerLevel) {
  InMemorySequenceDatabase db = Figure4Database();
  LevelwiseMiner miner(Metric::kMatch, SmallOptions(0.3));
  MiningResult r = miner.Mine(db, Figure2Matrix());
  EXPECT_EQ(static_cast<size_t>(r.scans), r.level_stats.size());
  EXPECT_GE(r.scans, 2);
}

TEST(LevelwiseMinerTest, LevelStatsAreConsistent) {
  InMemorySequenceDatabase db = Figure4Database();
  LevelwiseMiner miner(Metric::kMatch, SmallOptions(0.25));
  MiningResult r = miner.Mine(db, Figure2Matrix());
  size_t total_frequent = 0;
  for (const LevelStats& s : r.level_stats) {
    EXPECT_LE(s.num_frequent, s.num_candidates);
    total_frequent += s.num_frequent;
  }
  EXPECT_EQ(total_frequent, r.frequent.size());
  EXPECT_EQ(r.level_stats[0].num_candidates, 5u);  // all symbols
}

TEST(LevelwiseMinerTest, AprioriHoldsOnOutput) {
  InMemorySequenceDatabase db = Figure4Database();
  LevelwiseMiner miner(Metric::kMatch, SmallOptions(0.2));
  MiningResult r = miner.Mine(db, Figure2Matrix());
  for (const Pattern& p : r.frequent) {
    for (const Pattern& sub : p.ImmediateSubpatterns()) {
      if (!InSpace(sub, SmallOptions(0.2).space)) continue;
      EXPECT_TRUE(r.frequent.Contains(sub))
          << sub.ToString() << " missing under " << p.ToString();
    }
  }
}

TEST(LevelwiseMinerTest, BorderIsMaximalFrequent) {
  InMemorySequenceDatabase db = Figure4Database();
  LevelwiseMiner miner(Metric::kMatch, SmallOptions(0.3));
  MiningResult r = miner.Mine(db, Figure2Matrix());
  for (const Pattern& p : r.frequent) {
    EXPECT_TRUE(r.border.Covers(p)) << p.ToString();
  }
  for (const Pattern& e : r.border.elements()) {
    EXPECT_TRUE(r.frequent.Contains(e));
  }
}

TEST(LevelwiseMinerTest, MaxLevelCapStopsEarly) {
  InMemorySequenceDatabase db = Figure4Database();
  MinerOptions o = SmallOptions(0.1);
  o.max_level = 1;
  LevelwiseMiner miner(Metric::kMatch, o);
  MiningResult r = miner.Mine(db, Figure2Matrix());
  EXPECT_EQ(r.level_stats.size(), 1u);
  EXPECT_EQ(r.border.MaxLevel(), 1u);
}

TEST(LevelwiseMinerTest, ThresholdAboveEverythingYieldsEmpty) {
  InMemorySequenceDatabase db = Figure4Database();
  LevelwiseMiner miner(Metric::kMatch, SmallOptions(0.99));
  MiningResult r = miner.Mine(db, Figure2Matrix());
  EXPECT_TRUE(r.frequent.empty());
  EXPECT_TRUE(r.border.empty());
  EXPECT_EQ(r.scans, 1);  // the level-1 scan
}

}  // namespace
}  // namespace nmine
