// Pins every miner's complete output: status code, scan count, degradation
// steps, the frequent set with the bits of every value, the border, the
// per-level statistics, the Phase-1 symbol matches and the sample
// diagnostics. Each case folds those fields into one 64-bit FNV-1a hash
// and compares it with a recorded constant, so any change to what a miner
// computes or charges shows up here, not only a change to the frequent set.
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nmine/gen/workload.h"
#include "nmine/mining/border_collapse_miner.h"
#include "nmine/mining/depth_first_miner.h"
#include "nmine/mining/levelwise_miner.h"
#include "nmine/mining/max_miner.h"
#include "nmine/mining/toivonen_miner.h"

namespace nmine {
namespace {

class Fnv1a {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void Add(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    Add(bits);
  }
  void Add(const Pattern& p) {
    Add(static_cast<uint64_t>(p.length()));
    for (SymbolId s : p.body()) Add(static_cast<uint64_t>(s));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

uint64_t Fingerprint(const MiningResult& r) {
  Fnv1a h;
  h.Add(static_cast<uint64_t>(r.status.code()));
  h.Add(static_cast<uint64_t>(r.scans));
  h.Add(static_cast<uint64_t>(r.degradation_steps));
  const std::vector<Pattern> frequent = r.FrequentSorted();
  h.Add(static_cast<uint64_t>(frequent.size()));
  for (const Pattern& p : frequent) h.Add(p);
  // Max-Miner leaves covered patterns without a value, so hash the value
  // map on its own, in pattern order.
  std::map<Pattern, double> values(r.values.begin(), r.values.end());
  h.Add(static_cast<uint64_t>(values.size()));
  for (const auto& [p, v] : values) {
    h.Add(p);
    h.Add(v);
  }
  const std::vector<Pattern> border = r.border.ToSortedVector();
  h.Add(static_cast<uint64_t>(border.size()));
  for (const Pattern& p : border) h.Add(p);
  h.Add(static_cast<uint64_t>(r.level_stats.size()));
  for (const LevelStats& s : r.level_stats) {
    h.Add(static_cast<uint64_t>(s.level));
    h.Add(static_cast<uint64_t>(s.num_candidates));
    h.Add(static_cast<uint64_t>(s.num_frequent));
  }
  h.Add(static_cast<uint64_t>(r.symbol_match.size()));
  for (double v : r.symbol_match) h.Add(v);
  h.Add(static_cast<uint64_t>(r.effective_sample_size));
  h.Add(r.final_epsilon);
  h.Add(static_cast<uint64_t>(r.ambiguous_after_sample));
  h.Add(static_cast<uint64_t>(r.ambiguous_with_unit_spread));
  h.Add(static_cast<uint64_t>(r.accepted_from_sample));
  h.Add(static_cast<uint64_t>(r.truncated ? 1 : 0));
  return h.value();
}

const char* const kMiners[] = {"levelwise", "collapse", "maxminer",
                               "toivonen", "depthfirst"};

MiningResult MineWith(const std::string& miner, Metric metric,
                      const MinerOptions& o, const SequenceDatabase& db,
                      const CompatibilityMatrix& c) {
  if (miner == "levelwise") return LevelwiseMiner(metric, o).Mine(db, c);
  if (miner == "collapse") return BorderCollapseMiner(metric, o).Mine(db, c);
  if (miner == "maxminer") return MaxMiner(metric, o).Mine(db, c);
  if (miner == "toivonen") return ToivonenMiner(metric, o).Mine(db, c);
  return DepthFirstMiner(metric, o).Mine(db, c);
}

/// Recorded fingerprints, keyed
/// "<workload>/<miner>/<metric>/budget=<bytes>/gap=<g>". The thread count
/// is not part of the key: every setting must produce the same bits.
const std::map<std::string, uint64_t>& Expected() {
  static const std::map<std::string, uint64_t> kExpected = {
      {"long/collapse/match/budget=0/gap=0", 0xa1a3e54315f0502cull},
      {"long/collapse/match/budget=0/gap=1", 0x79ac90d09abbf906ull},
      {"long/collapse/match/budget=12000/gap=0", 0xb075a8a8d61bb495ull},
      {"long/collapse/match/budget=12000/gap=1", 0xa278aed5baa40e72ull},
      {"long/collapse/match/budget=6000/gap=0", 0x353aeb872e2e1813ull},
      {"long/collapse/match/budget=6000/gap=1", 0x5e33174bdfcbb21dull},
      {"long/collapse/support/budget=0/gap=0", 0xa9abe9de287d0ecbull},
      {"long/collapse/support/budget=0/gap=1", 0x5d55a86eb71fe90eull},
      {"long/collapse/support/budget=12000/gap=0", 0x7fc2b87e76d4d5feull},
      {"long/collapse/support/budget=12000/gap=1", 0xe4319d98311f657dull},
      {"long/collapse/support/budget=6000/gap=0", 0xe2615af3d60deed2ull},
      {"long/collapse/support/budget=6000/gap=1", 0x88eaa5acd8ae5c93ull},
      {"long/depthfirst/match/budget=0/gap=0", 0x772e12f545c77ee6ull},
      {"long/depthfirst/match/budget=0/gap=1", 0xfe7ead7871d3d0dcull},
      {"long/depthfirst/match/budget=12000/gap=0", 0x4d4e49ad12d44bcdull},
      {"long/depthfirst/match/budget=12000/gap=1", 0x4d4e49ad12d44bcdull},
      {"long/depthfirst/match/budget=6000/gap=0", 0x4d4e49ad12d44bcdull},
      {"long/depthfirst/match/budget=6000/gap=1", 0x4d4e49ad12d44bcdull},
      {"long/depthfirst/support/budget=0/gap=0", 0x192b05f5ecf00644ull},
      {"long/depthfirst/support/budget=0/gap=1", 0x9a45d07af2a390c2ull},
      {"long/depthfirst/support/budget=12000/gap=0", 0x4d4e49ad12d44bcdull},
      {"long/depthfirst/support/budget=12000/gap=1", 0x4d4e49ad12d44bcdull},
      {"long/depthfirst/support/budget=6000/gap=0", 0x4d4e49ad12d44bcdull},
      {"long/depthfirst/support/budget=6000/gap=1", 0x4d4e49ad12d44bcdull},
      {"long/levelwise/match/budget=0/gap=0", 0x6c988666061784edull},
      {"long/levelwise/match/budget=0/gap=1", 0x4a6c87cc871d8d77ull},
      {"long/levelwise/match/budget=12000/gap=0", 0x6c988666061784edull},
      {"long/levelwise/match/budget=12000/gap=1", 0xe61534b0758706c8ull},
      {"long/levelwise/match/budget=6000/gap=0", 0x9fbb70d4dbff564dull},
      {"long/levelwise/match/budget=6000/gap=1", 0xa4a45b20833c286ull},
      {"long/levelwise/support/budget=0/gap=0", 0x79b70767273defd2ull},
      {"long/levelwise/support/budget=0/gap=1", 0xc69c742485345900ull},
      {"long/levelwise/support/budget=12000/gap=0", 0x79b70767273defd2ull},
      {"long/levelwise/support/budget=12000/gap=1", 0x1899eed971068b3full},
      {"long/levelwise/support/budget=6000/gap=0", 0x59a53ee56abc51f2ull},
      {"long/levelwise/support/budget=6000/gap=1", 0xb44a29c5b51825ccull},
      {"long/maxminer/match/budget=0/gap=0", 0x88022797d214e0d3ull},
      {"long/maxminer/match/budget=0/gap=1", 0x4a6c87cc871d8d77ull},
      {"long/maxminer/match/budget=12000/gap=0", 0x88022797d214e0d3ull},
      {"long/maxminer/match/budget=12000/gap=1", 0xe61534b0758706c8ull},
      {"long/maxminer/match/budget=6000/gap=0", 0x39ba8df6351738d9ull},
      {"long/maxminer/match/budget=6000/gap=1", 0xa4a45b20833c286ull},
      {"long/maxminer/support/budget=0/gap=0", 0xc1f328be629299d9ull},
      {"long/maxminer/support/budget=0/gap=1", 0xc69c742485345900ull},
      {"long/maxminer/support/budget=12000/gap=0", 0xc1f328be629299d9ull},
      {"long/maxminer/support/budget=12000/gap=1", 0x1899eed971068b3full},
      {"long/maxminer/support/budget=6000/gap=0", 0x829820e79f462323ull},
      {"long/maxminer/support/budget=6000/gap=1", 0xb44a29c5b51825ccull},
      {"long/toivonen/match/budget=0/gap=0", 0x9e04248c3b1e7b77ull},
      {"long/toivonen/match/budget=0/gap=1", 0xfe589d7a1c75e173ull},
      {"long/toivonen/match/budget=12000/gap=0", 0x629f656e2a36a676ull},
      {"long/toivonen/match/budget=12000/gap=1", 0x81bfd162e0843bceull},
      {"long/toivonen/match/budget=6000/gap=0", 0xa31e85a43827e616ull},
      {"long/toivonen/match/budget=6000/gap=1", 0x925f4e7c879a2b7aull},
      {"long/toivonen/support/budget=0/gap=0", 0x22501dd58a51305cull},
      {"long/toivonen/support/budget=0/gap=1", 0x75d93d82eb0ff6c7ull},
      {"long/toivonen/support/budget=12000/gap=0", 0xf99d3d01da36d2a1ull},
      {"long/toivonen/support/budget=12000/gap=1", 0x8ee8cca8b861a76eull},
      {"long/toivonen/support/budget=6000/gap=0", 0x792ce9e896499428ull},
      {"long/toivonen/support/budget=6000/gap=1", 0x5e80d6f893db922eull},
      {"noisy/collapse/match/budget=0/gap=0", 0x9c093c30e38af6a5ull},
      {"noisy/collapse/match/budget=0/gap=1", 0xb594692aad041bf5ull},
      {"noisy/collapse/match/budget=12000/gap=0", 0x6840e518a4c2e3c8ull},
      {"noisy/collapse/match/budget=12000/gap=1", 0xb5448d6da8ffd9eeull},
      {"noisy/collapse/match/budget=6000/gap=0", 0xaa3c8258046404a5ull},
      {"noisy/collapse/match/budget=6000/gap=1", 0x52fde952247b01b4ull},
      {"noisy/collapse/support/budget=0/gap=0", 0x3ac0ebee19f591fdull},
      {"noisy/collapse/support/budget=0/gap=1", 0x2f25b3cedb599f14ull},
      {"noisy/collapse/support/budget=12000/gap=0", 0xec9daec57293353cull},
      {"noisy/collapse/support/budget=12000/gap=1", 0xf48b11976c304c9dull},
      {"noisy/collapse/support/budget=6000/gap=0", 0x9be1b46d496832baull},
      {"noisy/collapse/support/budget=6000/gap=1", 0xe810432d99e36da7ull},
      {"noisy/depthfirst/match/budget=0/gap=0", 0xab5ff85bf6688e46ull},
      {"noisy/depthfirst/match/budget=0/gap=1", 0x3ed63dcfac4158baull},
      {"noisy/depthfirst/match/budget=12000/gap=0", 0x4d4e49ad12d44bcdull},
      {"noisy/depthfirst/match/budget=12000/gap=1", 0x4d4e49ad12d44bcdull},
      {"noisy/depthfirst/match/budget=6000/gap=0", 0x4d4e49ad12d44bcdull},
      {"noisy/depthfirst/match/budget=6000/gap=1", 0x4d4e49ad12d44bcdull},
      {"noisy/depthfirst/support/budget=0/gap=0", 0x9a54d1c09f9d9c4bull},
      {"noisy/depthfirst/support/budget=0/gap=1", 0xa7909093d87911dbull},
      {"noisy/depthfirst/support/budget=12000/gap=0", 0x4d4e49ad12d44bcdull},
      {"noisy/depthfirst/support/budget=12000/gap=1", 0x4d4e49ad12d44bcdull},
      {"noisy/depthfirst/support/budget=6000/gap=0", 0x4d4e49ad12d44bcdull},
      {"noisy/depthfirst/support/budget=6000/gap=1", 0x4d4e49ad12d44bcdull},
      {"noisy/levelwise/match/budget=0/gap=0", 0x69ca7d77d11a5e77ull},
      {"noisy/levelwise/match/budget=0/gap=1", 0xced399c621644d2dull},
      {"noisy/levelwise/match/budget=12000/gap=0", 0x69ca7d77d11a5e77ull},
      {"noisy/levelwise/match/budget=12000/gap=1", 0xbcf4d72a710731afull},
      {"noisy/levelwise/match/budget=6000/gap=0", 0xd4563281808bdc97ull},
      {"noisy/levelwise/match/budget=6000/gap=1", 0xe301f29a8689de3eull},
      {"noisy/levelwise/support/budget=0/gap=0", 0x9f9e077a42866216ull},
      {"noisy/levelwise/support/budget=0/gap=1", 0x1a6681321afbe6b7ull},
      {"noisy/levelwise/support/budget=12000/gap=0", 0x9f9e077a42866216ull},
      {"noisy/levelwise/support/budget=12000/gap=1", 0x4e4da22a8b803457ull},
      {"noisy/levelwise/support/budget=6000/gap=0", 0x5244a93caa9f83b6ull},
      {"noisy/levelwise/support/budget=6000/gap=1", 0x5d3c2ae64d551be0ull},
      {"noisy/maxminer/match/budget=0/gap=0", 0x69ca7d77d11a5e77ull},
      {"noisy/maxminer/match/budget=0/gap=1", 0xced399c621644d2dull},
      {"noisy/maxminer/match/budget=12000/gap=0", 0x69ca7d77d11a5e77ull},
      {"noisy/maxminer/match/budget=12000/gap=1", 0xbcf4d72a710731afull},
      {"noisy/maxminer/match/budget=6000/gap=0", 0xd4563281808bdc97ull},
      {"noisy/maxminer/match/budget=6000/gap=1", 0xe301f29a8689de3eull},
      {"noisy/maxminer/support/budget=0/gap=0", 0x9f9e077a42866216ull},
      {"noisy/maxminer/support/budget=0/gap=1", 0x1a6681321afbe6b7ull},
      {"noisy/maxminer/support/budget=12000/gap=0", 0x9f9e077a42866216ull},
      {"noisy/maxminer/support/budget=12000/gap=1", 0x4e4da22a8b803457ull},
      {"noisy/maxminer/support/budget=6000/gap=0", 0x5244a93caa9f83b6ull},
      {"noisy/maxminer/support/budget=6000/gap=1", 0x5d3c2ae64d551be0ull},
      {"noisy/toivonen/match/budget=0/gap=0", 0xb6d2ebcc8bac2922ull},
      {"noisy/toivonen/match/budget=0/gap=1", 0x8a805ca55399dd9full},
      {"noisy/toivonen/match/budget=12000/gap=0", 0xd2e98ff651fe028full},
      {"noisy/toivonen/match/budget=12000/gap=1", 0x60a13681537117baull},
      {"noisy/toivonen/match/budget=6000/gap=0", 0x4279c07de08642ebull},
      {"noisy/toivonen/match/budget=6000/gap=1", 0x46a64955541ae5d0ull},
      {"noisy/toivonen/support/budget=0/gap=0", 0x88d003e87aef7a39ull},
      {"noisy/toivonen/support/budget=0/gap=1", 0x747186db691925a8ull},
      {"noisy/toivonen/support/budget=12000/gap=0", 0xb0ea55a28673ff78ull},
      {"noisy/toivonen/support/budget=12000/gap=1", 0x83073413b53ca9f9ull},
      {"noisy/toivonen/support/budget=6000/gap=0", 0x7fe23fabb85c64d8ull},
      {"noisy/toivonen/support/budget=6000/gap=1", 0x47fd107dfd127977ull},
  };
  return kExpected;
}

/// A generated database and the threshold/span it is mined with.
struct FingerprintWorkload {
  const char* name;
  NoisyWorkload data;
  double match_threshold;
  double support_threshold;
  size_t max_span;
};

std::vector<FingerprintWorkload> Workloads() {
  std::vector<FingerprintWorkload> out;
  // Short planted patterns under 10% noise: a wide ambiguous region, and
  // Max-Miner's look-ahead never certifies a jump.
  WorkloadSpec noisy;
  noisy.num_sequences = 120;
  noisy.min_length = 15;
  noisy.max_length = 30;
  noisy.alphabet_size = 8;
  noisy.num_planted = 2;
  noisy.planted_symbols_min = 4;
  noisy.planted_symbols_max = 6;
  noisy.plant_probability = 0.4;
  noisy.seed = 16;
  out.push_back({"noisy", MakeUniformNoiseWorkload(noisy, 0.1), 0.3, 0.4, 6});
  // One dominant 8-symbol pattern: eight lattice levels, certified jumps,
  // and ambiguous patterns on many levels.
  WorkloadSpec long_pattern = noisy;
  long_pattern.num_sequences = 100;
  long_pattern.min_length = 20;
  long_pattern.num_planted = 1;
  long_pattern.planted_symbols_min = 8;
  long_pattern.planted_symbols_max = 8;
  long_pattern.plant_probability = 0.8;
  out.push_back({"long", MakeUniformNoiseWorkload(long_pattern, 0.05), 0.3,
                 0.3, 8});
  return out;
}

TEST(MinerFingerprintTest, EveryMinerMatchesItsRecordedOutput) {
  for (const FingerprintWorkload& w : Workloads()) {
    const CompatibilityMatrix identity =
        CompatibilityMatrix::Identity(w.data.matrix.size());
    for (const char* miner : kMiners) {
      for (Metric metric : {Metric::kMatch, Metric::kSupport}) {
        const bool match = metric == Metric::kMatch;
        for (size_t budget : {size_t{0}, size_t{6000}, size_t{12000}}) {
          for (size_t gap : {size_t{0}, size_t{1}}) {
            for (size_t threads : {size_t{1}, size_t{4}}) {
              MinerOptions o;
              o.min_threshold =
                  match ? w.match_threshold : w.support_threshold;
              o.space.max_span = w.max_span;
              o.space.max_gap = gap;
              o.sample_size = 80;  // under N: leaves an ambiguous region
              o.delta = 0.05;
              o.seed = 5;
              o.max_counters_per_scan = 7;
              o.num_threads = threads;
              o.memory_budget_bytes = budget;
              const std::string key =
                  std::string(w.name) + "/" + miner + "/" +
                  (match ? "match" : "support") +
                  "/budget=" + std::to_string(budget) +
                  "/gap=" + std::to_string(gap);
              const uint64_t actual = Fingerprint(
                  MineWith(miner, metric, o, w.data.test,
                           match ? w.data.matrix : identity));
              auto it = Expected().find(key);
              if (it == Expected().end()) {
                ADD_FAILURE() << "no recorded fingerprint: {\"" << key
                              << "\", 0x" << std::hex << actual << "ull},";
                continue;
              }
              EXPECT_EQ(actual, it->second)
                  << key << " threads " << threads << ": 0x" << std::hex
                  << actual;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace nmine
