#ifndef NMINE_MINING_LEVELWISE_MINER_H_
#define NMINE_MINING_LEVELWISE_MINER_H_

#include <functional>
#include <vector>

#include "nmine/core/compatibility_matrix.h"
#include "nmine/db/sequence_database.h"
#include "nmine/mining/miner_options.h"
#include "nmine/mining/mining_result.h"

namespace nmine {

/// The deterministic Apriori baseline ("any algorithm powered by the
/// Apriori property can be adopted to mine frequent patterns according to
/// the match metric", Section 3): breadth-first level-wise search, one full
/// database scan per lattice level. Exact — used as the ground-truth oracle
/// for the probabilistic algorithm and for the robustness experiments
/// (Figures 7-9).
class LevelwiseMiner {
 public:
  LevelwiseMiner(Metric metric, const MinerOptions& options)
      : metric_(metric), options_(options) {}

  /// Mines the whole database. `c` defines the alphabet size m; it is only
  /// consulted for probabilities when the metric is kMatch.
  MiningResult Mine(const SequenceDatabase& db,
                    const CompatibilityMatrix& c) const;

  /// Per-pattern-threshold variant: pattern P qualifies iff its metric is
  /// >= threshold_of(P). Used with MatchCalibration to compensate the
  /// systematic match deflation under noise (see eval/calibration.h).
  /// Note: Apriori pruning is heuristic here when threshold_of is not
  /// constant — a pattern can in principle clear its own (lower) threshold
  /// while a subpattern misses its (higher) one; in the calibrated setting
  /// the two effects cancel in expectation.
  MiningResult MineWithThreshold(
      const SequenceDatabase& db, const CompatibilityMatrix& c,
      const std::function<double(const Pattern&)>& threshold_of) const;

 private:
  MiningResult Run(const SequenceDatabase& db, const CompatibilityMatrix& c,
                   const std::function<double(const Pattern&)>& threshold_of,
                   const char* span_name) const;

  Metric metric_;
  MinerOptions options_;
};

}  // namespace nmine

#endif  // NMINE_MINING_LEVELWISE_MINER_H_
