#ifndef NMINE_MINING_MINING_RESULT_H_
#define NMINE_MINING_MINING_RESULT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nmine/core/pattern.h"
#include "nmine/core/status.h"
#include "nmine/lattice/border.h"
#include "nmine/lattice/pattern_set.h"

namespace nmine {

/// Per-level statistics of a level-wise traversal (Figure 9 reports the
/// number of candidate patterns at each level).
struct LevelStats {
  size_t level = 0;           // number of non-eternal symbols k
  size_t num_candidates = 0;  // candidates counted at this level
  size_t num_frequent = 0;    // of which frequent
};

/// Output of any miner: the frequent-pattern set, its border, metric
/// values, and cost accounting.
struct MiningResult {
  /// Outcome of the run. Non-OK when a database scan failed and could not
  /// be recovered by retries; the pattern sets are then empty (a partial
  /// answer would be indistinguishable from a complete one) and only the
  /// cost accounting below remains meaningful.
  Status status = Status::Ok();

  bool ok() const { return status.ok(); }

  /// All frequent patterns (match/support >= threshold).
  PatternSet frequent;

  /// The border: maximal frequent patterns.
  Border border;

  /// Metric value for each frequent pattern. For the probabilistic miner,
  /// patterns never probed against the full database carry their sample
  /// estimate (Claim 4.1 accepts them with probability 1 - delta).
  PatternMap<double> values;

  /// Candidate counts per level (deterministic level-wise miners only).
  std::vector<LevelStats> level_stats;

  /// Full passes over the sequence database.
  int64_t scans = 0;

  /// Wall-clock seconds spent mining.
  double seconds = 0.0;

  /// True if the max_candidates_per_level guardrail fired; the frequent
  /// set may then be incomplete.
  bool truncated = false;

  // --- Probabilistic-miner diagnostics (Sections 4.2, 5.3-5.5) ---

  /// Ambiguous patterns after the sample phase, with the restricted spread.
  size_t ambiguous_after_sample = 0;

  /// Ambiguous patterns the sample phase would have produced with the
  /// default spread R = 1 (Figure 11(b) compares the two).
  size_t ambiguous_with_unit_spread = 0;

  /// Patterns labelled frequent directly from the sample (unverified).
  size_t accepted_from_sample = 0;

  /// Phase-1 per-symbol match (index = symbol id).
  std::vector<double> symbol_match;

  // --- Run lifecycle / resource governance (runtime/resource_governor.h) ---

  /// Sample sequences actually kept in memory after any memory-budget
  /// degradation (== the configured sample size, capped at the database
  /// size, when the budget never bound). 0 for miners without a sample.
  size_t effective_sample_size = 0;

  /// The unit-spread Chernoff half-width epsilon recomputed from the
  /// effective sample size (0.0 for miners without a sample phase).
  double final_epsilon = 0.0;

  /// Degradation-ladder steps the resource governor took (probe-batch
  /// shrink and sample shrink each count once per run).
  int degradation_steps = 0;

  /// Frequent patterns in deterministic order.
  std::vector<Pattern> FrequentSorted() const {
    return frequent.ToSortedVector();
  }

  /// Total candidates across levels.
  size_t TotalCandidates() const {
    size_t n = 0;
    for (const LevelStats& s : level_stats) n += s.num_candidates;
    return n;
  }
};

}  // namespace nmine

#endif  // NMINE_MINING_MINING_RESULT_H_
