#ifndef NMINE_MINING_MINER_ENGINE_H_
#define NMINE_MINING_MINER_ENGINE_H_

// The parts every miner shares, internal to src/nmine/mining: a counter
// bound once to the metric, a run scope holding a run's bookkeeping, and
// the Apriori level loop whose hooks make it level-wise search, Max-Miner
// or Phase 2.

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "nmine/core/compatibility_matrix.h"
#include "nmine/db/sequence_database.h"
#include "nmine/mining/governed_count.h"
#include "nmine/mining/miner_options.h"
#include "nmine/mining/mining_result.h"
#include "nmine/mining/symbol_scan.h"
#include "nmine/obs/profiler.h"
#include "nmine/obs/trace.h"
#include "nmine/runtime/resource_governor.h"

namespace nmine {

struct MetricOps;

/// Counts patterns under one metric, bound once to its matrix, exec
/// policy, memory governor and run control.
class BoundCounter {
 public:
  BoundCounter(Metric metric, const CompatibilityMatrix& c,
               const MinerOptions& options,
               runtime::ResourceGovernor* governor,
               const runtime::RunControl* run);

  /// Phase 1 (Algorithm 4.1): per-symbol matches (supports) and the
  /// sample, in one scan of `db`.
  SymbolScanResult ScanSymbols(const SequenceDatabase& db, size_t sample_size,
                               Rng* rng) const;

  /// Counts all of `patterns` in one scan of `db`.
  Status Scan(const SequenceDatabase& db, const std::vector<Pattern>& patterns,
              std::vector<double>* values) const;

  /// Counts `patterns` over `db` in governor-admitted batches, one scan
  /// each (see GovernedCount).
  Status CountDb(const SequenceDatabase& db,
                 const std::vector<Pattern>& patterns,
                 std::vector<double>* values) const;

  /// Counts `patterns` over in-memory records in governor-admitted
  /// batches (no scans). A stop mid-batch leaves garbage values, so every
  /// batch is followed by a run check.
  Status CountRecords(const std::vector<SequenceRecord>& records,
                      const std::vector<Pattern>& patterns,
                      std::vector<double>* values) const;

 private:
  const MetricOps* ops_;
  const CompatibilityMatrix& c_;
  exec::ExecPolicy exec_;
  runtime::ResourceGovernor* governor_;
  const runtime::RunControl* run_;
};

/// One mining run's bookkeeping: its `mine.*` span and profile scope, the
/// start time, the database's scan count at the start, the memory
/// governor, and the result under construction. Fail and Finish end the
/// run and fold it into the metrics registry under `algorithm`.
class RunScope {
 public:
  RunScope(const char* span_name, const char* algorithm,
           const SequenceDatabase& db, const MinerOptions& options);

  MiningResult& result() { return result_; }
  runtime::ResourceGovernor* governor() { return &governor_; }

  /// Scans charged so far: the database's own count since the start plus
  /// any already in result().scans (resumed or farmed-out scans).
  int64_t scans() const;

  /// Ends the run with `status`. A partial pattern set would be
  /// indistinguishable from a complete one, so the patterns, values and
  /// border are dropped; only the cost accounting remains.
  MiningResult Fail(Status status);

  /// Ends a successful run: builds the border from the frequent set.
  MiningResult Finish();

 private:
  MiningResult End();

  obs::TraceSpan span_;
  obs::ProfileScope profile_;
  const char* algorithm_;
  const SequenceDatabase& db_;
  std::chrono::steady_clock::time_point start_;
  int64_t scans_before_;
  runtime::ResourceGovernor governor_;
  MiningResult result_;
};

/// Hooks that make the level loop a particular miner.
struct LevelHooks {
  /// Turns a level's candidates into the batch to count, given the
  /// previous level's survivors. Unset: count every candidate.
  std::function<std::vector<Pattern>(size_t level,
                                     std::vector<Pattern> candidates,
                                     const std::vector<Pattern>& previous)>
      batch;

  /// Classifies the counted batch: appends the patterns that seed the
  /// next level to `survivors`, sets stats->num_frequent, and does the
  /// miner's own accounting (counters, span args, log lines).
  std::function<void(size_t level, const std::vector<Pattern>& batch,
                     const std::vector<double>& values, LevelStats* stats,
                     obs::TraceSpan* span, std::vector<Pattern>* survivors)>
      classify;

  /// Called when the next level's candidates hit the guardrail. Optional.
  std::function<void(size_t next_level)> truncated;
};

/// Apriori level-wise search over the alphabet [0, m): each level's batch
/// is counted through `count` and classified by the hooks, and the next
/// level is generated from the survivors, keeping only candidates whose
/// every subpattern is in `viable`. Appends one LevelStats per level and
/// sets *truncated when max_candidates_per_level fires. Returns the first
/// failed count; the levels before it stay in `level_stats`.
Status RunLevels(size_t m, const MinerOptions& options, const char* span_name,
                 const char* category, const BatchCountFn& count,
                 const PatternSet& viable, const LevelHooks& hooks,
                 std::vector<LevelStats>* level_stats, bool* truncated);

}  // namespace nmine

#endif  // NMINE_MINING_MINER_ENGINE_H_
