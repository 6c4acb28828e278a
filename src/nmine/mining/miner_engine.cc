#include "nmine/mining/miner_engine.h"

#include <algorithm>
#include <utility>

#include <string>

#include "nmine/lattice/candidate_gen.h"
#include "nmine/lattice/pattern_counter.h"
#include "nmine/obs/logger.h"
#include "nmine/obs/metrics.h"
#include "nmine/runtime/run_control.h"

namespace nmine {

/// The metric's three counting entry points, with the match variants'
/// signatures.
struct MetricOps {
  decltype(&TryCountMatches) scan;
  decltype(&CountMatchesInRecords) count_records;
  decltype(&ScanSymbolsAndSample) scan_symbols;
};

namespace {

const MetricOps kMatchOps = {
    TryCountMatches, CountMatchesInRecords, ScanSymbolsAndSample};

const MetricOps kSupportOps = {
    [](const SequenceDatabase& db, const CompatibilityMatrix&,
       const std::vector<Pattern>& patterns, std::vector<double>* values,
       const exec::ExecPolicy& exec) {
      return TryCountSupports(db, patterns, values, exec);
    },
    [](const std::vector<SequenceRecord>& records, const CompatibilityMatrix&,
       const std::vector<Pattern>& patterns, const exec::ExecPolicy& exec) {
      return CountSupportsInRecords(records, patterns, exec);
    },
    [](const SequenceDatabase& db, const CompatibilityMatrix& c,
       size_t sample_size, Rng* rng, const exec::ExecPolicy& exec) {
      return ScanSymbolSupports(db, c.size(), sample_size, rng, exec);
    }};

/// Folds a finished run's diagnostics into the global metrics registry
/// (obs/metrics.h) under the shared `mining.*` / `phase2.*` names, so runs
/// of every algorithm are comparable from the same snapshot. The fields on
/// MiningResult remain the per-run snapshot view of the same quantities.
void EmitResultMetrics(const MiningResult& result, const char* algorithm) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("mining.runs").Increment();
  if (!result.ok()) {
    reg.GetCounter("mining.failed_runs").Increment();
    NMINE_LOG(kError, "mining")
        .Msg("run failed")
        .Str("algorithm", algorithm)
        .Str("status", result.status.ToString())
        .Num("scans", result.scans);
  }
  reg.GetCounter(std::string("mining.algorithm.") + algorithm + ".runs")
      .Increment();
  reg.GetCounter("mining.scans").Add(result.scans);
  reg.GetCounter("mining.frequent_patterns")
      .Add(static_cast<int64_t>(result.frequent.size()));
  reg.GetCounter("mining.border_patterns")
      .Add(static_cast<int64_t>(result.border.size()));
  if (result.truncated) reg.GetCounter("mining.truncated_runs").Increment();
  for (const LevelStats& s : result.level_stats) {
    reg.GetCounter(obs::LevelMetricName("mining", s.level, "candidates"))
        .Add(static_cast<int64_t>(s.num_candidates));
    reg.GetCounter(obs::LevelMetricName("mining", s.level, "frequent"))
        .Add(static_cast<int64_t>(s.num_frequent));
  }
  reg.GetCounter("phase2.ambiguous_after_sample")
      .Add(static_cast<int64_t>(result.ambiguous_after_sample));
  reg.GetCounter("phase2.ambiguous_with_unit_spread")
      .Add(static_cast<int64_t>(result.ambiguous_with_unit_spread));
  reg.GetCounter("phase2.accepted_from_sample")
      .Add(static_cast<int64_t>(result.accepted_from_sample));
  if (result.degradation_steps > 0) {
    reg.GetCounter("mining.degraded_runs").Increment();
    reg.GetCounter("mining.degradation_steps")
        .Add(result.degradation_steps);
  }
  if (result.effective_sample_size > 0) {
    reg.GetGauge("mining.last.effective_sample_size")
        .Set(static_cast<double>(result.effective_sample_size));
    reg.GetGauge("mining.last.final_epsilon").Set(result.final_epsilon);
  }
  reg.GetGauge("mining.last.scans").Set(static_cast<double>(result.scans));
  reg.GetGauge("mining.last.seconds").Set(result.seconds);
  reg.GetGauge("mining.last.frequent")
      .Set(static_cast<double>(result.frequent.size()));
  reg.GetGauge("mining.last.border")
      .Set(static_cast<double>(result.border.size()));
  NMINE_LOG(kInfo, "mining")
      .Msg("run finished")
      .Str("algorithm", algorithm)
      .Num("frequent", result.frequent.size())
      .Num("border", result.border.size())
      .Num("scans", result.scans)
      .Num("seconds", result.seconds)
      .Num("truncated", static_cast<int64_t>(result.truncated ? 1 : 0));
}

}  // namespace

BoundCounter::BoundCounter(Metric metric, const CompatibilityMatrix& c,
                           const MinerOptions& options,
                           runtime::ResourceGovernor* governor,
                           const runtime::RunControl* run)
    : ops_(metric == Metric::kMatch ? &kMatchOps : &kSupportOps),
      c_(c),
      exec_(ExecPolicyFor(options)),
      governor_(governor),
      run_(run) {}

SymbolScanResult BoundCounter::ScanSymbols(const SequenceDatabase& db,
                                           size_t sample_size,
                                           Rng* rng) const {
  return ops_->scan_symbols(db, c_, sample_size, rng, exec_);
}

Status BoundCounter::Scan(const SequenceDatabase& db,
                          const std::vector<Pattern>& patterns,
                          std::vector<double>* values) const {
  return ops_->scan(db, c_, patterns, values, exec_);
}

Status BoundCounter::CountDb(const SequenceDatabase& db,
                             const std::vector<Pattern>& patterns,
                             std::vector<double>* values) const {
  return GovernedCount(
      patterns, governor_, run_,
      [this, &db](const std::vector<Pattern>& batch,
                  std::vector<double>* vals) { return Scan(db, batch, vals); },
      values);
}

Status BoundCounter::CountRecords(const std::vector<SequenceRecord>& records,
                                  const std::vector<Pattern>& patterns,
                                  std::vector<double>* values) const {
  return GovernedCount(
      patterns, governor_, run_,
      [this, &records](const std::vector<Pattern>& batch,
                       std::vector<double>* vals) {
        *vals = ops_->count_records(records, c_, batch, exec_);
        return runtime::CheckRun(run_);
      },
      values);
}

RunScope::RunScope(const char* span_name, const char* algorithm,
                   const SequenceDatabase& db, const MinerOptions& options)
    : span_(span_name, "mining"),
      profile_(span_name),
      algorithm_(algorithm),
      db_(db),
      start_(std::chrono::steady_clock::now()),
      scans_before_(db.scan_count()),
      governor_(options.memory_budget_bytes) {}

int64_t RunScope::scans() const {
  return db_.scan_count() - scans_before_ + result_.scans;
}

MiningResult RunScope::Fail(Status status) {
  result_.status = std::move(status);
  result_.frequent = PatternSet();
  result_.values = PatternMap<double>();
  result_.border = Border();
  return End();
}

MiningResult RunScope::Finish() {
  // Insert longest-first so shorter patterns are subsumed immediately and
  // evictions are rare.
  std::vector<Pattern> sorted = result_.frequent.ToSortedVector();
  std::reverse(sorted.begin(), sorted.end());
  result_.border.clear();
  for (const Pattern& p : sorted) result_.border.Insert(p);
  return End();
}

MiningResult RunScope::End() {
  result_.scans = scans();
  result_.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
  result_.degradation_steps = governor_.degradation_steps();
  EmitResultMetrics(result_, algorithm_);
  return std::move(result_);
}

Status RunLevels(size_t m, const MinerOptions& options, const char* span_name,
                 const char* category, const BatchCountFn& count,
                 const PatternSet& viable, const LevelHooks& hooks,
                 std::vector<LevelStats>* level_stats, bool* truncated) {
  std::vector<SymbolId> all_symbols(m);
  for (size_t i = 0; i < m; ++i) all_symbols[i] = static_cast<SymbolId>(i);
  std::vector<Pattern> candidates = Level1Candidates(all_symbols);
  std::vector<SymbolId> level1_symbols;
  std::vector<Pattern> survivors;

  for (size_t level = 1; level <= options.max_level && !candidates.empty();
       ++level) {
    obs::TraceSpan span(span_name, category);
    obs::ProfileScope profile(span_name);
    span.Arg("level", level).Arg("candidates", candidates.size());
    LevelStats stats;
    stats.level = level;
    stats.num_candidates = candidates.size();
    std::vector<Pattern> batch =
        hooks.batch ? hooks.batch(level, std::move(candidates), survivors)
                    : std::move(candidates);
    std::vector<double> values;
    Status s = count(batch, &values);
    if (!s.ok()) return s;
    survivors.clear();
    hooks.classify(level, batch, values, &stats, &span, &survivors);
    level_stats->push_back(stats);

    if (survivors.empty()) break;
    if (level == 1) {
      for (const Pattern& p : survivors) level1_symbols.push_back(p[0]);
    }
    candidates = NextLevelCandidates(
        survivors, level1_symbols, options.space,
        [&viable](const Pattern& sub) { return viable.Contains(sub); },
        options.max_candidates_per_level);
    if (candidates.size() >= options.max_candidates_per_level) {
      *truncated = true;
      if (hooks.truncated) hooks.truncated(level + 1);
    }
  }
  return Status::Ok();
}

}  // namespace nmine
