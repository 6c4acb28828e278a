#include "nmine/mining/max_miner.h"

#include <algorithm>
#include <utility>

#include "nmine/lattice/pattern_set.h"
#include "nmine/mining/miner_engine.h"
#include "nmine/obs/logger.h"
#include "nmine/obs/metrics.h"
#include "nmine/runtime/run_status.h"

namespace nmine {
namespace {

constexpr size_t kMaxJumpsPerScan = 512;

/// Prefix of a contiguous pattern (all but the last symbol), or an empty
/// pattern for 1-patterns.
Pattern ContiguousPrefix(const Pattern& p) {
  if (p.length() <= 1) return Pattern();
  std::vector<SymbolId> body(p.body().begin(), p.body().end() - 1);
  return Pattern(std::move(body));
}

/// Suffix of a contiguous pattern (all but the first symbol).
Pattern ContiguousSuffix(const Pattern& p) {
  if (p.length() <= 1) return Pattern();
  std::vector<SymbolId> body(p.body().begin() + 1, p.body().end());
  return Pattern(std::move(body));
}

/// Builds look-ahead "jump" candidates by overlap-joining the frequent
/// level-k patterns into maximal chains, following the highest-value
/// successor at each step (the sequential analogue of Max-Miner's
/// head-union-tail counting).
std::vector<Pattern> BuildJumps(const std::vector<Pattern>& frontier,
                                const PatternMap<double>& values,
                                size_t max_span, size_t min_symbols) {
  std::vector<Pattern> jumps;
  if (frontier.empty() || frontier.front().length() < 2) return jumps;

  PatternMap<std::vector<size_t>> by_prefix;
  for (size_t i = 0; i < frontier.size(); ++i) {
    by_prefix[ContiguousPrefix(frontier[i])].push_back(i);
  }
  auto value_of = [&values](const Pattern& p) {
    auto it = values.find(p);
    return it == values.end() ? 1.0 : it->second;
  };

  PatternSet seen;
  for (const Pattern& start : frontier) {
    if (jumps.size() >= kMaxJumpsPerScan) break;
    std::vector<SymbolId> chain = start.body();
    Pattern tail = start;
    while (chain.size() < max_span) {
      auto it = by_prefix.find(ContiguousSuffix(tail));
      if (it == by_prefix.end()) break;
      // Greedy: extend with the highest-value overlapping pattern.
      const Pattern* best = nullptr;
      double best_value = -1.0;
      for (size_t idx : it->second) {
        double v = value_of(frontier[idx]);
        if (v > best_value) {
          best_value = v;
          best = &frontier[idx];
        }
      }
      if (best == nullptr) break;
      chain.push_back((*best)[best->length() - 1]);
      tail = *best;
    }
    if (chain.size() >= min_symbols) {
      Pattern jump(std::move(chain));
      if (seen.Insert(jump)) {
        jumps.push_back(std::move(jump));
      }
    }
  }
  return jumps;
}

}  // namespace

MiningResult MaxMiner::Mine(const SequenceDatabase& db,
                            const CompatibilityMatrix& c) const {
  RunScope scope("mine.maxminer", "maxminer", db, options_);
  runtime::PublishPhase("mine.maxminer");
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  MiningResult& result = scope.result();
  const bool contiguous = options_.space.max_gap == 0;
  // GovernedCount preserves input order, so the values of a split batch
  // still line up with the counted candidates followed by the jumps.
  const BoundCounter counter(metric_, c, options_, scope.governor(),
                             options_.run_control);

  // Patterns certified frequent by a counted look-ahead jump: anything they
  // cover is frequent by Apriori and need not be counted.
  Border certified;
  // This level's split: candidates certified by a jump, how many were
  // counted, and the jumps counted after them in the same scan.
  std::vector<Pattern> covered;
  size_t counted = 0;
  std::vector<Pattern> jumps;
  PatternMap<double> frontier_values;

  LevelHooks hooks;
  hooks.batch = [&](size_t level, std::vector<Pattern> candidates,
                    const std::vector<Pattern>& frontier) {
    std::vector<Pattern> batch;
    covered.clear();
    for (Pattern& cand : candidates) {
      (certified.Covers(cand) ? covered : batch).push_back(std::move(cand));
    }
    counted = batch.size();
    // Look-ahead jumps piggyback on the same scan.
    jumps.clear();
    if (contiguous && level >= 2) {
      jumps = BuildJumps(frontier, frontier_values, options_.space.max_span,
                         /*min_symbols=*/level + 2);
      // Jumps already certified are pointless to recount.
      jumps.erase(std::remove_if(jumps.begin(), jumps.end(),
                                 [&certified](const Pattern& j) {
                                   return certified.Covers(j);
                                 }),
                  jumps.end());
    }
    batch.insert(batch.end(), jumps.begin(), jumps.end());
    return batch;
  };
  hooks.classify = [&](size_t level, const std::vector<Pattern>& batch,
                       const std::vector<double>& values, LevelStats* stats,
                       obs::TraceSpan* span, std::vector<Pattern>* frontier) {
    frontier_values.clear();
    for (size_t i = 0; i < counted; ++i) {
      if (values[i] >= options_.min_threshold) {
        frontier->push_back(batch[i]);
        frontier_values[batch[i]] = values[i];
        result.frequent.Insert(batch[i]);
        result.values[batch[i]] = values[i];
      }
    }
    for (Pattern& p : covered) {
      result.frequent.Insert(p);
      frontier->push_back(std::move(p));  // certified frequent, no value
    }
    size_t jumps_certified = 0;
    for (size_t j = 0; j < jumps.size(); ++j) {
      double v = values[counted + j];
      if (v >= options_.min_threshold) {
        certified.Insert(jumps[j]);
        result.frequent.Insert(jumps[j]);
        result.values[jumps[j]] = v;
        ++jumps_certified;
      }
    }
    stats->num_frequent = frontier->size();

    reg.GetCounter("maxminer.counted").Add(static_cast<int64_t>(counted));
    reg.GetCounter("maxminer.covered")
        .Add(static_cast<int64_t>(covered.size()));
    reg.GetCounter("maxminer.jumps").Add(static_cast<int64_t>(jumps.size()));
    reg.GetCounter("maxminer.jumps_certified")
        .Add(static_cast<int64_t>(jumps_certified));
    span->Arg("counted", counted)
        .Arg("covered", covered.size())
        .Arg("jumps", jumps.size())
        .Arg("jumps_certified", jumps_certified)
        .Arg("frequent", stats->num_frequent);
    NMINE_LOG(kDebug, "maxminer")
        .Msg("level counted")
        .Num("level", level)
        .Num("candidates", stats->num_candidates)
        .Num("covered", covered.size())
        .Num("jumps_certified", jumps_certified)
        .Num("frequent", stats->num_frequent);
    runtime::PublishProgress("maxminer.level", static_cast<int64_t>(level),
                             static_cast<int64_t>(stats->num_frequent));
  };
  // Under a binding budget a level costs several scans instead of one; the
  // run control stops the loop between scans.
  Status s = RunLevels(
      c.size(), options_, "maxminer.level", "maxminer",
      [&](const std::vector<Pattern>& batch, std::vector<double>* values) {
        return counter.CountDb(db, batch, values);
      },
      result.frequent, hooks, &result.level_stats, &result.truncated);
  if (!s.ok()) return scope.Fail(std::move(s));
  // Every pattern covered by a certified jump is frequent; they are already
  // in `result.frequent` because covered candidates are enumerated level by
  // level. The border is therefore complete.
  return scope.Finish();
}

}  // namespace nmine
