#include "nmine/mining/levelwise_miner.h"

#include "nmine/mining/miner_engine.h"
#include "nmine/obs/logger.h"
#include "nmine/runtime/run_status.h"

namespace nmine {

MiningResult LevelwiseMiner::Mine(const SequenceDatabase& db,
                                  const CompatibilityMatrix& c) const {
  const double threshold = options_.min_threshold;
  return Run(
      db, c, [threshold](const Pattern&) { return threshold; },
      "mine.levelwise");
}

MiningResult LevelwiseMiner::MineWithThreshold(
    const SequenceDatabase& db, const CompatibilityMatrix& c,
    const std::function<double(const Pattern&)>& threshold_of) const {
  return Run(db, c, threshold_of, "mine.levelwise_calibrated");
}

MiningResult LevelwiseMiner::Run(
    const SequenceDatabase& db, const CompatibilityMatrix& c,
    const std::function<double(const Pattern&)>& threshold_of,
    const char* span_name) const {
  RunScope scope(span_name, "levelwise", db, options_);
  runtime::PublishPhase(span_name);
  MiningResult& result = scope.result();
  // Under a memory budget each level is counted in governor-admitted
  // batches (extra scans, exact results); the run control stops the loop
  // between scans.
  const BoundCounter counter(metric_, c, options_, scope.governor(),
                             options_.run_control);
  LevelHooks hooks;
  hooks.classify = [&](size_t level, const std::vector<Pattern>& candidates,
                       const std::vector<double>& values, LevelStats* stats,
                       obs::TraceSpan* span, std::vector<Pattern>* frequent) {
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (values[i] >= threshold_of(candidates[i])) {
        frequent->push_back(candidates[i]);
        result.frequent.Insert(candidates[i]);
        result.values[candidates[i]] = values[i];
      }
    }
    stats->num_frequent = frequent->size();
    span->Arg("frequent", stats->num_frequent);
    NMINE_LOG(kDebug, "levelwise")
        .Msg("level counted")
        .Num("level", level)
        .Num("candidates", stats->num_candidates)
        .Num("frequent", stats->num_frequent);
    runtime::PublishProgress("levelwise.level", static_cast<int64_t>(level),
                             static_cast<int64_t>(stats->num_frequent));
  };
  Status s = RunLevels(
      c.size(), options_, "levelwise.level", "levelwise",
      [&](const std::vector<Pattern>& batch, std::vector<double>* values) {
        return counter.CountDb(db, batch, values);
      },
      result.frequent, hooks, &result.level_stats, &result.truncated);
  if (!s.ok()) return scope.Fail(std::move(s));
  return scope.Finish();
}

}  // namespace nmine
