#include "nmine/mining/border_collapse_miner.h"

#include <map>
#include <string>
#include <utility>

#include "nmine/lattice/halfway.h"
#include "nmine/lattice/pattern_set.h"
#include "nmine/mining/miner_engine.h"
#include "nmine/mining/toivonen_miner.h"
#include "nmine/obs/flight_recorder.h"
#include "nmine/obs/logger.h"
#include "nmine/obs/metrics.h"
#include "nmine/obs/profiler.h"
#include "nmine/obs/trace.h"
#include "nmine/runtime/run_checkpoint.h"
#include "nmine/runtime/run_status.h"

namespace nmine {
namespace {

double PatternSpread(const Pattern& p,
                     const std::vector<double>& symbol_match) {
  double r = 1.0;
  for (size_t i = 0; i < p.length(); ++i) {
    SymbolId s = p[i];
    if (IsWildcard(s)) continue;
    double sm = symbol_match[static_cast<size_t>(s)];
    if (sm < r) r = sm;
  }
  return r;
}

}  // namespace

SampleClassification ClassifySamplePatterns(
    const std::vector<SequenceRecord>& records, const CompatibilityMatrix& c,
    const std::vector<double>& symbol_match, Metric metric,
    const MinerOptions& options, runtime::ResourceGovernor* governor,
    const runtime::RunControl* run) {
  obs::TraceSpan phase2_span("phase2.sample_mining", "phase2");
  NMINE_PROFILE_SCOPE("phase2.sample_mining");
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  SampleClassification out;
  const size_t n = records.size();
  const double unit_eps =
      n > 0 ? ChernoffEpsilon(1.0, options.delta, n) : 0.0;

  // keep = frequent-or-ambiguous patterns, the Apriori-viable set for
  // candidate generation (Section 4.2: "P may be considered a candidate
  // pattern iff every sub-pattern of P is either frequent or ambiguous").
  PatternSet keep;

  LevelHooks hooks;
  hooks.classify = [&](size_t level, const std::vector<Pattern>& candidates,
                       const std::vector<double>& values, LevelStats* stats,
                       obs::TraceSpan* span, std::vector<Pattern>* kept) {
    size_t level_ambiguous = 0;
    double eps_sum = 0.0;
    for (size_t i = 0; i < candidates.size(); ++i) {
      const Pattern& p = candidates[i];
      double spread = options.use_restricted_spread
                          ? PatternSpread(p, symbol_match)
                          : 1.0;
      double eps =
          n > 0 ? ChernoffEpsilon(spread, options.delta, n) : 0.0;
      eps_sum += eps;
      PatternLabel label =
          ClassifyMatch(values[i], options.min_threshold, eps);
      PatternLabel unit_label =
          ClassifyMatch(values[i], options.min_threshold, unit_eps);
      if (unit_label == PatternLabel::kAmbiguous) {
        ++out.ambiguous_with_unit_spread;
      }
      if (label == PatternLabel::kInfrequent) continue;
      out.sample_values[p] = values[i];
      keep.Insert(p);
      kept->push_back(p);
      if (label == PatternLabel::kFrequent) {
        out.frequent.push_back(p);
        out.fqt.Insert(p);
        ++stats->num_frequent;
      } else {
        out.ambiguous.push_back(p);
        out.infqt.Insert(p);
        ++level_ambiguous;
      }
    }

    // Per-level accounting: the frequent/ambiguous/infrequent split and
    // the mean Chernoff band width (the quantity that drives the split).
    const size_t level_infrequent =
        stats->num_candidates - stats->num_frequent - level_ambiguous;
    const double mean_band =
        stats->num_candidates > 0
            ? eps_sum / static_cast<double>(stats->num_candidates)
            : 0.0;
    reg.GetCounter("phase2.levels").Increment();
    reg.GetCounter("phase2.candidates")
        .Add(static_cast<int64_t>(stats->num_candidates));
    reg.GetCounter("phase2.frequent")
        .Add(static_cast<int64_t>(stats->num_frequent));
    reg.GetCounter("phase2.ambiguous")
        .Add(static_cast<int64_t>(level_ambiguous));
    reg.GetCounter("phase2.infrequent")
        .Add(static_cast<int64_t>(level_infrequent));
    reg.GetHistogram("phase2.band_width",
                     {0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5})
        .Observe(mean_band);
    span->Arg("frequent", stats->num_frequent)
        .Arg("ambiguous", level_ambiguous)
        .Arg("infrequent", level_infrequent)
        .Arg("mean_band_width", mean_band);
    NMINE_LOG(kDebug, "phase2")
        .Msg("sample level classified")
        .Num("level", level)
        .Num("candidates", stats->num_candidates)
        .Num("frequent", stats->num_frequent)
        .Num("ambiguous", level_ambiguous)
        .Num("infrequent", level_infrequent)
        .Num("mean_band_width", mean_band);
  };
  hooks.truncated = [&](size_t next_level) {
    reg.GetCounter("phase2.truncations").Increment();
    NMINE_LOG(kWarn, "phase2")
        .Msg("candidate guardrail fired")
        .Num("level", next_level)
        .Num("max_candidates_per_level", options.max_candidates_per_level);
  };

  // Phase 2 runs on the in-memory sample, so no scans are charged; the
  // exec policy still shards the per-level counting across workers, and
  // the governor may slice a level into several exact batches (also free).
  const BoundCounter counter(metric, c, options, governor, run);
  out.status = RunLevels(
      c.size(), options, "phase2.level", "phase2",
      [&](const std::vector<Pattern>& batch, std::vector<double>* values) {
        return counter.CountRecords(records, batch, values);
      },
      keep, hooks, &out.level_stats, &out.truncated);
  return out;
}

namespace {

/// The order in which Phase 3 probes the levels of the ambiguous region.
enum class ProbeOrder {
  /// Border collapsing (Algorithm 4.3): the halfway level first.
  kBisection,
  /// The Toivonen baseline: only the lowest remaining level, which makes
  /// Phase 3 a level-by-level verification. Its ambiguous region is not
  /// charged to the memory budget.
  kLowestLevel,
};

/// The probabilistic algorithm of Section 4 (Phases 1-3), with Phase 3
/// probing in `order`, traced as `span_name` and reported as `algorithm`.
MiningResult MineInThreePhases(Metric metric, const MinerOptions& options,
                               const SequenceDatabase& db,
                               const CompatibilityMatrix& c, ProbeOrder order,
                               const char* span_name, const char* algorithm) {
  RunScope scope(span_name, algorithm, db, options);
  MiningResult& result = scope.result();
  runtime::ResourceGovernor& governor = *scope.governor();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const runtime::RunControl* run = options.run_control;
  const BoundCounter counter(metric, c, options, &governor, run);

  // Whole-run checkpointing at the stage 1/2/3 boundaries.
  const std::string& ckpt_path = options.run_checkpoint_path;

  auto make_guard = [&] {
    runtime::RunCheckpoint g;
    g.metric = metric;
    g.min_threshold = options.min_threshold;
    g.num_sequences = db.NumSequences();
    g.total_symbols = db.TotalSymbols();
    g.sample_size = options.sample_size;
    g.seed = options.seed;
    g.delta = options.delta;
    return g;
  };

  // State the Phase-3 loop runs on: the unresolved ambiguous region and
  // the sample estimates closure-frequent patterns inherit. Filled either
  // by Phases 1-2 or from a checkpoint of an interrupted run.
  std::vector<Pattern> ambiguous;
  PatternMap<double> sample_values;
  std::vector<SequenceRecord> sample_records;
  bool resumed = false;       // stage >= 2: Phases 1-2 are final
  bool have_phase1 = false;   // stage 1: Phase 1 is final, Phase 2 reruns

  if (!ckpt_path.empty()) {
    runtime::RunCheckpoint cp;
    Status s = runtime::LoadRunCheckpoint(ckpt_path, make_guard(), &cp);
    if (s.ok()) {
      reg.GetCounter("phase3.resumes").Increment();
      NMINE_LOG(kInfo, "phase3")
          .Msg("resuming border collapse from checkpoint")
          .Str("path", ckpt_path)
          .Str("stage", ToString(cp.stage))
          .Num("resolved", cp.resolved_frequent.size())
          .Num("unresolved", cp.unresolved.size())
          .Num("scans_completed", cp.scans_completed);
      result.symbol_match = cp.symbol_match;
      result.ambiguous_after_sample = cp.ambiguous_after_sample;
      result.ambiguous_with_unit_spread = cp.ambiguous_with_unit_spread;
      result.accepted_from_sample = cp.accepted_from_sample;
      result.truncated = cp.truncated;
      result.effective_sample_size = cp.effective_sample_size;
      result.final_epsilon = cp.final_epsilon;
      result.scans = cp.scans_completed;  // the scope adds this run's scans
      if (cp.stage == runtime::RunStage::kPhase1Done) {
        // Phase 1's scan is already consumed; its sample re-enters the
        // pipeline exactly as if the scan had just finished.
        sample_records = std::move(cp.sample);
        have_phase1 = true;
      } else {
        resumed = true;
        for (const auto& [p, v] : cp.resolved_frequent) {
          result.frequent.Insert(p);
          result.values[p] = v;
        }
        for (const auto& [p, v] : cp.unresolved) {
          ambiguous.push_back(p);
          sample_values[p] = v;
        }
      }
    } else if (s.code() != StatusCode::kNotFound) {
      NMINE_LOG(kWarn, "phase3")
          .Msg("ignoring unusable checkpoint; starting fresh")
          .Str("path", ckpt_path)
          .Str("status", s.ToString());
    }
  }

  auto write_checkpoint = [&](runtime::RunStage stage) {
    runtime::RunCheckpoint cp = make_guard();
    cp.stage = stage;
    cp.scans_completed = scope.scans();
    cp.ambiguous_after_sample = result.ambiguous_after_sample;
    cp.ambiguous_with_unit_spread = result.ambiguous_with_unit_spread;
    cp.accepted_from_sample = result.accepted_from_sample;
    cp.truncated = result.truncated;
    cp.effective_sample_size = result.effective_sample_size;
    cp.final_epsilon = result.final_epsilon;
    cp.symbol_match = result.symbol_match;
    if (stage == runtime::RunStage::kPhase1Done) {
      cp.sample = sample_records;
    } else {
      for (const Pattern& p : result.frequent.ToSortedVector()) {
        cp.resolved_frequent.emplace_back(p, result.values[p]);
      }
      for (const Pattern& p : ambiguous) {
        cp.unresolved.emplace_back(p, sample_values[p]);
      }
    }
    Status s = runtime::WriteRunCheckpoint(ckpt_path, cp);
    if (s.ok()) {
      reg.GetCounter("runtime.checkpoints").Increment();
      if (stage != runtime::RunStage::kPhase1Done) {
        reg.GetCounter("phase3.checkpoints").Increment();
      }
    } else {
      NMINE_LOG(kWarn, "phase3")
          .Msg("checkpoint write failed; continuing without")
          .Str("path", ckpt_path)
          .Str("status", s.ToString());
    }
  };

  if (!resumed) {
    if (!have_phase1) {
      // ---- Phase 1: symbol matches + sample, one scan (Algorithm 4.1).
      runtime::PublishPhase("phase1");
      Rng rng(options.seed);
      SymbolScanResult phase1 =
          counter.ScanSymbols(db, options.sample_size, &rng);
      if (!phase1.status.ok()) return scope.Fail(phase1.status);
      result.symbol_match = phase1.symbol_match;
      sample_records = phase1.sample.records();
    }

    // ---- Memory-budget admission (degradation ladder step 2, decided at
    // the Phase-1 boundary): shrink the in-memory sample when it does not
    // fit. The kept prefix re-derives epsilon from the smaller n, so the
    // ambiguous band widens and more patterns are probed exactly —
    // degraded cost, never degraded correctness.
    size_t sample_bytes = 0;
    for (const SequenceRecord& r : sample_records) {
      sample_bytes += runtime::RecordBytes(r);
    }
    const size_t charged_before_sample = governor.charged_bytes();
    size_t kept = governor.AdmitSample(sample_records.size(), sample_bytes,
                                       /*min_keep=*/1);
    if (kept == 0 && !sample_records.empty()) {
      return scope.Fail(Status::ResourceExhausted(
          "memory budget cannot hold even a one-sequence sample"));
    }
    if (kept < sample_records.size()) sample_records.resize(kept);
    result.effective_sample_size = sample_records.size();
    result.final_epsilon =
        sample_records.empty()
            ? 0.0
            : ChernoffEpsilon(1.0, options.delta, sample_records.size());

    // The Phase-1 scan is consumed: snapshot it so a later kill skips
    // straight to Phase 2 on resume.
    if (!ckpt_path.empty() && !have_phase1) {
      write_checkpoint(runtime::RunStage::kPhase1Done);
    }

    // ---- Phase 2: classify patterns on the in-memory sample.
    // A stop fails the first count; the stage-1 snapshot stays on disk.
    runtime::PublishPhase("phase2");
    SampleClassification cls =
        ClassifySamplePatterns(sample_records, c, result.symbol_match,
                               metric, options, &governor, run);
    if (!cls.status.ok()) return scope.Fail(cls.status);
    // The sample is dead after Phase 2 (its checkpoint copy, when wanted,
    // is already on disk): return its bytes so Phase-3 probe batches get
    // the full remaining budget.
    governor.Release(governor.charged_bytes() - charged_before_sample);
    sample_records.clear();
    sample_records.shrink_to_fit();
    result.level_stats = cls.level_stats;
    result.truncated = cls.truncated;
    result.ambiguous_after_sample = cls.ambiguous.size();
    result.ambiguous_with_unit_spread = cls.ambiguous_with_unit_spread;
    result.accepted_from_sample = cls.frequent.size();

    // Sample-frequent patterns are accepted with probability 1 - delta
    // (Claim 4.1); they carry their sample estimates.
    for (const Pattern& p : cls.frequent) {
      result.frequent.Insert(p);
      result.values[p] = cls.sample_values[p];
    }
    ambiguous = std::move(cls.ambiguous);
    sample_values = std::move(cls.sample_values);

    // The ambiguous region lives until Phase 3 resolves it; account it.
    if (order == ProbeOrder::kBisection) {
      size_t region_bytes = 0;
      for (const Pattern& p : ambiguous) {
        region_bytes += runtime::PatternBytes(p) + sizeof(double);
      }
      Status charge = governor.Charge("ambiguous-region", region_bytes);
      if (!charge.ok()) return scope.Fail(std::move(charge));
    }

    // Checkpoint the Phase-1/2 output before the first probe scan, so even
    // a first-scan fault resumes without repeating the sample phase.
    if (!ckpt_path.empty() && !ambiguous.empty()) {
      write_checkpoint(runtime::RunStage::kPhase2Done);
    }
  }

  // ---- Phase 3: border collapsing over the ambiguous region
  // (Algorithm 4.3). The ambiguous set is probed in bisection order of
  // lattice levels — the halfway layer has the highest collapsing power —
  // batched by the memory budget; every probe scan is followed by Apriori
  // closure over the remaining ambiguous patterns. Probing only the lowest
  // level instead is Toivonen's level-by-level verification: closure then
  // drops exactly the superpatterns of the level's infrequent patterns,
  // and frequent closure never fires (a remaining pattern has at least as
  // many symbols as any probe, so it can only be a subpattern of itself).
  reg.GetGauge("phase3.budget.max_counters")
      .Set(static_cast<double>(options.max_counters_per_scan));
  obs::TraceSpan phase3_span("phase3.border_collapse", "phase3");
  NMINE_PROFILE_SCOPE("phase3.border_collapse");
  runtime::PublishPhase("phase3");
  phase3_span.Arg("ambiguous_initial", ambiguous.size());
  while (!ambiguous.empty()) {
    // Flush-and-stop: a cancel/deadline observed between probe scans
    // persists the exact collapsed state (consumed scans only) before the
    // typed failure, so a rerun resumes bit-identically.
    Status rs = runtime::CheckRun(run);
    if (!rs.ok()) {
      if (!ckpt_path.empty()) write_checkpoint(runtime::RunStage::kPhase3Progress);
      return scope.Fail(rs);
    }

    // One full-database probe scan per iteration: spans and counters below
    // account the probe batch and the collapse it produces.
    obs::TraceSpan scan_span("phase3.scan", "phase3");
    NMINE_PROFILE_SCOPE("phase3.scan");
    const size_t ambiguous_before = ambiguous.size();
    // Group the remaining ambiguous patterns by level.
    std::map<size_t, std::vector<const Pattern*>> by_level;
    for (const Pattern& p : ambiguous) {
      by_level[p.NumSymbols()].push_back(&p);
    }
    const size_t lo = by_level.begin()->first;
    const size_t hi = by_level.rbegin()->first;

    // Degradation ladder step 1: the probe batch is capped by the memory
    // budget below max_counters_per_scan (more scans, each probing fewer
    // patterns — results stay exact).
    size_t batch_cap = options.max_counters_per_scan;
    if (!governor.unlimited()) {
      batch_cap =
          governor.AdmitBatch(batch_cap, CounterBytes(ambiguous.front()));
      if (batch_cap == 0) {
        return scope.Fail(Status::ResourceExhausted(
            "memory budget cannot hold a single probe counter"));
      }
    }

    // Fill the probe set in probe order until memory is full.
    std::vector<Pattern> probe;
    PatternSet probe_set;
    for (size_t level : order == ProbeOrder::kBisection
                            ? BisectionOrder(lo, hi)
                            : std::vector<size_t>{lo}) {
      auto it = by_level.find(level);
      if (it == by_level.end()) continue;
      for (const Pattern* p : it->second) {
        if (probe.size() >= batch_cap) break;
        probe.push_back(*p);
        probe_set.Insert(*p);
      }
      if (probe.size() >= batch_cap) break;
    }
    if (probe.empty()) {
      // Degenerate memory budget; probe at least one pattern so the loop
      // always makes progress.
      probe.push_back(ambiguous.front());
      probe_set.Insert(ambiguous.front());
    }

    // One scan of the full database for the whole probe set. A transient
    // scan fault is retried at the miner level (on top of any retrying the
    // database itself does): only this unresolved probe batch is
    // re-counted — resolved patterns are never probed again.
    std::vector<double> values;
    Status scan_status = Status::Ok();
    for (size_t attempt = 0; attempt <= options.phase3_scan_retries;
         ++attempt) {
      if (attempt > 0) {
        reg.GetCounter("phase3.scan_retries").Increment();
        obs::FlightRecorder::Global().Record(
            obs::FlightEventType::kScanRetry, "phase3.scan",
            static_cast<int64_t>(attempt),
            static_cast<int64_t>(probe.size()));
        NMINE_LOG(kWarn, "phase3")
            .Msg("retrying failed probe scan")
            .Num("attempt", attempt)
            .Num("probe_size", probe.size())
            .Str("status", scan_status.ToString());
      }
      if (options.phase3_count_override) {
        // Distributed counting: the hook scans out of process. Charge it
        // like a database scan (the db's own counter does not move) so
        // checkpointed scan totals match an all-local run.
        ++result.scans;
        scan_status = options.phase3_count_override(probe, &values);
      } else {
        scan_status = counter.Scan(db, probe, &values);
      }
      if (scan_status.ok() || !scan_status.IsTransient()) break;
    }
    if (!scan_status.ok()) {
      // The checkpoint (when configured) still holds the last good state —
      // deliberately NOT rewritten here: an aborted scan is charged to
      // this failed run but never checkpointed, so a rerun repeats it and
      // total charged scans match an uninterrupted run.
      return scope.Fail(scan_status);
    }

    std::vector<Pattern> probed_frequent;
    std::vector<Pattern> probed_infrequent;
    for (size_t i = 0; i < probe.size(); ++i) {
      if (values[i] >= options.min_threshold) {
        result.frequent.Insert(probe[i]);
        result.values[probe[i]] = values[i];  // exact value
        probed_frequent.push_back(probe[i]);
      } else {
        probed_infrequent.push_back(probe[i]);
      }
    }

    // Apriori closure: subpatterns of a frequent probe are frequent;
    // superpatterns of an infrequent probe are infrequent.
    size_t closure_frequent = 0;
    size_t closure_infrequent = 0;
    std::vector<Pattern> remaining;
    remaining.reserve(ambiguous.size());
    for (const Pattern& p : ambiguous) {
      if (probe_set.Contains(p)) continue;  // resolved directly
      bool resolved = false;
      for (const Pattern& f : probed_frequent) {
        if (p.IsSubpatternOf(f)) {
          result.frequent.Insert(p);
          result.values[p] = sample_values[p];  // sample estimate
          resolved = true;
          ++closure_frequent;
          break;
        }
      }
      if (!resolved) {
        for (const Pattern& q : probed_infrequent) {
          if (q.IsSubpatternOf(p)) {
            resolved = true;  // infrequent; drop
            ++closure_infrequent;
            break;
          }
        }
      }
      if (!resolved) remaining.push_back(p);
    }
    ambiguous = std::move(remaining);

    // Persist the collapsed state: a fault on the NEXT scan resumes here.
    if (!ckpt_path.empty() && !ambiguous.empty()) {
      write_checkpoint(runtime::RunStage::kPhase3Progress);
    }

    reg.GetCounter("phase3.scans").Increment();
    reg.GetCounter("phase3.probed").Add(static_cast<int64_t>(probe.size()));
    reg.GetCounter("phase3.probe_frequent")
        .Add(static_cast<int64_t>(probed_frequent.size()));
    reg.GetCounter("phase3.probe_infrequent")
        .Add(static_cast<int64_t>(probed_infrequent.size()));
    reg.GetCounter("phase3.closure_frequent")
        .Add(static_cast<int64_t>(closure_frequent));
    reg.GetCounter("phase3.closure_infrequent")
        .Add(static_cast<int64_t>(closure_infrequent));
    reg.GetHistogram("phase3.budget_utilization",
                     {0.1, 0.25, 0.5, 0.75, 0.9, 1.0})
        .Observe(options.max_counters_per_scan > 0
                     ? static_cast<double>(probe.size()) /
                           static_cast<double>(options.max_counters_per_scan)
                     : 1.0);
    reg.GetHistogram("phase3.collapse_ratio",
                     {0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9})
        .Observe(static_cast<double>(ambiguous.size()) /
                 static_cast<double>(ambiguous_before));
    scan_span.Arg("probed", probe.size())
        .Arg("probe_frequent", probed_frequent.size())
        .Arg("probe_infrequent", probed_infrequent.size())
        .Arg("closure_frequent", closure_frequent)
        .Arg("closure_infrequent", closure_infrequent)
        .Arg("ambiguous_before", ambiguous_before)
        .Arg("ambiguous_after", ambiguous.size());
    NMINE_LOG(kInfo, "phase3")
        .Msg("probe scan collapsed ambiguous region")
        .Num("probed", probe.size())
        .Num("budget", options.max_counters_per_scan)
        .Num("ambiguous_before", ambiguous_before)
        .Num("ambiguous_after", ambiguous.size());
    runtime::PublishProgress("phase3.collapse",
                             static_cast<int64_t>(ambiguous_before),
                             static_cast<int64_t>(ambiguous.size()));
  }

  if (!ckpt_path.empty()) runtime::RemoveRunCheckpoint(ckpt_path);
  return scope.Finish();
}

}  // namespace

MiningResult BorderCollapseMiner::Mine(const SequenceDatabase& db,
                                       const CompatibilityMatrix& c) const {
  return MineInThreePhases(metric_, options_, db, c, ProbeOrder::kBisection,
                           "mine.border_collapse", "collapse");
}

MiningResult ToivonenMiner::Mine(const SequenceDatabase& db,
                                 const CompatibilityMatrix& c) const {
  // Toivonen's verification is Phase 3 probing the lowest level first. It
  // does not checkpoint: the checkpoint guard does not record the probe
  // order, so border collapsing could resume from its file.
  MinerOptions options = options_;
  options.run_checkpoint_path.clear();
  return MineInThreePhases(metric_, options, db, c, ProbeOrder::kLowestLevel,
                           "mine.toivonen", "toivonen");
}

}  // namespace nmine
