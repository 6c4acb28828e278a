#include "nmine/mining/border_collapse_miner.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <utility>

#include "nmine/lattice/halfway.h"
#include "nmine/lattice/pattern_counter.h"
#include "nmine/lattice/pattern_set.h"
#include "nmine/mining/governed_count.h"
#include "nmine/mining/levelwise_miner.h"
#include "nmine/mining/symbol_scan.h"
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
  const size_t m = c.size();
  const size_t n = records.size();
  const double unit_eps =
      n > 0 ? ChernoffEpsilon(1.0, options.delta, n) : 0.0;

  std::vector<SymbolId> all_symbols(m);
  for (size_t i = 0; i < m; ++i) all_symbols[i] = static_cast<SymbolId>(i);

  // keep = frequent-or-ambiguous patterns, the Apriori-viable set for
  // candidate generation (Section 4.2: "P may be considered a candidate
  // pattern iff every sub-pattern of P is either frequent or ambiguous").
  PatternSet keep;
  std::vector<Pattern> keep_level;
  std::vector<SymbolId> keep_symbols;

  // Phase 2 runs on the in-memory sample, so no scans are charged; the
  // exec policy still shards the per-level counting across workers, and
  // the governor may slice a level into several exact batches (also free).
  const exec::ExecPolicy exec = ExecPolicyFor(options);
  const BatchCountFn count_records =
      [&records, &c, metric, exec, run](const std::vector<Pattern>& batch,
                                        std::vector<double>* vals) {
        *vals = metric == Metric::kMatch
                    ? CountMatchesInRecords(records, c, batch, exec)
                    : CountSupportsInRecords(records, batch, exec);
        // A stop mid-batch leaves garbage values; surface it here so the
        // level loop below aborts instead of classifying noise.
        return runtime::CheckRun(run);
      };

  std::vector<Pattern> candidates = Level1Candidates(all_symbols);
  for (size_t level = 1; level <= options.max_level && !candidates.empty();
       ++level) {
    obs::TraceSpan level_span("phase2.level", "phase2");
    level_span.Arg("level", level).Arg("candidates", candidates.size());
    std::vector<double> values;
    out.status = GovernedCount(candidates, governor, run, count_records,
                               &values);
    if (!out.status.ok()) return out;
    LevelStats stats;
    stats.level = level;
    stats.num_candidates = candidates.size();
    keep_level.clear();
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
      keep_level.push_back(p);
      if (level == 1) keep_symbols.push_back(p[0]);
      if (label == PatternLabel::kFrequent) {
        out.frequent.push_back(p);
        out.fqt.Insert(p);
        ++stats.num_frequent;
      } else {
        out.ambiguous.push_back(p);
        out.infqt.Insert(p);
        ++level_ambiguous;
      }
    }
    out.level_stats.push_back(stats);

    // Per-level accounting: the frequent/ambiguous/infrequent split and
    // the mean Chernoff band width (the quantity that drives the split).
    const size_t level_infrequent =
        stats.num_candidates - stats.num_frequent - level_ambiguous;
    const double mean_band =
        stats.num_candidates > 0
            ? eps_sum / static_cast<double>(stats.num_candidates)
            : 0.0;
    reg.GetCounter("phase2.levels").Increment();
    reg.GetCounter("phase2.candidates")
        .Add(static_cast<int64_t>(stats.num_candidates));
    reg.GetCounter("phase2.frequent")
        .Add(static_cast<int64_t>(stats.num_frequent));
    reg.GetCounter("phase2.ambiguous")
        .Add(static_cast<int64_t>(level_ambiguous));
    reg.GetCounter("phase2.infrequent")
        .Add(static_cast<int64_t>(level_infrequent));
    reg.GetHistogram("phase2.band_width",
                     {0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5})
        .Observe(mean_band);
    level_span.Arg("frequent", stats.num_frequent)
        .Arg("ambiguous", level_ambiguous)
        .Arg("infrequent", level_infrequent)
        .Arg("mean_band_width", mean_band);
    NMINE_LOG(kDebug, "phase2")
        .Msg("sample level classified")
        .Num("level", level)
        .Num("candidates", stats.num_candidates)
        .Num("frequent", stats.num_frequent)
        .Num("ambiguous", level_ambiguous)
        .Num("infrequent", level_infrequent)
        .Num("mean_band_width", mean_band);

    if (keep_level.empty()) break;
    candidates = NextLevelCandidates(
        keep_level, keep_symbols, options.space,
        [&keep](const Pattern& sub) { return keep.Contains(sub); },
        options.max_candidates_per_level);
    if (candidates.size() >= options.max_candidates_per_level) {
      out.truncated = true;
      reg.GetCounter("phase2.truncations").Increment();
      NMINE_LOG(kWarn, "phase2")
          .Msg("candidate guardrail fired")
          .Num("level", level + 1)
          .Num("max_candidates_per_level",
               options.max_candidates_per_level);
    }
  }
  return out;
}

MiningResult BorderCollapseMiner::Mine(const SequenceDatabase& db,
                                       const CompatibilityMatrix& c) const {
  obs::TraceSpan mine_span("mine.border_collapse", "mining");
  NMINE_PROFILE_SCOPE("mine.border_collapse");
  auto start = std::chrono::steady_clock::now();
  int64_t scans_before = db.scan_count();
  MiningResult result;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const runtime::RunControl* run = options_.run_control;
  runtime::ResourceGovernor governor(options_.memory_budget_bytes);

  auto finish = [&](MiningResult* r) {
    r->scans = db.scan_count() - scans_before + r->scans;
    r->seconds = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    r->degradation_steps = governor.degradation_steps();
    EmitResultMetrics(*r, "collapse");
  };
  auto fail = [&](Status status) {
    // A partial pattern set would be indistinguishable from a complete
    // one, so failure returns only the status and the cost accounting.
    result.status = std::move(status);
    result.frequent = PatternSet();
    result.values = PatternMap<double>();
    result.border = Border();
    finish(&result);
    return result;
  };

  // Whole-run checkpointing at the stage 1/2/3 boundaries.
  const std::string& ckpt_path = options_.run_checkpoint_path;

  auto make_guard = [&] {
    runtime::RunCheckpoint g;
    g.metric = metric_;
    g.min_threshold = options_.min_threshold;
    g.num_sequences = db.NumSequences();
    g.total_symbols = db.TotalSymbols();
    g.sample_size = options_.sample_size;
    g.seed = options_.seed;
    g.delta = options_.delta;
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
      result.scans = cp.scans_completed;  // finish() adds this run's scans
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

  const exec::ExecPolicy exec = ExecPolicyFor(options_);

  auto write_checkpoint = [&](runtime::RunStage stage) {
    runtime::RunCheckpoint cp = make_guard();
    cp.stage = stage;
    cp.scans_completed = db.scan_count() - scans_before + result.scans;
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
      Status rs = runtime::CheckRun(run);
      if (!rs.ok()) return fail(rs);
      Rng rng(options_.seed);
      SymbolScanResult phase1 =
          metric_ == Metric::kMatch
              ? ScanSymbolsAndSample(db, c, options_.sample_size, &rng, exec)
              : ScanSymbolSupports(db, c.size(), options_.sample_size, &rng,
                                   exec);
      if (!phase1.status.ok()) return fail(phase1.status);
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
      return fail(Status::ResourceExhausted(
          "memory budget cannot hold even a one-sequence sample"));
    }
    if (kept < sample_records.size()) sample_records.resize(kept);
    result.effective_sample_size = sample_records.size();
    result.final_epsilon =
        sample_records.empty()
            ? 0.0
            : ChernoffEpsilon(1.0, options_.delta, sample_records.size());

    // The Phase-1 scan is consumed: snapshot it so a later kill skips
    // straight to Phase 2 on resume.
    if (!ckpt_path.empty() && !have_phase1) {
      write_checkpoint(runtime::RunStage::kPhase1Done);
    }

    // ---- Phase 2: classify patterns on the in-memory sample.
    runtime::PublishPhase("phase2");
    Status rs = runtime::CheckRun(run);
    if (!rs.ok()) return fail(rs);  // the stage-1 snapshot stays on disk
    SampleClassification cls =
        ClassifySamplePatterns(sample_records, c, result.symbol_match,
                               metric_, options_, &governor, run);
    if (!cls.status.ok()) return fail(cls.status);
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
    size_t region_bytes = 0;
    for (const Pattern& p : ambiguous) {
      region_bytes += runtime::PatternBytes(p) + sizeof(double);
    }
    Status charge = governor.Charge("ambiguous-region", region_bytes);
    if (!charge.ok()) return fail(std::move(charge));

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
  // closure over the remaining ambiguous patterns.
  reg.GetGauge("phase3.budget.max_counters")
      .Set(static_cast<double>(options_.max_counters_per_scan));
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
      return fail(rs);
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
    size_t batch_cap = options_.max_counters_per_scan;
    if (!governor.unlimited()) {
      batch_cap =
          governor.AdmitBatch(batch_cap, CounterBytes(ambiguous.front()));
      if (batch_cap == 0) {
        return fail(Status::ResourceExhausted(
            "memory budget cannot hold a single probe counter"));
      }
    }

    // Fill the probe set in bisection order until memory is full.
    std::vector<Pattern> probe;
    PatternSet probe_set;
    for (size_t level : BisectionOrder(lo, hi)) {
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
    for (size_t attempt = 0; attempt <= options_.phase3_scan_retries;
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
      if (options_.phase3_count_override) {
        // Distributed counting: the hook scans out of process. Charge it
        // like a database scan (the db's own counter does not move) so
        // checkpointed scan totals match an all-local run.
        ++result.scans;
        scan_status = options_.phase3_count_override(probe, &values);
      } else {
        scan_status = metric_ == Metric::kMatch
                          ? TryCountMatches(db, c, probe, &values, exec)
                          : TryCountSupports(db, probe, &values, exec);
      }
      if (scan_status.ok() || !scan_status.IsTransient()) break;
    }
    if (!scan_status.ok()) {
      // The checkpoint (when configured) still holds the last good state —
      // deliberately NOT rewritten here: an aborted scan is charged to
      // this failed run but never checkpointed, so a rerun repeats it and
      // total charged scans match an uninterrupted run.
      return fail(scan_status);
    }

    std::vector<Pattern> probed_frequent;
    std::vector<Pattern> probed_infrequent;
    for (size_t i = 0; i < probe.size(); ++i) {
      if (values[i] >= options_.min_threshold) {
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
        .Observe(options_.max_counters_per_scan > 0
                     ? static_cast<double>(probe.size()) /
                           static_cast<double>(options_.max_counters_per_scan)
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
        .Num("budget", options_.max_counters_per_scan)
        .Num("ambiguous_before", ambiguous_before)
        .Num("ambiguous_after", ambiguous.size());
    runtime::PublishProgress("phase3.collapse",
                             static_cast<int64_t>(ambiguous_before),
                             static_cast<int64_t>(ambiguous.size()));
  }

  BuildBorder(&result);
  if (!ckpt_path.empty()) runtime::RemoveRunCheckpoint(ckpt_path);
  finish(&result);
  return result;
}

}  // namespace nmine
