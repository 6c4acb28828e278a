#include "layers.h"

#include <algorithm>
#include <map>

#include "nmine/core/match.h"
#include "nmine/lattice/candidate_gen.h"
#include "nmine/lattice/pattern_counter.h"
#include "nmine/lattice/pattern_set.h"
#include "nmine/mining/border_collapse_miner.h"
#include "nmine/mining/symbol_scan.h"
#include "nmine/stats/random.h"

namespace perfbench {

using nmine::Pattern;
using nmine::SequenceRecord;
using nmine::Status;

Phase3Tap::Phase3Tap(const std::string& db_path,
                     const nmine::CompatibilityMatrix* c, size_t threads,
                     SpanLog* spans)
    : c_(c), threads_(threads), spans_(spans) {
  Status error;
  db_ = nmine::DiskSequenceDatabase::Open(db_path, &error);
}

Status Phase3Tap::Count(const std::vector<Pattern>& probe,
                        std::vector<double>* values) {
  Span span(spans_, "mining.phase3.count");
  probes_ += probe.size();
  if (first_probe_.empty()) first_probe_ = probe;
  nmine::exec::ExecPolicy exec;
  exec.num_threads = threads_;
  return nmine::TryCountMatches(*db_, *c_, probe, values, exec);
}

std::function<Status(const std::vector<Pattern>&, std::vector<double>*)>
Phase3Tap::Hook() {
  return [this](const std::vector<Pattern>& probe,
                std::vector<double>* values) { return Count(probe, values); };
}

UnitTimes MeasureTraceOverhead(int min_pairs, double budget_s,
                            const std::function<double()>& untraced,
                            const std::function<double()>& traced,
                            Report* report) {
  std::vector<double> u;
  std::vector<double> t;
  const double deadline = NowS() + budget_s;
  for (int i = 0; i < min_pairs || NowS() < deadline; ++i) {
    if (i % 2 == 0) {
      u.push_back(untraced());
      t.push_back(traced());
    } else {
      t.push_back(traced());
      u.push_back(untraced());
    }
  }
  UnitTimes times{Median(u), Median(t), u.size()};
  report->Set("obs.trace_overhead_frac",
              times.untraced_s > 0.0
                  ? (times.traced_s - times.untraced_s) / times.untraced_s
                  : 0.0,
              times.pairs);
  return times;
}

namespace {

/// Wall seconds of one CountMatchesInRecords call over the sample.
double TimeSampleCount(const std::vector<SequenceRecord>& records,
                       const nmine::CompatibilityMatrix& c,
                       const std::vector<Pattern>& patterns, size_t threads) {
  nmine::exec::ExecPolicy exec;
  exec.num_threads = threads;
  const double t0 = NowS();
  std::vector<double> values =
      nmine::CountMatchesInRecords(records, c, patterns, exec);
  return values.size() == patterns.size() ? NowS() - t0 : 0.0;
}

double TimeProbeCount(const nmine::DiskSequenceDatabase& db,
                      const nmine::CompatibilityMatrix& c,
                      const std::vector<Pattern>& probe, size_t threads) {
  nmine::exec::ExecPolicy exec;
  exec.num_threads = threads;
  std::vector<double> values;
  const double t0 = NowS();
  Status s = nmine::TryCountMatches(db, c, probe, &values, exec);
  return s.ok() ? NowS() - t0 : 0.0;
}

}  // namespace

void MeasureMiningLayers(const nmine::DiskSequenceDatabase& db,
                         const nmine::CompatibilityMatrix& c,
                         const nmine::MinerOptions& options,
                         const std::vector<Pattern>& probe, size_t probes,
                         double phase3_s, double traced_mine_s,
                         double budget_s, SpanLog* spans, Report* report) {
  const nmine::exec::ExecPolicy exec = nmine::ExecPolicyFor(options);

  // ---- mining: Phase 1 and Phase 2 replayed with the run's options (same
  // seed, so the same sample and the same classification).
  std::vector<double> phase1_runs;
  std::vector<double> phase2_runs;
  nmine::SymbolScanResult phase1;
  nmine::SampleClassification cls;
  const double deadline = NowS() + budget_s;
  do {
    nmine::Rng rng(options.seed);
    double t0 = NowS();
    {
      Span span(spans, "mining.phase1");
      phase1 = nmine::ScanSymbolsAndSample(db, c, options.sample_size, &rng,
                                           exec);
    }
    phase1_runs.push_back(NowS() - t0);
    t0 = NowS();
    {
      Span span(spans, "mining.phase2");
      cls = nmine::ClassifySamplePatterns(phase1.sample.records(), c,
                                          phase1.symbol_match,
                                          nmine::Metric::kMatch, options);
    }
    phase2_runs.push_back(NowS() - t0);
  } while (NowS() < deadline && phase1_runs.size() < 15);
  const double phase1_s = Median(phase1_runs);
  const double phase2_s = Median(phase2_runs);
  const std::vector<SequenceRecord>& records = phase1.sample.records();
  size_t candidates = 0;
  for (const nmine::LevelStats& s : cls.level_stats) {
    candidates += s.num_candidates;
  }
  report->Set("mining.phase1_s", phase1_s, phase1_runs.size());
  report->Set("mining.phase2_s", phase2_s, phase2_runs.size());
  report->Set("mining.phase3_s", phase3_s, 1);
  report->Set("mining.unattributed_s",
              traced_mine_s - phase1_s - phase2_s - phase3_s, 1);
  report->Set("mining.phase2_candidates", static_cast<double>(candidates), 1);
  report->Set("mining.phase3_probes", static_cast<double>(probes), 1);
  report->Set("mining.phase2_ambiguous_frac",
              candidates > 0 ? static_cast<double>(cls.ambiguous.size()) /
                                   static_cast<double>(candidates)
                             : 0.0,
              1);

  // ---- lattice: candidate generation replayed over the Phase-2 levels
  // (the frequent-or-ambiguous set of level k generates level k + 1).
  nmine::PatternSet keep;
  std::map<size_t, std::vector<Pattern>> by_level;
  for (const std::vector<Pattern>* part : {&cls.frequent, &cls.ambiguous}) {
    for (const Pattern& p : *part) {
      keep.Insert(p);
      by_level[p.NumSymbols()].push_back(p);
    }
  }
  std::vector<nmine::SymbolId> keep_symbols;
  for (const Pattern& p : by_level[1]) keep_symbols.push_back(p[0]);
  std::sort(keep_symbols.begin(), keep_symbols.end());
  std::vector<Pattern> largest;
  double t0 = NowS();
  {
    Span span(spans, "lattice.candidate_gen");
    for (auto& [level, patterns] : by_level) {
      if (level >= options.max_level) break;
      std::sort(patterns.begin(), patterns.end());
      std::vector<Pattern> next = nmine::NextLevelCandidates(
          patterns, keep_symbols, options.space,
          [&keep](const Pattern& sub) { return keep.Contains(sub); },
          options.max_candidates_per_level);
      if (next.size() > largest.size()) largest = std::move(next);
    }
  }
  report->Set("lattice.candidate_gen_s", NowS() - t0, 1);

  // ---- lattice: the trie walk, serially over the sample, on the largest
  // candidate level Phase 2 counts.
  double sample_t1 = 0.0;
  if (!largest.empty() && !records.empty()) {
    Span span(spans, "lattice.trie_count");
    sample_t1 = TimeSampleCount(records, c, largest, 1);
    report->Set("lattice.trie_ns_per_record_pattern",
                sample_t1 * 1e9 /
                    (static_cast<double>(records.size()) *
                     static_cast<double>(largest.size())),
                1);
  }

  // ---- core: single-pattern SequenceMatch through the active kernel, on
  // the longest kept patterns.
  std::vector<Pattern> kernel_patterns;
  for (auto it = by_level.rbegin();
       it != by_level.rend() && kernel_patterns.size() < 32; ++it) {
    for (const Pattern& p : it->second) {
      if (kernel_patterns.size() >= 32) break;
      kernel_patterns.push_back(p);
    }
  }
  if (!kernel_patterns.empty() && !records.empty()) {
    Span span(spans, "core.sequence_match");
    double windows = 0.0;
    double sink = 0.0;
    t0 = NowS();
    for (const Pattern& p : kernel_patterns) {
      for (const SequenceRecord& r : records) {
        sink += nmine::SequenceMatch(c, p, r.symbols);
        if (r.symbols.size() >= p.length()) {
          windows += static_cast<double>(r.symbols.size() - p.length() + 1);
        }
      }
    }
    const double elapsed = NowS() - t0;
    if (windows > 0.0 && sink >= 0.0) {
      report->Set("core.kernel_ns_per_window", elapsed * 1e9 / windows, 1);
    }
  }

  // ---- exec: 1 vs 4 threads on the counting call that dominates this
  // workload's run.
  double t1 = 0.0;
  double t4 = 0.0;
  {
    Span span(spans, "exec.count_scaling");
    if (phase3_s > phase2_s && !probe.empty()) {
      t1 = TimeProbeCount(db, c, probe, 1);
      t4 = TimeProbeCount(db, c, probe, 4);
    } else if (sample_t1 > 0.0) {
      t1 = sample_t1;
      t4 = TimeSampleCount(records, c, largest, 4);
    }
  }
  if (t1 > 0.0 && t4 > 0.0) report->Set("exec.count_speedup_t4", t1 / t4, 1);
}

double MeasureDbLayer(const nmine::DiskSequenceDatabase& db,
                      const std::vector<double>& open_s, SpanLog* spans,
                      Report* report) {
  report->Set("db.open_s", Median(open_s), open_s.size());
  std::vector<double> decode_s;
  for (int i = 0; i < 3; ++i) {
    Span span(spans, "db.decode");
    const double t0 = NowS();
    Status s = db.Scan([](const SequenceRecord&) {});
    if (s.ok()) decode_s.push_back(NowS() - t0);
  }
  report->Set("db.decode_s", Median(decode_s), decode_s.size());
  return Median(decode_s);
}

}  // namespace perfbench
