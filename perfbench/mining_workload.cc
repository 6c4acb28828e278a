// disk_scan and sample_deep: BorderCollapseMiner::Mine over an on-disk
// database, called directly. The two differ only in shape, which flips the
// cost mix: disk_scan is dominated by full-database scans (Phases 1 and 3),
// sample_deep by in-memory sample mining (Phase 2).
#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "layers.h"
#include "nmine/mining/border_collapse_miner.h"
#include "nmine/obs/metrics.h"

namespace perfbench {

namespace {

using nmine::MiningResult;
using nmine::Pattern;

constexpr size_t kThreads = 4;

struct MiningShape {
  size_t sequences = 0;
  double threshold = 0.0;
  size_t sample = 0;
};

MiningShape ShapeFor(const Args& args) {
  if (args.workload == "disk_scan") {
    return {args.smoke ? 6000u : 600000u, 0.2, 400};
  }
  return {args.smoke ? 2000u : 20000u, 0.15, args.smoke ? 800u : 8000u};
}

/// What every run must reproduce: the scalar-kernel answer.
struct Reference {
  std::vector<Pattern> frequent;
  std::vector<Pattern> border;
  int64_t scans = 0;
};

bool Matches(const MiningResult& r, const Reference& ref, Report* report) {
  if (!r.ok()) {
    report->Mismatch("run failed: " + r.status.ToString());
    return false;
  }
  if (r.frequent.ToSortedVector() != ref.frequent) {
    report->Mismatch("frequent set differs from the scalar reference");
    return false;
  }
  if (r.border.ToSortedVector() != ref.border) {
    report->Mismatch("border differs from the scalar reference");
    return false;
  }
  if (r.scans != ref.scans) {
    report->Mismatch("scan count differs from the scalar reference");
    return false;
  }
  return true;
}

}  // namespace

bool RunMiningWorkload(const Args& args, const std::string& work_dir,
                       SpanLog* spans, Report* report) {
  const MiningShape shape = ShapeFor(args);
  const std::string path = work_dir + "/db.nmsq";
  DbSetup setup;
  std::string error;
  const uint64_t chars_before_setup = CharsRead();
  if (!SetUpDb(shape.sequences, args.seed, path, spans, &setup, &error)) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
    return false;
  }
  // Each set-up reads the file once (the Open pre-scan).
  const double open_bytes =
      static_cast<double>(CharsRead() - chars_before_setup) /
      static_cast<double>(setup.setup_s.size());
  RecordEnvironment(work_dir, setup.file_bytes, report);
  const nmine::CompatibilityMatrix c = WorkloadMatrix();
  const nmine::MinerOptions options =
      BaseMinerOptions(shape.threshold, shape.sample, kThreads);
  const nmine::BorderCollapseMiner miner(nmine::Metric::kMatch, options);
  const nmine::DiskSequenceDatabase& db = *setup.db;

  // The scalar kernel is the semantics reference; its run also warms the
  // page cache and allocator before anything is timed.
  if (!UseKernel("scalar", &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return false;
  }
  MiningResult ref_run = miner.Mine(db, c);
  if (!UseKernel("auto", &error) || !ref_run.ok()) {
    std::fprintf(stderr, "perfbench: reference run failed: %s %s\n",
                 error.c_str(), ref_run.status.ToString().c_str());
    return false;
  }
  Reference ref{ref_run.frequent.ToSortedVector(),
                ref_run.border.ToSortedVector(), ref_run.scans};
  if (args.perturb_reference) {
    if (ref.frequent.empty()) {
      ref.frequent.push_back(Pattern({0}));
    } else {
      ref.frequent.pop_back();
    }
  }
  std::printf("perfbench: reference frequent=%zu border=%zu scans=%lld "
              "ambiguous=%zu\n",
              ref.frequent.size(), ref.border.size(),
              static_cast<long long>(ref.scans),
              ref_run.ambiguous_after_sample);

  if (!args.trace) {
    std::vector<double> wall_s;
    std::vector<double> cpu_s;
    std::vector<double> scans;
    std::vector<double> read_mb;
    const double begin = NowS();
    const double deadline = begin + args.seconds;
    do {
      const uint64_t chars0 = CharsRead();
      const double c0 = ProcessCpuS();
      const double t0 = NowS();
      MiningResult r = miner.Mine(db, c);
      const double t1 = NowS();
      const double c1 = ProcessCpuS();
      read_mb.push_back(static_cast<double>(CharsRead() - chars0) / kMiB);
      std::printf("perfbench: run %zu wall %.4f s cpu %.4f s\n",
                  wall_s.size(), t1 - t0, c1 - c0);
      wall_s.push_back(t1 - t0);
      cpu_s.push_back(c1 - c0);
      scans.push_back(static_cast<double>(r.scans));
      report->CountAttempt(Matches(r, ref, report));
    } while (NowS() < deadline);
    std::printf("perfbench: wall per run p50 %.4f s, %.4f runs/s\n",
                Median(wall_s),
                static_cast<double>(wall_s.size()) / (NowS() - begin));
    report->Set("setup_s", Median(setup.setup_s), setup.setup_s.size());
    report->Set("mine_cpu_s", Median(cpu_s), cpu_s.size());
    report->Set("scans", Median(scans), scans.size());
    report->Set("read_mb", Median(read_mb), read_mb.size());
    report->Set("peak_rss_mb", PeakRssMb(), 1);
    return true;
  }

  // ---- Traced run: the same Mine call with Phase-3 counting routed
  // through a timed hook, alternated with untraced calls.
  Phase3Tap tap(path, &c, kThreads, spans);
  if (!tap.ok()) {
    std::fprintf(stderr, "perfbench: cannot reopen %s\n", path.c_str());
    return false;
  }
  nmine::MinerOptions traced_options = options;
  traced_options.phase3_count_override = tap.Hook();
  const nmine::BorderCollapseMiner traced_miner(nmine::Metric::kMatch,
                                                traced_options);
  std::vector<double> phase3_s;
  std::vector<double> bytes_read;
  int traced_runs = 0;
  auto untraced = [&] {
    const uint64_t chars0 = CharsRead();
    const double t0 = NowS();
    MiningResult r = miner.Mine(db, c);
    const double dt = NowS() - t0;
    bytes_read.push_back(open_bytes +
                         static_cast<double>(CharsRead() - chars0));
    report->CountAttempt(Matches(r, ref, report));
    return dt;
  };
  auto traced = [&] {
    const double before = spans->TotalS("mining.phase3.count");
    double dt = 0.0;
    MiningResult r;
    {
      Span span(spans, "mining.mine");
      const double t0 = NowS();
      r = traced_miner.Mine(db, c);
      dt = NowS() - t0;
    }
    phase3_s.push_back(spans->TotalS("mining.phase3.count") - before);
    ++traced_runs;
    report->CountAttempt(Matches(r, ref, report));
    return dt;
  };
  const UnitTimes unit =
      MeasureTraceOverhead(args.smoke ? 1 : 2, args.smoke ? 0.0 : args.seconds,
                           untraced, traced, report);
  report->Set("db.bytes_read", Median(bytes_read), bytes_read.size());
  report->Set("mining.untraced_mine_s", unit.untraced_s, unit.pairs);
  report->Set("mining.traced_mine_s", unit.traced_s, unit.pairs);
  MeasureDbLayer(db, setup.open_s, spans, report);
  MeasureMiningLayers(db, c, options, tap.first_probe(),
                      tap.probes() / static_cast<size_t>(traced_runs),
                      Median(phase3_s), unit.traced_s,
                      args.smoke ? 0.0 : args.seconds / 2, spans, report);
  report->Set("db.scan_retries",
              static_cast<double>(nmine::obs::MetricsRegistry::Global()
                                      .CounterValue("db.scan.retries")),
              1);
  return true;
}

}  // namespace perfbench
