// dist_2workers: an in-process Coordinator plus two DistWorker threads on
// loopback. Phases 1 and 2 run on the coordinator; Phase-3 counting goes
// through the dist layer (wire, journal, shard merge) and
// DiskSequenceDatabase::ScanRange. Every repetition gets a fresh state dir,
// so it mines instead of adopting a journaled scan.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "layers.h"
#include "nmine/dist/coordinator.h"
#include "nmine/dist/journal.h"
#include "nmine/dist/wire.h"
#include "nmine/dist/worker.h"
#include "nmine/exec/policy.h"
#include "nmine/lattice/pattern_counter.h"
#include "nmine/mining/border_collapse_miner.h"
#include "nmine/obs/metrics.h"

namespace perfbench {

namespace {

using nmine::serve::JobResult;
using nmine::serve::JobSpec;

constexpr int kWorkers = 2;

struct Rep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double read_mb = 0.0;
  double scan_s = 0.0;  // time with a dist scan in flight (traced reps)
  int64_t scans = 0;
  uint64_t journal_bytes = 0;
};

int64_t Counter(const char* name) {
  return nmine::obs::MetricsRegistry::Global().CounterValue(name);
}

/// One coordinated run in a fresh state dir. When `spans` is set, a
/// sampler thread polls the coordinator's /shardz board and records the
/// intervals with a dist scan in flight as "dist.scan" spans.
bool RunRep(const JobSpec& spec, const std::string& state_dir,
            const JobResult& ref, SpanLog* spans, Report* report, Rep* rep) {
  RemoveTree(state_dir);
  const int64_t adopted_before = Counter("dist.scans.adopted");
  const uint64_t chars0 = CharsRead();
  const double c0 = ProcessCpuS();
  const double t0 = NowS();
  nmine::dist::Coordinator coordinator;
  nmine::dist::Coordinator::Options options;
  options.state_dir = state_dir;
  options.spec = spec;
  std::string error;
  if (!coordinator.Start(options, &error)) {
    std::fprintf(stderr, "perfbench: coordinator: %s\n", error.c_str());
    return false;
  }
  std::vector<std::thread> workers;
  for (int i = 0; i < kWorkers; ++i) {
    workers.emplace_back([&coordinator, i] {
      nmine::dist::DistWorker worker;
      nmine::dist::DistWorker::Options wo;
      wo.port = coordinator.port();
      wo.name = "worker-" + std::to_string(i);
      worker.Run(wo);
    });
  }
  std::atomic<bool> done{false};
  std::thread sampler;
  if (spans != nullptr) {
    sampler = std::thread([&] {
      int open_span = -1;
      double opened = 0.0;
      while (!done.load()) {
        const bool active = coordinator.ShardzJson().find(
                                "\"scan_active\": true") != std::string::npos;
        if (active && open_span < 0) {
          open_span = spans->Begin("dist.scan");
          opened = NowS();
        } else if (!active && open_span >= 0) {
          spans->End(open_span);
          rep->scan_s += NowS() - opened;
          open_span = -1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (open_span >= 0) {
        spans->End(open_span);
        rep->scan_s += NowS() - opened;
      }
    });
  }
  JobResult result;
  {
    Span span(spans, "dist.run");
    result = coordinator.Run();
  }
  rep->wall_s = NowS() - t0;
  done.store(true);
  if (sampler.joinable()) sampler.join();
  for (std::thread& w : workers) w.join();
  coordinator.Stop();
  rep->cpu_s = ProcessCpuS() - c0;
  rep->read_mb = static_cast<double>(CharsRead() - chars0) / kMiB;
  rep->scans = result.scans;
  rep->journal_bytes = FileBytes(state_dir + "/dist.journal");

  bool ok = true;
  if (!result.ok) {
    report->Mismatch("distributed run failed: " + result.error_code + " " +
                     result.message);
    ok = false;
  } else if (result.resumed_from_checkpoint ||
             Counter("dist.scans.adopted") != adopted_before) {
    report->Mismatch("run resumed from journaled state instead of mining");
    ok = false;
  } else if (result.rows != ref.rows || result.scans != ref.scans) {
    report->Mismatch("distributed rows differ from a direct RunJob");
    ok = false;
  }
  report->CountAttempt(ok);
  return true;
}

// Workers count a task one exec shard at a time, with one ScanRange call
// per exec shard; these replay that grid.
constexpr uint64_t kRange = nmine::exec::kDefaultShardSize;

/// ScanRange over the workers' range grid with a no-op visitor, as a
/// multiple of one full decode.
double RangeDecodeAmplification(const nmine::DiskSequenceDatabase& db,
                                double decode_s) {
  double total = 0.0;
  for (uint64_t begin = 0; begin < db.NumSequences(); begin += kRange) {
    const uint64_t end = std::min<uint64_t>(begin + kRange, db.NumSequences());
    const double t0 = NowS();
    nmine::Status s = db.ScanRange(
        begin, end, [](const nmine::SequenceRecord&) {}, {});
    if (!s.ok()) return 0.0;
    total += NowS() - t0;
  }
  return decode_s > 0.0 ? total / decode_s : 0.0;
}

/// A worker's counting work for one probe over the whole database, on one
/// thread: ScanRange plus BatchCountKernel per range.
double WorkerCountS(const nmine::DiskSequenceDatabase& db,
                    const nmine::CompatibilityMatrix& c,
                    const std::vector<nmine::Pattern>& probe) {
  if (probe.empty()) return 0.0;
  const double t0 = NowS();
  nmine::BatchCountKernel kernel(probe, &c);
  for (uint64_t begin = 0; begin < db.NumSequences(); begin += kRange) {
    const uint64_t end = std::min<uint64_t>(begin + kRange, db.NumSequences());
    nmine::exec::RecordFn fn = kernel.MakeRecordFn();
    std::vector<double> partial(probe.size(), 0.0);
    nmine::Status s = db.ScanRange(
        begin, end, [&](const nmine::SequenceRecord& r) { fn(r, &partial); },
        {});
    if (!s.ok()) return 0.0;
  }
  return NowS() - t0;
}

double JournalAppendMs(const std::string& dir, size_t probe_size) {
  nmine::dist::ReplayState state;
  std::string error;
  std::unique_ptr<nmine::dist::DistJournal> journal =
      nmine::dist::DistJournal::Open(dir, &state, &error);
  if (journal == nullptr) return 0.0;
  // A task of the default grid (1024 records) carries one partial per
  // exec shard.
  nmine::dist::ShardProgress progress;
  progress.done = 4;
  progress.complete = true;
  progress.partials.assign(4, std::vector<double>(probe_size, 0.123456789));
  std::vector<double> ms;
  for (uint64_t shard = 0; shard < 30; ++shard) {
    const double t0 = NowS();
    if (!journal->AppendShardProgress(1, shard, progress).ok()) return 0.0;
    ms.push_back((NowS() - t0) * 1e3);
  }
  return Median(ms);
}

double WireDoubleNs() {
  constexpr int kValues = 200000;
  double sum = 0.0;
  const double t0 = NowS();
  for (int i = 0; i < kValues; ++i) {
    double back = 0.0;
    nmine::dist::DecodeDoubleBits(
        nmine::dist::EncodeDoubleBits(1.0 / (i + 1.0)), &back);
    sum += back;
  }
  const double elapsed = NowS() - t0;
  return sum > 0.0 ? elapsed * 1e9 / kValues : 0.0;
}

}  // namespace

bool RunDistWorkload(const Args& args, const std::string& work_dir,
                     SpanLog* spans, Report* report) {
  const size_t sequences = args.smoke ? 4000 : 100000;
  const std::string path = work_dir + "/db.nmsq";
  DbSetup setup;
  std::string error;
  if (!SetUpDb(sequences, args.seed, path, spans, &setup, &error)) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
    return false;
  }
  RecordEnvironment(work_dir, setup.file_bytes, report);
  const JobSpec spec = BaseJobSpec(path, 0.2, 400, 4);

  // The reference: a direct RunJob with the scalar kernel (also warms the
  // page cache before anything is timed).
  if (!UseKernel("scalar", &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return false;
  }
  JobResult ref = nmine::serve::RunJob(spec, "", nullptr);
  if (!UseKernel("auto", &error) || !ref.ok) {
    std::fprintf(stderr, "perfbench: reference run failed: %s %s\n",
                 error.c_str(), ref.message.c_str());
    return false;
  }
  if (args.perturb_reference && !ref.rows.empty()) ref.rows.pop_back();
  std::printf("perfbench: reference rows=%zu scans=%lld\n", ref.rows.size(),
              static_cast<long long>(ref.scans));

  int rep_index = 0;
  auto state_dir = [&] {
    return work_dir + "/state-" + std::to_string(rep_index++);
  };

  if (!args.trace) {
    std::vector<double> wall_s;
    std::vector<double> cpu_s;
    std::vector<double> scans;
    std::vector<double> read_mb;
    const double begin = NowS();
    const double deadline = begin + args.seconds;
    do {
      Rep rep;
      if (!RunRep(spec, state_dir(), ref, nullptr, report, &rep)) return false;
      std::printf("perfbench: rep %zu wall %.4f s cpu %.4f s\n",
                  wall_s.size(), rep.wall_s, rep.cpu_s);
      wall_s.push_back(rep.wall_s);
      cpu_s.push_back(rep.cpu_s);
      scans.push_back(static_cast<double>(rep.scans));
      read_mb.push_back(rep.read_mb);
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

  // ---- Traced run.
  const int64_t frames_before = Counter("dist.progress.frames");
  std::vector<double> scan_s;
  std::vector<double> bytes_read;
  uint64_t journal_bytes = 0;
  bool rep_ok = true;
  auto untraced = [&] {
    Rep rep;
    rep_ok = RunRep(spec, state_dir(), ref, nullptr, report, &rep) && rep_ok;
    bytes_read.push_back(rep.read_mb * kMiB);
    return rep.wall_s;
  };
  auto traced = [&] {
    Rep rep;
    rep_ok = RunRep(spec, state_dir(), ref, spans, report, &rep) && rep_ok;
    scan_s.push_back(rep.scan_s);
    journal_bytes = rep.journal_bytes;
    return rep.wall_s;
  };
  const UnitTimes unit = MeasureTraceOverhead(
      args.smoke ? 1 : 2, args.smoke ? 0.0 : args.seconds, untraced, traced,
      report);
  if (!rep_ok) return false;
  const double reps = static_cast<double>(2 * unit.pairs);
  report->Set("dist.progress_frames",
              static_cast<double>(Counter("dist.progress.frames") -
                                  frames_before) /
                  reps,
              2 * unit.pairs);
  report->Set("dist.reassigns",
              static_cast<double>(Counter("dist.shards.reassigned")), 1);
  report->Set("dist.fenced",
              static_cast<double>(Counter("dist.results.fenced")), 1);
  report->Set("dist.journal_bytes", static_cast<double>(journal_bytes), 1);
  // A rep opens the file on the coordinator and on every worker; all of
  // it is inside the rep.
  report->Set("db.bytes_read", Median(bytes_read), bytes_read.size());
  report->Set("mining.untraced_mine_s", unit.untraced_s, unit.pairs);
  report->Set("mining.traced_mine_s", unit.traced_s, unit.pairs);

  // The Phase-3 probe batch of this run, from one local run with the tap.
  const nmine::CompatibilityMatrix c = WorkloadMatrix();
  nmine::MinerOptions options = BaseMinerOptions(
      spec.threshold, spec.sample_size, spec.num_threads);
  Phase3Tap tap(path, &c, spec.num_threads, nullptr);
  options.phase3_count_override = tap.Hook();
  nmine::BorderCollapseMiner(nmine::Metric::kMatch, options)
      .Mine(*setup.db, c);
  options.phase3_count_override = nullptr;

  const double decode_s =
      MeasureDbLayer(*setup.db, setup.open_s, spans, report);
  {
    Span span(spans, "db.scan_range_grid");
    report->Set("db.range_decode_amplification",
                RangeDecodeAmplification(*setup.db, decode_s), 1);
  }
  {
    Span span(spans, "dist.worker_count");
    report->Set("dist.worker_count_s",
                WorkerCountS(*setup.db, c, tap.first_probe()), 1);
  }
  {
    Span span(spans, "dist.journal_append");
    report->Set("dist.journal_append_ms",
                JournalAppendMs(work_dir + "/journal-probe",
                                tap.first_probe().size()),
                30);
  }
  {
    Span span(spans, "dist.wire_double");
    report->Set("dist.wire_double_ns", WireDoubleNs(), 1);
  }
  MeasureMiningLayers(*setup.db, c, options, tap.first_probe(), tap.probes(),
                      Median(scan_s), unit.traced_s,
                      args.smoke ? 0.0 : args.seconds / 2, spans, report);
  report->Set("db.scan_retries",
              static_cast<double>(Counter("db.scan.retries")), 1);
  return true;
}

}  // namespace perfbench
