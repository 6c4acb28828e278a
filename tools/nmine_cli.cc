// nmine command-line tool: generate synthetic sequence databases, inspect
// database files, and mine them with any of the four algorithms.
//
// Usage:
//   nmine_cli generate --out DB.nmsq [--sequences N] [--min-len L]
//       [--max-len L] [--alphabet M] [--plant "0 1 2"]... [--plant-prob P]
//       [--noise-alpha A] [--seed S]
//   nmine_cli import --fasta FILE --out DB.nmsq
//   nmine_cli info DB.nmsq
//   nmine_cli matrix --out C.txt (--identity M | --uniform-alpha A
//       --alphabet M | --blosum50 T)
//   nmine_cli mine DB.nmsq [--metric match|support]
//       [--matrix C.txt | --uniform-alpha A | --identity]
//       [--algorithm collapse|levelwise|maxminer|toivonen|depthfirst]
//       [--threshold T] [--max-span K] [--max-gap G] [--max-level K]
//       [--sample N] [--delta D] [--seed S] [--threads N]
//       [--simd auto|avx512|avx2|neon|scalar]
//       [--calibrate none|expected|survival] [--csv]
//
// Parallelism:
//   --threads N    worker threads for database scans and pattern counting
//                  (default 1; 0 = one per hardware thread). Results are
//                  bit-identical for every N, and the accounted scan count
//                  does not change: parallelism splits the evaluation work
//                  of one pass, never the pass itself.
//   --simd LEVEL   match-kernel instruction set for M(P,s) evaluation
//                  (default auto = widest kernel both this build and this
//                  CPU support; requesting an unavailable level is an
//                  error). Mined pattern sets are bit-identical across
//                  levels: every count multiplies each window's factors in
//                  the scalar order. The active kernel is reported in
//                  /statusz ("simd_kernel") and bench fingerprints.
//
// Observability (every command accepts these; see README "Observability"):
//   --log-level trace|debug|info|warn|error|off   leveled stderr logging
//                                                 (default: off)
//   --log-json FILE       structured JSON-lines log sink
//   --metrics-out FILE    dump the metrics-registry snapshot as JSON on exit
//   --trace-out FILE      record Chrome trace_event spans; open the file in
//                         chrome://tracing or https://ui.perfetto.dev
//   --progress[=SECONDS]  log a heartbeat every SECONDS (default 5) with the
//                         current phase, scan counts, and elapsed time;
//                         forces info-level stderr logging if logging is off
//
// Live introspection (see README "Observability" and DESIGN.md section 13):
//   --statusz-port PORT   serve /healthz /statusz /metricsz /profilez
//                         /flightz over HTTP on 127.0.0.1:PORT (0 picks an
//                         ephemeral port; the bound port is printed to
//                         stderr)
//   --telemetry-out FILE  append a JSON-lines time series of metric
//                         snapshots, deltas, and rates (one row per
//                         --telemetry-interval; a final row is flushed on
//                         every exit, including SIGINT/SIGTERM/--deadline)
//   --telemetry-interval S  seconds between telemetry rows (default 1)
//   --openmetrics-out FILE  rewrite FILE with the OpenMetrics/Prometheus
//                         text rendering on every telemetry sample
//                         (default: <telemetry-out>.prom)
//   --flight-recorder FILE  keep a lock-free in-memory ring of the last
//                         1024 structured events (spans, phases, governor
//                         steps, retries, checkpoints) and dump it to FILE
//                         on SIGSEGV/SIGABRT and on exit codes 2/3
//
// Fault-tolerance flags for `mine` (drills and recovery; see README
// "Robustness"):
//   --scan-retries N        retries per failed scan (default 2; 0 disables)
//   --retry-backoff-ms B    initial backoff, doubled per retry (default 5)
//   --retry-budget N        cap on CUMULATIVE retries across all scans of
//                           the run (default unlimited); a flapping disk
//                           then fails the run instead of retrying forever
//                           (gauge db.scan.retry_budget_remaining)
//   --fault-plan SPEC       inject scan faults, e.g. "open-fail:1" or
//                           "corrupt-from:0" (see db/fault_injecting_database.h)
//   --phase3-retries N      miner-level re-probes of a failed Phase-3 batch
//
// Run lifecycle flags for `mine` (see README "Run lifecycle"):
//   --run-checkpoint F      whole-run checkpoint: snapshot after Phase 1,
//                           after Phase 2, and after every Phase-3 probe
//                           scan; an interrupted run rerun with the same
//                           flags resumes bit-identically (collapse only)
//   --deadline S            stop cooperatively after S seconds: the run
//                           flushes its checkpoint and exits 3
//   --memory-budget BYTES   degrade instead of thrash: first shrink probe
//                           batches, then the in-memory sample (epsilon is
//                           recomputed); results stay exact, only the scan
//                           count grows
//
// SIGINT/SIGTERM trigger the same cooperative stop as --deadline: finish
// the current scan boundary, flush the checkpoint, exit 3.
//
// Numeric flags are checked: a value that is not a number, or is out of
// range (e.g. --threads above 256), is a usage error.
//
// Exit status: 0 on success, 1 on usage/IO errors, 2 when a database scan
// or mining run failed at runtime (unrecoverable fault, corrupt data, or
// an exhausted memory budget), 3 when the run was cancelled (signal) or
// hit its --deadline — state is checkpointed when --run-checkpoint is
// set, so a rerun resumes where it stopped.
#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <mutex>
#include <sstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "nmine/bio/blosum.h"
#include "nmine/bio/fasta.h"
#include "nmine/core/matrix_io.h"
#include "nmine/core/status.h"
#include "nmine/db/disk_database.h"
#include "nmine/db/format.h"
#include "nmine/eval/calibration.h"
#include "nmine/eval/table.h"
#include "nmine/gen/matrix_generator.h"
#include "nmine/gen/noise_model.h"
#include "nmine/gen/sequence_generator.h"
#include "nmine/mining/levelwise_miner.h"
#include "nmine/mining/miners.h"
#include "nmine/net/status_server.h"
#include "nmine/obs/export/telemetry_sampler.h"
#include "nmine/obs/flight_recorder.h"
#include "nmine/obs/logger.h"
#include "nmine/obs/metrics.h"
#include "nmine/obs/profiler.h"
#include "nmine/obs/trace.h"
#include "nmine/runtime/run_control.h"
#include "nmine/runtime/run_status.h"
#include "nmine/serve/job.h"
#include "tools/tool_flags.h"

namespace nmine {
namespace {

// Process-wide run control: the stop-signal handlers cancel it, and the
// status board keeps pointing at it after CmdMine returns.
runtime::RunControl g_run_control;

// Crash-dump path for the SIGSEGV/SIGABRT handlers. Written once during
// flag parsing (before any handler can fire) into static storage, so the
// handler never touches std::string.
char g_flight_crash_path[4096] = {0};

extern "C" void HandleCrashSignal(int signum) {
  // Async-signal-safe path only: open(2) + FlightRecorder::DumpToFd
  // (atomics, write(2), stack-local formatting) + re-raise with the
  // default disposition so the process still dies with the right status.
  if (g_flight_crash_path[0] != '\0') {
    int fd = ::open(g_flight_crash_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      nmine::obs::FlightRecorder::Global().DumpToFd(fd);
      ::close(fd);
    }
  }
  std::signal(signum, SIG_DFL);
  ::raise(signum);
}

using tools::Flags;

constexpr long long kMaxCount = std::numeric_limits<long long>::max();

int Usage() {
  std::fprintf(stderr,
               "usage: nmine_cli <generate|import|info|matrix|mine> [flags]\n"
               "see the header of tools/nmine_cli.cc for the flag list\n"
               "exit status: 0 success; 1 usage or I/O setup error; 2 data\n"
               "or runtime fault (including an exhausted --memory-budget);\n"
               "3 cancelled by SIGINT/SIGTERM or --deadline, with progress\n"
               "checkpointed when --run-checkpoint is set\n");
  return 1;
}

/// Configures the observability stack from --log-level / --log-json /
/// --metrics-out / --trace-out and flushes the file outputs when the
/// command finishes (destructor). Returns usage errors via ok().
class ObsSession {
 public:
  explicit ObsSession(const Flags& flags)
      : metrics_out_(flags.Get("metrics-out", "")),
        trace_out_(flags.Get("trace-out", "")) {
    if (!tools::SetLogLevel(flags, "off")) return;
    obs::Logger& logger = obs::Logger::Global();
    const obs::LogLevel level = logger.level();
    if (level != obs::LogLevel::kOff) {
      logger.AddSink(std::make_unique<obs::TextSink>(&std::cerr));
    }
    std::string log_json = flags.Get("log-json", "");
    if (!log_json.empty()) {
      auto sink = std::make_unique<obs::JsonFileSink>(log_json);
      if (!sink->ok()) {
        std::fprintf(stderr, "cannot open --log-json file '%s'\n",
                     log_json.c_str());
        return;
      }
      // A JSON sink without an explicit level records everything.
      if (level == obs::LogLevel::kOff) {
        logger.SetLevel(obs::LogLevel::kTrace);
      }
      logger.AddSink(std::move(sink));
    }
    if (!trace_out_.empty()) {
      obs::Tracer::Global().Start();
    }
    if (flags.Has("progress")) {
      std::string value = flags.Get("progress", "");
      double interval_s =
          value.empty() ? 5.0 : flags.GetDouble("progress", 5.0);
      if (interval_s <= 0.0) {
        std::fprintf(stderr, "bad --progress interval '%s' (want seconds > 0)\n",
                     value.c_str());
        return;
      }
      // The heartbeat reads the profiler's current section, and must be
      // visible even when logging is otherwise off.
      obs::Profiler::Global().Enable();
      if (level == obs::LogLevel::kOff) {
        if (logger.level() == obs::LogLevel::kOff) {
          logger.SetLevel(obs::LogLevel::kInfo);
        }
        logger.AddSink(std::make_unique<obs::TextSink>(&std::cerr));
      }
      StartHeartbeat(interval_s);
    }

    // --- Live introspection: flight recorder, telemetry, statusz. ---
    flight_dump_path_ = flags.Get("flight-recorder", "");
    const bool want_statusz = flags.Has("statusz-port");
    const std::string telemetry_out = flags.Get("telemetry-out", "");
    if (!flight_dump_path_.empty() || want_statusz || !telemetry_out.empty()) {
      // The ring is cheap (one fetch_add + bounded copy per event), so any
      // introspection surface turns it on; /flightz and crash dumps then
      // always have a recent-event tail to show.
      obs::FlightRecorder::Global().Enable();
    }
    if (!flight_dump_path_.empty()) {
      if (flight_dump_path_.size() >= sizeof(g_flight_crash_path)) {
        std::fprintf(stderr, "--flight-recorder path too long\n");
        return;
      }
      std::memcpy(g_flight_crash_path, flight_dump_path_.c_str(),
                  flight_dump_path_.size() + 1);
      std::signal(SIGSEGV, HandleCrashSignal);
      std::signal(SIGABRT, HandleCrashSignal);
      std::signal(SIGBUS, HandleCrashSignal);
    }
    if (!telemetry_out.empty()) {
      double interval_s = flags.GetDouble("telemetry-interval", 1.0);
      if (interval_s <= 0.0) {
        std::fprintf(stderr,
                     "bad --telemetry-interval '%s' (want seconds > 0)\n",
                     flags.Get("telemetry-interval", "").c_str());
        return;
      }
      obs::TelemetrySampler::Options sampler_options;
      sampler_options.jsonl_path = telemetry_out;
      sampler_options.openmetrics_path =
          flags.Get("openmetrics-out", telemetry_out + ".prom");
      sampler_options.interval_s = interval_s;
      sampler_ = std::make_unique<obs::TelemetrySampler>();
      if (!sampler_->Start(sampler_options)) {
        std::fprintf(stderr, "cannot open --telemetry-out file '%s'\n",
                     telemetry_out.c_str());
        return;
      }
    }
    if (!tools::StartStatusz(flags, &server_).has_value()) return;
    ok_ = true;
  }

  /// Flushes the exit-time introspection artifacts and passes `code`
  /// through: a final telemetry row tagged with how the run ended, and a
  /// flight-recorder dump when the run failed or was cancelled. Called by
  /// Main around the command's exit code, so SIGINT/SIGTERM/--deadline
  /// exits (which return through CmdMine) flush exactly like clean ones.
  int Finalize(int code) {
    if (sampler_ != nullptr) {
      sampler_->Stop();
      const char* reason = code == 0   ? "exit"
                           : code == 3 ? "cancelled"
                           : code == 2 ? "fault"
                                       : "error";
      sampler_->FlushFinal(reason);
    }
    server_.Stop();
    if ((code == 2 || code == 3) && !flight_dump_path_.empty()) {
      if (obs::FlightRecorder::Global().DumpJsonFile(flight_dump_path_)) {
        std::fprintf(stderr, "flight recorder dumped to '%s'\n",
                     flight_dump_path_.c_str());
      } else {
        std::fprintf(stderr, "cannot write --flight-recorder file '%s'\n",
                     flight_dump_path_.c_str());
      }
    }
    return code;
  }

  ~ObsSession() {
    // Failed-construction and early-usage-error paths that skip
    // Finalize(): make sure the server and sampler threads are down
    // before their objects die.
    server_.Stop();
    if (sampler_ != nullptr) sampler_->Stop();
    if (progress_thread_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(progress_mutex_);
        progress_stop_ = true;
      }
      progress_cv_.notify_all();
      progress_thread_.join();
    }
    if (!metrics_out_.empty()) {
      if (!obs::MetricsRegistry::Global().WriteJsonFile(metrics_out_)) {
        std::fprintf(stderr, "cannot write --metrics-out file '%s'\n",
                     metrics_out_.c_str());
      }
    }
    if (!trace_out_.empty()) {
      obs::Tracer::Global().Stop();
      if (!obs::Tracer::Global().WriteJsonFile(trace_out_)) {
        std::fprintf(stderr, "cannot write --trace-out file '%s'\n",
                     trace_out_.c_str());
      }
    }
    obs::Logger::Global().ClearSinks();
  }

  bool ok() const { return ok_; }

 private:
  void StartHeartbeat(double interval_s) {
    progress_thread_ = std::thread([this, interval_s] {
      auto start = std::chrono::steady_clock::now();
      std::unique_lock<std::mutex> lock(progress_mutex_);
      while (!progress_cv_.wait_for(
          lock, std::chrono::duration<double>(interval_s),
          [this] { return progress_stop_; })) {
        double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        std::string phase = obs::Profiler::Global().CurrentSection();
        obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
        NMINE_LOG(kInfo, "progress")
            .Msg("heartbeat")
            .Str("phase", phase.empty() ? "idle" : phase)
            .Num("elapsed_s", elapsed)
            .Num("scans_started", metrics.CounterValue("db.scans.started"))
            .Num("sequences_scanned",
                 metrics.CounterValue("db.sequences_scanned"));
      }
    });
  }

  bool ok_ = false;
  std::string metrics_out_;
  std::string trace_out_;
  std::string flight_dump_path_;
  std::unique_ptr<obs::TelemetrySampler> sampler_;
  net::StatusServer server_;
  bool progress_stop_ = false;
  std::mutex progress_mutex_;
  std::condition_variable progress_cv_;
  std::thread progress_thread_;
};

std::optional<Pattern> ParseIdPattern(const std::string& text) {
  std::istringstream in(text);
  std::vector<SymbolId> body;
  std::string token;
  while (in >> token) {
    if (token == "*") {
      body.push_back(kWildcard);
    } else {
      body.push_back(static_cast<SymbolId>(std::atoi(token.c_str())));
    }
  }
  if (!Pattern::IsValidBody(body)) return std::nullopt;
  return Pattern(std::move(body));
}

int CmdGenerate(const Flags& flags) {
  std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out is required\n");
    return 1;
  }
  GeneratorConfig config;
  config.num_sequences = flags.GetInt("sequences", 1000, 0, kMaxCount);
  config.min_length = flags.GetInt("min-len", 50, 0, kMaxCount);
  config.max_length = flags.GetInt("max-len", 100, 0, kMaxCount);
  config.alphabet_size = flags.GetInt("alphabet", 20, 0, kMaxCount);
  config.plant_probability = flags.GetDouble("plant-prob", 0.3, 0, 1);
  for (const std::string& text : flags.GetAll("plant")) {
    std::optional<Pattern> p = ParseIdPattern(text);
    if (!p.has_value()) {
      std::fprintf(stderr, "generate: bad --plant pattern '%s'\n",
                   text.c_str());
      return 1;
    }
    config.planted.push_back(std::move(*p));
  }
  Rng rng(flags.GetInt("seed", 42, 0, kMaxCount));
  InMemorySequenceDatabase db = GenerateDatabase(config, &rng);

  double alpha = flags.GetDouble("noise-alpha", 0.0, 0, 1);
  if (alpha > 0.0) {
    db = ApplyUniformNoise(db, alpha, config.alphabet_size, &rng);
  }
  IoResult r = dbformat::WriteDatabaseFile(out, db.records());
  if (!r.ok) {
    std::fprintf(stderr, "generate: %s\n", r.message.c_str());
    return 1;
  }
  std::printf("wrote %zu sequences (%llu symbols) to %s\n",
              db.NumSequences(),
              static_cast<unsigned long long>(db.TotalSymbols()),
              out.c_str());
  return 0;
}

int CmdImport(const Flags& flags) {
  std::string fasta = flags.Get("fasta", "");
  std::string out = flags.Get("out", "");
  if (fasta.empty() || out.empty()) {
    std::fprintf(stderr, "import: --fasta and --out are required\n");
    return 1;
  }
  std::vector<FastaRecord> records;
  IoResult r = ReadFastaFile(fasta, &records);
  if (!r.ok) {
    std::fprintf(stderr, "import: %s\n", r.message.c_str());
    return 1;
  }
  size_t skipped = 0;
  InMemorySequenceDatabase db = FastaToDatabase(records, &skipped);
  r = dbformat::WriteDatabaseFile(out, db.records());
  if (!r.ok) {
    std::fprintf(stderr, "import: %s\n", r.message.c_str());
    return 1;
  }
  std::printf(
      "imported %zu sequences (%llu residues, %zu non-standard skipped) "
      "to %s\n",
      db.NumSequences(), static_cast<unsigned long long>(db.TotalSymbols()),
      skipped, out.c_str());
  return 0;
}

int CmdInfo(const Flags& flags) {
  if (flags.positional().empty()) {
    std::fprintf(stderr, "info: database path required\n");
    return 1;
  }
  Status error;
  std::unique_ptr<DiskSequenceDatabase> db =
      DiskSequenceDatabase::Open(flags.positional()[0], &error);
  if (db == nullptr) {
    std::fprintf(stderr, "info: %s\n", error.ToString().c_str());
    return 1;
  }
  std::printf("sequences:     %zu\n", db->NumSequences());
  std::printf("total symbols: %llu\n",
              static_cast<unsigned long long>(db->TotalSymbols()));
  if (db->NumSequences() > 0) {
    std::printf("lengths:       %zu .. %zu (avg %.1f)\n", db->min_length(),
                db->max_length(),
                static_cast<double>(db->TotalSymbols()) /
                    static_cast<double>(db->NumSequences()));
    std::printf("alphabet:      >= %d symbols\n", db->max_symbol() + 1);
  }
  return 0;
}

int CmdMatrix(const Flags& flags) {
  std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "matrix: --out is required\n");
    return 1;
  }
  std::optional<CompatibilityMatrix> c;
  if (flags.Has("identity")) {
    c = CompatibilityMatrix::Identity(
        flags.GetInt("identity", 20, 0, kMaxCount));
  } else if (flags.Has("uniform-alpha")) {
    c = UniformNoiseMatrix(flags.GetInt("alphabet", 20, 0, kMaxCount),
                           flags.GetDouble("uniform-alpha", 0.1, 0, 1));
  } else if (flags.Has("blosum50")) {
    c = BlosumCompatibilityMatrix(flags.GetDouble("blosum50", 1.0));
  } else {
    std::fprintf(stderr,
                 "matrix: one of --identity M, --uniform-alpha A, "
                 "--blosum50 T is required\n");
    return 1;
  }
  MatrixIoResult r = WriteCompatibilityMatrixFile(out, *c);
  if (!r.ok) {
    std::fprintf(stderr, "matrix: %s\n", r.message.c_str());
    return 1;
  }
  std::printf("wrote %zux%zu matrix to %s\n", c->size(), c->size(),
              out.c_str());
  return 0;
}

int CmdMine(const Flags& flags) {
  // Unknown flags are otherwise ignored; refuse this retired one so a
  // script that relied on it never silently runs without checkpoints.
  if (flags.Has("phase3-checkpoint")) {
    std::fprintf(stderr,
                 "mine: --phase3-checkpoint was removed; use "
                 "--run-checkpoint F (whole-run checkpoint, same resume "
                 "behavior)\n");
    return 1;
  }
  if (flags.positional().empty()) {
    std::fprintf(stderr, "mine: database path required\n");
    return 1;
  }
  // The job flags, database, retry budget, fault plan and matrix go
  // through the same code as a served or coordinated job, so the drills
  // can diff the three byte for byte.
  serve::JobSpec spec = tools::JobSpecFromFlags(flags);
  spec.db_path = flags.positional()[0];
  Status error;
  std::unique_ptr<serve::JobInputs> inputs = serve::OpenJobInputs(spec, &error);
  if (inputs == nullptr) {
    std::fprintf(stderr, "mine: %s\n", error.ToString().c_str());
    return 1;
  }
  const SequenceDatabase& mine_db = inputs->mining_db();
  const CompatibilityMatrix& c = *inputs->matrix;

  Metric metric =
      spec.metric == "support" ? Metric::kSupport : Metric::kMatch;
  MinerOptions options = serve::MinerOptionsFor(spec);
  options.phase3_scan_retries = flags.GetInt("phase3-retries", 1, 0, kMaxCount);
  options.run_checkpoint_path = flags.Get("run-checkpoint", "");

  // Cooperative stop: SIGINT/SIGTERM and --deadline share one RunControl,
  // polled at scan/level/batch boundaries by every miner.
  options.run_control = &g_run_control;
  tools::CancelOnStopSignals(&g_run_control);
  if (spec.deadline_s > 0.0) g_run_control.SetDeadlineAfter(spec.deadline_s);
  if (!tools::SelectSimd(flags)) return 1;

  const std::string& algorithm = spec.algorithm;
  std::string calibrate = flags.Get("calibrate", "none");

  // Publish the run on the status board so /statusz and the telemetry
  // sampler see it (string literals only — the board stores raw
  // pointers).
  const MinerEntry* miner = FindMiner(algorithm);
  const char* algo_name = calibrate != "none" ? "levelwise_calibrated"
                          : miner != nullptr  ? miner->name
                                              : "unknown";
  runtime::RunStatusBoard::Global().BeginRun("mine", algo_name);
  runtime::RunStatusBoard::Global().SetRunControl(&g_run_control);

  MiningResult result;
  if (calibrate != "none") {
    if (algorithm != "levelwise") {
      std::fprintf(stderr,
                   "mine: --calibrate requires --algorithm levelwise "
                   "(per-pattern thresholds)\n");
      return 1;
    }
    CalibrationMode mode = calibrate == "survival"
                               ? CalibrationMode::kDiagonalSurvival
                               : CalibrationMode::kExpectedDeflation;
    MatchCalibration calibration(c, mode);
    double tau = options.min_threshold;
    result = LevelwiseMiner(metric, options)
                 .MineWithThreshold(mine_db, c,
                                    [&calibration, tau](const Pattern& p) {
                                      return calibration.ThresholdFor(p, tau);
                                    });
  } else if (miner != nullptr) {
    result = miner->mine(metric, options, mine_db, c);
  } else {
    std::fprintf(stderr, "mine: unknown --algorithm '%s'\n",
                 algorithm.c_str());
    return 1;
  }

  if (!result.ok()) {
    std::fprintf(stderr, "mine: mining failed: %s\n",
                 result.status.ToString().c_str());
    if (result.status.code() == StatusCode::kDataLoss) {
      std::fprintf(stderr,
                   "mine: the database appears corrupted; retries cannot "
                   "recover it\n");
    }
    if (result.status.code() == StatusCode::kCancelled ||
        result.status.code() == StatusCode::kDeadlineExceeded) {
      if (!options.run_checkpoint_path.empty()) {
        std::fprintf(stderr,
                     "mine: progress checkpointed to '%s'; rerun with the "
                     "same flags to resume\n",
                     options.run_checkpoint_path.c_str());
      }
      return 3;
    }
    return 2;
  }

  Table table({"pattern", "value"});
  for (const Pattern& p : result.border.ToSortedVector()) {
    auto it = result.values.find(p);
    table.AddRow({p.ToString(),
                  it == result.values.end() ? "-" : Table::Num(it->second, 5)});
  }
  if (flags.Has("csv")) {
    table.PrintCsv(std::cout);
  } else {
    std::printf("frequent patterns: %zu   border: %zu   scans: %lld   "
                "time: %.2fs%s\n",
                result.frequent.size(), result.border.size(),
                static_cast<long long>(result.scans), result.seconds,
                result.truncated ? "   [TRUNCATED]" : "");
    table.Print(std::cout);
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  Flags flags("nmine_cli", argc, argv, 2);
  ObsSession obs_session(flags);
  if (!obs_session.ok()) return 1;
  if (command == "generate") return obs_session.Finalize(CmdGenerate(flags));
  if (command == "import") return obs_session.Finalize(CmdImport(flags));
  if (command == "info") return obs_session.Finalize(CmdInfo(flags));
  if (command == "matrix") return obs_session.Finalize(CmdMatrix(flags));
  if (command == "mine") return obs_session.Finalize(CmdMine(flags));
  return Usage();
}

}  // namespace
}  // namespace nmine

int main(int argc, char** argv) { return nmine::Main(argc, argv); }
