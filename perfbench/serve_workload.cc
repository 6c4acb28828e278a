// serve_4clients: an in-process MiningServer on loopback with two
// executors and four closed-loop clients. Each client submits one small
// collapse job, waits for its result, then submits the next, the way
// `nmine_client submit --wait` callers block on their result. Jobs are
// small, so protocol parsing, fair-queue wait, journal appends and run
// checkpoints are a visible share of latency.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.h"
#include "layers.h"
#include "nmine/mining/symbol_scan.h"
#include "nmine/obs/json_parse.h"
#include "nmine/obs/json_util.h"
#include "nmine/obs/metrics.h"
#include "nmine/runtime/run_checkpoint.h"
#include "nmine/serve/job_journal.h"
#include "nmine/serve/server.h"
#include "nmine/stats/random.h"

namespace perfbench {

namespace {

using nmine::serve::JobResult;
using nmine::serve::JobSpec;

constexpr int kClients = 4;
constexpr uint64_t kFirstJobSeed = 1000;

/// One blocking line-JSON connection to the server.
class LineClient {
 public:
  explicit LineClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool connected() const { return fd_ >= 0; }

  /// Sends one request line and parses the one response line.
  std::optional<nmine::obs::JsonValue> RoundTrip(const std::string& line) {
    size_t sent = 0;
    while (sent < line.size()) {
      ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return std::nullopt;
      sent += static_cast<size_t>(n);
    }
    size_t newline;
    while ((newline = buffer_.find('\n')) == std::string::npos) {
      char chunk[65536];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    std::string response = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return nmine::obs::ParseJson(response);
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

struct JobRecord {
  JobSpec spec;
  double submit_ack_s = 0.0;
  double latency_s = 0.0;
  bool completed = false;  // ran to a result that is checked below
  std::string failure;     // shed / deduped / error; empty when completed
  JobResult result;
};

struct Session {
  std::vector<JobRecord> jobs;
  double window_s = 0.0;
  double cpu_s = 0.0;
  double read_mb = 0.0;
  std::string jobsz;
};

/// Runs one server session with a fresh state dir for `seconds`.
bool RunSession(const Args& args, const JobSpec& base,
                const std::string& state_dir, SpanLog* spans,
                Session* session, std::string* error) {
  nmine::serve::MiningServer server;
  nmine::serve::MiningServer::Options options;
  options.state_dir = state_dir;
  options.max_running = 2;
  // A zero-capacity queue sheds every submit (self-test of the failure
  // accounting).
  options.queue_capacity = args.force_shed ? 0 : 64;
  if (!server.Start(options, error)) return false;

  std::atomic<uint64_t> next_job{0};
  std::mutex jobs_mutex;
  const double begin = NowS();
  const double deadline = begin + args.seconds;
  const double cpu0 = ProcessCpuS();
  const uint64_t chars0 = CharsRead();
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      LineClient conn(server.port());
      const std::string client = "client-" + std::to_string(i);
      int sequence = 0;
      while (NowS() < deadline) {
        JobRecord job;
        job.spec = base;
        job.spec.seed = kFirstJobSeed + next_job.fetch_add(1);
        std::string request = "{\"op\": \"submit\", \"client\": ";
        nmine::obs::AppendJsonString(client, &request);
        request.append(", \"tag\": ");
        nmine::obs::AppendJsonString("job-" + std::to_string(sequence++),
                                     &request);
        request.append(", \"spec\": ");
        job.spec.AppendJson(&request);
        request.append("}\n");
        const double t0 = NowS();
        std::optional<nmine::obs::JsonValue> ack;
        {
          Span span(spans, "serve.submit");
          ack = conn.connected() ? conn.RoundTrip(request) : std::nullopt;
        }
        job.submit_ack_s = NowS() - t0;
        const nmine::obs::JsonValue* ok = ack ? ack->Get("ok") : nullptr;
        if (ok == nullptr || !ok->bool_value) {
          const nmine::obs::JsonValue* code = ack ? ack->Get("error") : nullptr;
          job.failure = code != nullptr ? code->string_value : "no response";
        } else if (ack->Get("deduped") != nullptr) {
          job.failure = "deduplicated resubmit";
        } else {
          std::string wait = "{\"op\": \"wait\", \"id\": ";
          nmine::obs::AppendJsonNumber(ack->GetNumber("id", 0), &wait);
          wait.append("}\n");
          std::optional<nmine::obs::JsonValue> done;
          {
            Span span(spans, "serve.wait");
            done = conn.RoundTrip(wait);
          }
          job.latency_s = NowS() - t0;
          const nmine::obs::JsonValue* result =
              done ? done->Get("result") : nullptr;
          std::optional<JobResult> parsed =
              result != nullptr ? JobResult::FromJson(*result) : std::nullopt;
          if (!parsed.has_value()) {
            job.failure = "no result";
          } else if (!parsed->ok) {
            job.failure = parsed->error_code;
          } else if (parsed->resumed_from_checkpoint) {
            job.failure = "resumed from a checkpoint";
          } else {
            job.completed = true;
            job.result = std::move(*parsed);
          }
        }
        if (!job.failure.empty() && job.failure != "no response") {
          // Back off like a real client after a refusal.
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        std::lock_guard<std::mutex> lock(jobs_mutex);
        session->jobs.push_back(std::move(job));
        if (!conn.connected()) break;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  session->window_s = NowS() - begin;
  session->cpu_s = ProcessCpuS() - cpu0;
  session->read_mb = static_cast<double>(CharsRead() - chars0) / kMiB;
  session->jobsz = server.JobszJson();
  server.Drain();
  return true;
}

/// Checks every completed job against a direct scalar-kernel RunJob of the
/// same spec, byte for byte, and charges failures to the report.
bool CheckSession(const Args& args, Session* session, Report* report,
                  std::string* error) {
  if (!UseKernel("scalar", error)) return false;
  std::atomic<size_t> next{0};
  std::vector<std::thread> checkers;
  std::vector<std::optional<JobResult>> refs(session->jobs.size());
  for (int t = 0; t < kClients; ++t) {
    checkers.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < session->jobs.size();
           i = next.fetch_add(1)) {
        if (session->jobs[i].completed) {
          refs[i] = nmine::serve::RunJob(session->jobs[i].spec, "", nullptr);
        }
      }
    });
  }
  for (std::thread& t : checkers) t.join();
  if (!UseKernel("auto", error)) return false;
  for (size_t i = 0; i < session->jobs.size(); ++i) {
    JobRecord& job = session->jobs[i];
    if (job.completed) {
      JobResult& ref = *refs[i];
      if (args.perturb_reference && !ref.rows.empty()) ref.rows.pop_back();
      if (!ref.ok || ref.rows != job.result.rows ||
          ref.scans != job.result.scans) {
        report->Mismatch("job rows differ from a direct RunJob");
        job.completed = false;
        job.failure = "wrong result";
      }
    }
    report->CountAttempt(job.completed);
  }
  return true;
}

/// p50 of one /jobsz latency block, in ms.
double JobszP50(const std::string& jobsz, const char* block) {
  std::optional<nmine::obs::JsonValue> board = nmine::obs::ParseJson(jobsz);
  const nmine::obs::JsonValue* latency =
      board ? board->Get("latency") : nullptr;
  const nmine::obs::JsonValue* b = latency ? latency->Get(block) : nullptr;
  return b != nullptr ? b->GetNumber("p50", 0.0) : 0.0;
}

/// JobJournal::AppendSubmit + AppendResult of one job, fsyncs included.
double MeasureJournalAppendMs(const std::string& dir, const JobSpec& spec,
                              const JobResult& result) {
  std::map<uint64_t, nmine::serve::Job> recovered;
  uint64_t next_id = 1;
  std::string error;
  std::unique_ptr<nmine::serve::JobJournal> journal =
      nmine::serve::JobJournal::Open(dir, &recovered, &next_id, &error);
  if (journal == nullptr) return 0.0;
  std::vector<double> ms;
  for (uint64_t id = 1; id <= 30; ++id) {
    nmine::serve::Job job;
    job.id = id;
    job.client = "client-0";
    job.tag = "job-" + std::to_string(id);
    job.spec = spec;
    const double t0 = NowS();
    if (!journal->AppendSubmit(job).ok() ||
        !journal->AppendResult(id, result).ok()) {
      return 0.0;
    }
    ms.push_back((NowS() - t0) * 1e3);
  }
  return Median(ms);
}

/// WriteRunCheckpoint of one job's Phase-1 state (symbol matches + sample).
double MeasureCheckpointWriteMs(const nmine::DiskSequenceDatabase& db,
                                const nmine::CompatibilityMatrix& c,
                                const JobSpec& spec, const std::string& path) {
  nmine::Rng rng(spec.seed);
  nmine::SymbolScanResult phase1 =
      nmine::ScanSymbolsAndSample(db, c, spec.sample_size, &rng);
  nmine::runtime::RunCheckpoint cp;
  cp.stage = nmine::runtime::RunStage::kPhase1Done;
  cp.min_threshold = spec.threshold;
  cp.num_sequences = db.NumSequences();
  cp.total_symbols = db.TotalSymbols();
  cp.sample_size = spec.sample_size;
  cp.seed = spec.seed;
  cp.delta = spec.delta;
  cp.scans_completed = 1;
  cp.symbol_match = phase1.symbol_match;
  cp.sample = phase1.sample.records();
  std::vector<double> ms;
  for (int i = 0; i < 20; ++i) {
    const double t0 = NowS();
    if (!nmine::runtime::WriteRunCheckpoint(path, cp).ok()) return 0.0;
    ms.push_back((NowS() - t0) * 1e3);
  }
  return Median(ms);
}

}  // namespace

bool RunServeWorkload(const Args& args, const std::string& work_dir,
                      SpanLog* spans, Report* report) {
  const size_t sequences = args.smoke ? 1000 : 5000;
  const std::string path = work_dir + "/db.nmsq";
  DbSetup setup;
  std::string error;
  if (!SetUpDb(sequences, args.seed, path, spans, &setup, &error)) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
    return false;
  }
  RecordEnvironment(work_dir, setup.file_bytes, report);
  if (!UseKernel("auto", &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return false;
  }
  const JobSpec base = BaseJobSpec(path, 0.25, 400, 1);

  Session session;
  if (!RunSession(args, base, work_dir + "/state", spans, &session, &error) ||
      !CheckSession(args, &session, report, &error)) {
    std::fprintf(stderr, "perfbench: serve session failed: %s\n",
                 error.c_str());
    return false;
  }
  std::vector<double> latency_s;
  std::vector<double> ack_ms;
  std::vector<double> scans;
  for (const JobRecord& job : session.jobs) {
    ack_ms.push_back(job.submit_ack_s * 1e3);
    if (!job.completed) continue;
    latency_s.push_back(job.latency_s);
    scans.push_back(static_cast<double>(job.result.scans));
  }
  const nmine::obs::MetricsRegistry& reg =
      nmine::obs::MetricsRegistry::Global();
  if (reg.CounterValue("serve.jobs.recovered") != 0) {
    report->Mismatch("the server recovered jobs from an earlier state dir");
  }
  std::printf("perfbench: %zu jobs attempted, %zu completed, window %.3f s\n",
              session.jobs.size(), latency_s.size(), session.window_s);

  const double completed = static_cast<double>(latency_s.size());
  const double jobs_per_s = completed / session.window_s;
  std::printf("perfbench: job latency p50 %.4f s p90 %.4f s, %.4f jobs/s\n",
              Median(latency_s), Quantile(latency_s, 0.9), jobs_per_s);
  if (!args.trace) {
    // Per job: the session's process CPU and file reads over the jobs it
    // completed.
    report->Set("setup_s", Median(setup.setup_s), setup.setup_s.size());
    report->Set("mine_cpu_s", completed > 0 ? session.cpu_s / completed : 0.0,
                latency_s.size());
    report->Set("scans", Median(scans), scans.size());
    report->Set("read_mb",
                completed > 0 ? session.read_mb / completed : 0.0,
                latency_s.size());
    report->Set("peak_rss_mb", PeakRssMb(), 1);
    return true;
  }

  report->Set("serve.submit_ack_ms", Median(ack_ms), ack_ms.size());
  report->Set("serve.queue_wait_ms", JobszP50(session.jobsz, "queue_wait_ms"),
              latency_s.size());
  report->Set("serve.run_ms", JobszP50(session.jobsz, "run_ms"),
              latency_s.size());
  report->Set("serve.job_p50_ms", Median(latency_s) * 1e3, latency_s.size());
  report->Set("serve.job_p90_ms", Quantile(latency_s, 0.9) * 1e3,
              latency_s.size());
  report->Set("serve.jobs_per_s", jobs_per_s, latency_s.size());
  report->Set("serve.shed",
              static_cast<double>(reg.CounterValue("serve.jobs.shed")), 1);

  // The floor under a job's latency: the same spec through RunJob with no
  // server, untraced and with Phase-3 counting routed through the tap.
  const nmine::CompatibilityMatrix c = WorkloadMatrix();
  JobSpec floor_spec = base;
  floor_spec.seed = kFirstJobSeed;
  Phase3Tap tap(path, &c, floor_spec.num_threads, spans);
  nmine::serve::RunJobHooks hooks;
  hooks.phase3_count = [&tap](nmine::Metric,
                              const std::vector<nmine::Pattern>& probe,
                              std::vector<double>* values) {
    return tap.Count(probe, values);
  };
  std::vector<double> phase3_s;
  std::vector<double> bytes_read;
  JobResult floor_result;
  auto untraced = [&] {
    const uint64_t chars0 = CharsRead();
    const double t0 = NowS();
    floor_result = nmine::serve::RunJob(floor_spec, "", nullptr);
    const double dt = NowS() - t0;
    bytes_read.push_back(static_cast<double>(CharsRead() - chars0));
    return dt;
  };
  auto traced = [&] {
    const double before = spans->TotalS("mining.phase3.count");
    Span span(spans, "serve.run_job");
    const double t0 = NowS();
    JobResult r = nmine::serve::RunJob(floor_spec, "", nullptr, hooks);
    const double dt = NowS() - t0;
    phase3_s.push_back(spans->TotalS("mining.phase3.count") - before);
    if (!r.ok || r.rows != floor_result.rows) {
      report->Mismatch("traced RunJob rows differ from the untraced run");
    }
    return dt;
  };
  const UnitTimes unit = MeasureTraceOverhead(
      args.smoke ? 1 : 3, args.smoke ? 0.0 : args.seconds / 2, untraced,
      traced, report);
  report->Set("serve.run_job_floor_ms", unit.untraced_s * 1e3, unit.pairs);
  report->Set("mining.untraced_mine_s", unit.untraced_s, unit.pairs);
  report->Set("mining.traced_mine_s", unit.traced_s, unit.pairs);
  report->Set("db.bytes_read", Median(bytes_read), bytes_read.size());
  MeasureDbLayer(*setup.db, setup.open_s, spans, report);
  nmine::MinerOptions options = BaseMinerOptions(
      floor_spec.threshold, floor_spec.sample_size, floor_spec.num_threads);
  options.seed = floor_spec.seed;
  MeasureMiningLayers(*setup.db, c, options, tap.first_probe(),
                      tap.probes() / unit.pairs, Median(phase3_s),
                      unit.traced_s, args.smoke ? 0.0 : args.seconds / 4,
                      spans, report);
  {
    Span span(spans, "serve.journal_append");
    report->Set("serve.journal_append_ms",
                MeasureJournalAppendMs(work_dir + "/journal-probe", base,
                                       floor_result),
                30);
  }
  {
    Span span(spans, "runtime.checkpoint_write");
    report->Set("runtime.checkpoint_write_ms",
                MeasureCheckpointWriteMs(*setup.db, c, floor_spec,
                                         work_dir + "/probe.ckpt"),
                20);
  }
  report->Set("db.scan_retries",
              static_cast<double>(reg.CounterValue("db.scan.retries")), 1);
  return true;
}

}  // namespace perfbench
