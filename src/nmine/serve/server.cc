#include "nmine/serve/server.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <utility>

#include "nmine/net/status_server.h"
#include "nmine/obs/clock.h"
#include "nmine/obs/json_util.h"
#include "nmine/obs/logger.h"
#include "nmine/obs/metrics.h"
#include "nmine/obs/trace.h"
#include "nmine/obs/trace_context.h"
#include "nmine/runtime/append_log.h"

namespace nmine {
namespace serve {
namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

bool IsTerminal(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed;
}

/// Upper bucket edges (ms) shared by the lifecycle latency histograms:
/// sub-ms admission up to multi-minute mining runs.
std::vector<double> LatencyBoundsMs() {
  return {1,    2,    5,     10,    25,    50,    100,   250,
          500,  1000, 2500,  5000,  10000, 30000, 60000, 300000};
}

/// Emits one server lifecycle span into the global tracer with explicit
/// trace identity and explicit bounds on the trace clock (no-op while the
/// tracer is disabled). Durations are clamped non-negative.
void EmitLifecycleSpan(const char* name, const Job& job, uint64_t span_id,
                       uint64_t parent_span_id, int64_t ts_us,
                       int64_t dur_us) {
  obs::TraceEvent e;
  e.name = name;
  e.category = "serve";
  e.ts_us = ts_us;
  e.dur_us = dur_us < 0 ? 0 : dur_us;
  e.trace_hi = job.trace_hi;
  e.trace_lo = job.trace_lo;
  e.span_id = span_id;
  e.parent_span_id = parent_span_id;
  e.args.emplace_back("job_id", std::to_string(job.id));
  if (!job.client.empty()) e.args.emplace_back("client", job.client);
  obs::Tracer::Global().AddComplete(std::move(e));
}

}  // namespace

MiningServer::~MiningServer() { Stop(); }

std::string MiningServer::CheckpointPathFor(uint64_t id) const {
  return (std::filesystem::path(options_.state_dir) /
          ("job-" + std::to_string(id) + ".ckpt"))
      .string();
}

bool MiningServer::Start(const Options& options, std::string* error) {
  if (running_.load(std::memory_order_acquire)) {
    if (error != nullptr) *error = "mining server already running";
    return false;
  }
  if (options.state_dir.empty()) {
    if (error != nullptr) *error = "mining server needs a state_dir";
    return false;
  }
  options_ = options;
  stopping_.store(false, std::memory_order_release);
  draining_.store(false, std::memory_order_release);

  // Recover the board from the journal. Queued jobs (including the ones a
  // crash or drain interrupted mid-run) are re-admitted, bypassing the
  // admission bound: they were already accepted once.
  jobs_.clear();
  dedup_.clear();
  journal_ = JobJournal::Open(options_.state_dir, &jobs_, &next_id_, error);
  if (journal_ == nullptr) return false;
  finished_ids_.assign(journal_->finished_order().begin(),
                       journal_->finished_order().end());

  if (options_.tracing) {
    if (options_.trace_buffer > 0) {
      obs::Tracer::Global().SetCapacity(options_.trace_buffer);
    }
    obs::Tracer::Global().Start();
  }

  queue_ = std::make_unique<BoundedFairQueue>(options_.queue_capacity);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  queue_wait_hist_ =
      &reg.GetHistogram("serve.job.queue_wait_ms", LatencyBoundsMs());
  run_hist_ = &reg.GetHistogram("serve.job.run_ms", LatencyBoundsMs());
  size_t recovered_queued = 0;
  for (auto& [id, job] : jobs_) {
    job.checkpoint_path = CheckpointPathFor(id);
    if (!job.tag.empty()) dedup_[{job.client, job.tag}] = id;
    // Journals written before tracing existed have no trace id; mint one
    // so every live job stays traceable across the restart.
    if ((job.trace_hi | job.trace_lo) == 0) {
      obs::TraceContext minted = obs::MintTraceContext();
      job.trace_hi = minted.trace_hi;
      job.trace_lo = minted.trace_lo;
    }
    if (job.state == JobState::kQueued) {
      job.root_span_id = obs::NextSpanId();
      job.submit_tus = obs::SinceEpochUs();
      queue_->PushRecovered(job.client, id);
      ++recovered_queued;
    }
  }
  if (recovered_queued > 0) {
    reg.GetCounter("serve.jobs.recovered")
        .Add(static_cast<int64_t>(recovered_queued));
  }
  reg.GetGauge("serve.queue.depth")
      .Set(static_cast<double>(queue_->size()));

  // Read before the transport starts: from then on connection threads
  // own the board under jobs_mutex_.
  const size_t recovered_jobs = jobs_.size();
  net::LineServer::Options transport;
  transport.bind_address = options_.bind_address;
  transport.port = options_.port;
  transport.max_line_bytes = kMaxRequestLineBytes;
  transport.oversized_reply =
      ErrorResponse("INVALID_ARGUMENT", "request line exceeds 1 MiB");
  auto handle_line = [this](const std::string& line) {
    std::string parse_error;
    std::string parse_error_code;
    std::optional<Request> request =
        ParseRequest(line, &parse_error, &parse_error_code);
    return request.has_value() ? HandleRequest(*request)
                               : ErrorResponse(parse_error_code, parse_error);
  };
  if (!transport_.Start(transport, handle_line, error)) return false;

  running_.store(true, std::memory_order_release);

  // Owned registrations: Shutdown removes them before any member state
  // is torn down, and no handler still runs once it has.
  endpoints_ = {
      net::StatusServer::RegisterEndpoint("/jobsz",
                                          [this] { return JobszJson(); }),
      net::StatusServer::RegisterQueryEndpoint(
          "/tracez",
          [this](const std::string& query) { return TracezJson(query); }),
      net::StatusServer::RegisterHealthSignal(
          "serve.queue", [this](std::vector<std::string>* reasons) {
            return HealthQueueMember(reasons);
          })};

  // One owned thread per executor, joined at shutdown: a serving process
  // must never let its executors starve (or be starved by) the scan
  // shards of the jobs it runs on the shared pool, and a stopped server
  // leaves no thread behind.
  for (size_t i = 0; i < options_.max_running; ++i) {
    executors_.emplace_back([this] { ExecutorLoop(); });
  }

  NMINE_LOG(kInfo, "serve")
      .Msg("mining server listening")
      .Str("address", options_.bind_address)
      .Num("port", static_cast<int64_t>(port()))
      .Str("state_dir", options_.state_dir)
      .Num("recovered_jobs", static_cast<int64_t>(recovered_jobs))
      .Num("recovered_queued", static_cast<int64_t>(recovered_queued));
  return true;
}

void MiningServer::Drain() { Shutdown(/*graceful=*/true); }

void MiningServer::Stop() { Shutdown(/*graceful=*/false); }

void MiningServer::Shutdown(bool graceful) {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  for (uint64_t id : endpoints_) net::StatusServer::Unregister(id);
  endpoints_.clear();
  if (graceful) draining_.store(true, std::memory_order_release);
  stopping_.store(true, std::memory_order_release);

  // Cancel in-flight jobs cooperatively: the miners observe the token at
  // their next boundary, flush their RunCheckpoints, and return
  // kCancelled, which RunOne turns into "back to queued" (graceful) or
  // leaves un-journaled (abrupt — the journal then looks exactly like a
  // SIGKILL's).
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    for (auto& [id, job] : jobs_) {
      if (job.state == JobState::kRunning) {
        job.run_control.RequestCancel();
        EmitLifecycleSpan("job.cancel_requested", job, obs::NextSpanId(),
                          job.root_span_id, obs::SinceEpochUs(), 0);
      }
    }
    jobs_cv_.notify_all();
  }

  queue_->Stop();
  for (std::thread& executor : executors_) executor.join();
  executors_.clear();
  transport_.Stop();
  NMINE_LOG(kInfo, "serve")
      .Msg(graceful ? "mining server drained" : "mining server stopped")
      .Num("jobs_tracked", static_cast<int64_t>(jobs_.size()));
}

std::string MiningServer::HandleRequest(const Request& request) {
  if (request.op == "ping") return OkResponse();
  if (request.op == "submit") return HandleSubmit(request);
  if (request.op == "jobs") {
    std::string board = JobszJson();
    if (!board.empty() && board.back() == '\n') board.pop_back();
    return OkResponse(", \"board\": " + board);
  }
  // status / wait / trace
  std::unique_lock<std::mutex> lock(jobs_mutex_);
  auto it = jobs_.find(request.job_id);
  if (it == jobs_.end()) {
    return ErrorResponse(
        "NOT_FOUND", "no job " + std::to_string(request.job_id));
  }
  if (request.op == "trace") {
    const Job& job = it->second;
    if (!options_.tracing) {
      return ErrorResponse("FAILED_PRECONDITION",
                           "server runs without --trace; no spans were "
                           "captured for job " +
                               std::to_string(request.job_id));
    }
    // The per-trace Chrome JSON travels as an escaped string member so
    // the response stays one line-JSON object like every other reply.
    std::string trace_json = obs::Tracer::Global().TraceJson(
        job.trace_hi, job.trace_lo);
    std::string extra = ", \"id\": " + std::to_string(job.id) +
                        ", \"trace_id\": \"" +
                        obs::FormatTraceId(job.trace_hi, job.trace_lo) +
                        "\", \"trace_json\": ";
    obs::AppendJsonString(trace_json, &extra);
    return OkResponse(extra);
  }
  if (request.op == "wait") {
    // Re-find on every wake: the failed-journal path of a concurrent
    // submit may erase entries, which would invalidate a held iterator.
    jobs_cv_.wait(lock, [&] {
      auto i = jobs_.find(request.job_id);
      return i == jobs_.end() || IsTerminal(i->second.state) ||
             stopping_.load(std::memory_order_acquire);
    });
    it = jobs_.find(request.job_id);
    if (it == jobs_.end()) {
      return ErrorResponse(
          "NOT_FOUND", "no job " + std::to_string(request.job_id));
    }
    if (!IsTerminal(it->second.state)) {
      return ErrorResponse("UNAVAILABLE",
                           "server stopping before job " +
                               std::to_string(request.job_id) +
                               " finished; it resumes after restart",
                           options_.shed_retry_after_s);
    }
  }
  return StatusResponseLocked(it->second);
}

std::string MiningServer::HandleSubmit(const Request& request) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  if (stopping_.load(std::memory_order_acquire) ||
      draining_.load(std::memory_order_acquire)) {
    return ErrorResponse("UNAVAILABLE",
                         "server is draining; resubmit after restart",
                         options_.shed_retry_after_s);
  }

  // submit_mutex_ serializes capacity-check -> journal -> enqueue: the
  // executor must not be able to pop (let alone finish) a job whose
  // submit record is not durable yet, or a crash could replay its
  // lifecycle events before its submit line.
  std::lock_guard<std::mutex> submit_lock(submit_mutex_);

  if (!request.tag.empty()) {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    auto dup = dedup_.find({request.client, request.tag});
    if (dup != dedup_.end()) {
      // Idempotent resubmit (the client lost our ack): same job, no new
      // admission, no second run. The ack echoes the ORIGINAL trace id —
      // the duplicate submit never opened a new trace.
      auto it = jobs_.find(dup->second);
      std::string trace_member;
      if (it != jobs_.end()) {
        ++it->second.resubmits;
        trace_member = ", \"trace_id\": \"" +
                       obs::FormatTraceId(it->second.trace_hi,
                                          it->second.trace_lo) +
                       "\"";
      }
      return OkResponse(", \"id\": " + std::to_string(dup->second) +
                        ", \"deduped\": true" + trace_member);
    }
  }

  if (queue_->size() >= options_.queue_capacity) {
    reg.GetCounter("serve.jobs.shed").Increment();
    // The hint tracks load: current depth over the recent drain rate, so
    // a shed client behind a deep slow queue waits longer than one shed
    // during a brief burst (options_.shed_retry_after_s is only the
    // cold-start fallback).
    return ErrorResponse(
        "RESOURCE_EXHAUSTED",
        "admission queue full (" + std::to_string(options_.queue_capacity) +
            " queued jobs); retry later",
        queue_->RetryAfterS(options_.shed_retry_after_s));
  }

  // Bind the trace identity at admission: the client's minted id when it
  // sent one, a server-minted id otherwise — either way the job is
  // traceable from its first journal record on.
  obs::TraceContext trace;
  if (!request.trace_id.empty()) {
    obs::ParseTraceId(request.trace_id, &trace.trace_hi, &trace.trace_lo);
  } else {
    trace = obs::MintTraceContext();
  }

  uint64_t id;
  const Job* new_job = nullptr;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    id = next_id_++;
    Job& job = jobs_[id];
    job.id = id;
    job.client = request.client;
    job.tag = request.tag;
    job.spec = *request.spec;
    job.state = JobState::kQueued;
    job.submit_us = NowMicros();
    job.trace_hi = trace.trace_hi;
    job.trace_lo = trace.trace_lo;
    job.root_span_id = obs::NextSpanId();
    job.submit_tus = obs::SinceEpochUs();
    job.checkpoint_path = CheckpointPathFor(id);
    if (!request.tag.empty()) dedup_[{request.client, request.tag}] = id;
    // Map nodes are address-stable; only a failed submit and the
    // eviction of finished jobs erase, and this job is neither.
    new_job = &job;
  }

  // Journal BEFORE enqueue and BEFORE the ok goes out. A crash right here
  // means the client never saw ok and resubmits; the idempotency tag
  // dedups against the journaled record if it did land.
  Status journaled = journal_->AppendSubmit(*new_job);
  if (!journaled.ok()) {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    jobs_.erase(id);
    if (!request.tag.empty()) dedup_.erase({request.client, request.tag});
    return ErrorResponse("UNAVAILABLE",
                         "cannot journal submit: " + journaled.message());
  }

  queue_->PushRecovered(request.client, id);  // capacity checked above
  reg.GetCounter("serve.jobs.admitted").Increment();
  reg.GetGauge("serve.queue.depth").Set(static_cast<double>(queue_->size()));
  return OkResponse(", \"id\": " + std::to_string(id) +
                    ", \"trace_id\": \"" +
                    obs::FormatTraceId(trace.trace_hi, trace.trace_lo) +
                    "\"");
}

void MiningServer::ExecutorLoop() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  uint64_t id;
  while (queue_->Pop(&id)) {
    reg.GetGauge("serve.queue.depth").Set(static_cast<double>(queue_->size()));
    if (stopping_.load(std::memory_order_acquire)) continue;
    RunOne(id);
  }
}

void MiningServer::RunOne(uint64_t id) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  JobSpec spec;
  std::string checkpoint_path;
  const runtime::RunControl* run = nullptr;
  obs::TraceContext trace;
  int64_t start_tus = 0;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second.state != JobState::kQueued) return;
    Job& job = it->second;
    job.state = JobState::kRunning;
    job.start_us = NowMicros();
    job.start_tus = obs::SinceEpochUs();
    if (job.spec.deadline_s > 0.0) {
      job.run_control.SetDeadlineAfter(job.spec.deadline_s);
    }
    spec = job.spec;
    checkpoint_path = job.checkpoint_path;
    run = &job.run_control;
    trace.trace_hi = job.trace_hi;
    trace.trace_lo = job.trace_lo;
    start_tus = job.start_tus;
    // queued -> admitted: the queue-wait edge closes now; emit it
    // immediately so a running job's trace already shows its wait.
    queue_wait_hist_->Observe(
        static_cast<double>(job.start_tus - job.submit_tus) / 1000.0);
    EmitLifecycleSpan("job.queue_wait", job, obs::NextSpanId(),
                      job.root_span_id, job.submit_tus,
                      job.start_tus - job.submit_tus);
  }
  journal_->AppendState(id, JobState::kRunning);

  // The run span parents every miner span: installing its context here
  // means each TraceSpan the run opens (and every pool task it submits)
  // carries this job's trace id with the run span as ancestor.
  trace.span_id = obs::NextSpanId();
  const uint64_t run_span_id = trace.span_id;
  JobResult result;
  {
    obs::ScopedTraceContext scope(trace);
    NMINE_LOG(kDebug, "serve")
        .Msg("job running")
        .Num("id", static_cast<int64_t>(id));
    result = RunJob(spec, checkpoint_path, run, RunJobHooks(), &layouts_);
  }
  const int64_t finish_tus = obs::SinceEpochUs();

  const bool interrupted =
      !result.ok && result.error_code == "CANCELLED" &&
      stopping_.load(std::memory_order_acquire);
  if (interrupted) {
    // Drain: journal the rewind so a restart re-admits the job; its
    // RunCheckpoint already holds the flushed progress. Abrupt Stop():
    // skip the journal write — the file must look SIGKILL-torn.
    if (draining_.load(std::memory_order_acquire)) {
      journal_->AppendState(id, JobState::kQueued);
      reg.GetCounter("serve.jobs.interrupted").Increment();
    }
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    auto it = jobs_.find(id);
    if (it != jobs_.end()) {
      Job& job = it->second;
      job.state = JobState::kQueued;
      ++job.requeues;
      EmitLifecycleSpan("job.requeued", job, obs::NextSpanId(),
                        job.root_span_id, finish_tus, 0);
    }
    return;
  }

  // Terminal. Journal first, then publish: a waiter only ever sees a
  // result that survives a crash.
  std::lock_guard<std::mutex> finish_lock(finish_mutex_);
  journal_->AppendResult(id, result);
  reg.GetCounter(result.ok ? "serve.jobs.completed" : "serve.jobs.failed")
      .Increment();
  run_hist_->Observe(static_cast<double>(finish_tus - start_tus) / 1000.0);
  if (result.ok) {
    runtime::BestEffortRemoveFile(checkpoint_path, "serve");
  }
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    auto it = jobs_.find(id);
    if (it != jobs_.end()) {
      Job& job = it->second;
      job.result = std::move(result);
      job.state = job.result.ok ? JobState::kDone : JobState::kFailed;
      job.finish_us = NowMicros();
      job.finish_tus = finish_tus;
      // running -> done/failed: the run span, then the root lifecycle
      // span spanning the job's whole queued+running life.
      EmitLifecycleSpan("job.run", job, run_span_id, job.root_span_id,
                        job.start_tus, finish_tus - job.start_tus);
      EmitLifecycleSpan("job", job, job.root_span_id, 0, job.submit_tus,
                        finish_tus - job.submit_tus);
      RetireLocked(id);
    }
    jobs_cv_.notify_all();
  }
}

void MiningServer::RetireLocked(uint64_t id) {
  finished_ids_.push_back(id);
  while (finished_ids_.size() > JobJournal::kMaxTerminalKept) {
    auto it = jobs_.find(finished_ids_.front());
    finished_ids_.pop_front();
    if (it == jobs_.end()) continue;
    const Job& job = it->second;
    auto dup = dedup_.find({job.client, job.tag});
    if (dup != dedup_.end() && dup->second == job.id) dedup_.erase(dup);
    jobs_.erase(it);
  }
}

std::string MiningServer::StatusResponseLocked(const Job& job) const {
  std::string out = "{\"ok\": true, \"id\": ";
  obs::AppendJsonNumber(static_cast<double>(job.id), &out);
  out.append(", \"state\": ");
  obs::AppendJsonString(ToString(job.state), &out);
  out.append(", \"trace_id\": ");
  obs::AppendJsonString(obs::FormatTraceId(job.trace_hi, job.trace_lo),
                        &out);
  if (IsTerminal(job.state)) {
    out.append(", \"result\": ");
    job.result.AppendJson(&out);
  }
  out.append("}\n");
  return out;
}

int64_t MiningServer::OldestQueuedAgeMsLocked() const {
  const int64_t now_tus = obs::SinceEpochUs();
  int64_t oldest = 0;
  for (const auto& [id, job] : jobs_) {
    if (job.state != JobState::kQueued || job.submit_tus == 0) continue;
    oldest = std::max(oldest, (now_tus - job.submit_tus) / 1000);
  }
  return oldest;
}

namespace {

/// Milliseconds a completed run took, 0 when it never started (recovered
/// terminal jobs from old journals have no trace-clock timestamps).
int64_t RunMs(const Job& job) {
  if (job.start_tus == 0 || job.finish_tus == 0) return 0;
  return std::max<int64_t>(0, (job.finish_tus - job.start_tus) / 1000);
}

int64_t QueueWaitMs(const Job& job) {
  if (job.submit_tus == 0 || job.start_tus == 0) return 0;
  return std::max<int64_t>(0, (job.start_tus - job.submit_tus) / 1000);
}

void AppendLatencyBlock(const char* name, const obs::HistogramMetric* hist,
                        std::string* out) {
  out->push_back('"');
  out->append(name);
  out->append("\": {\"count\": ");
  obs::AppendJsonNumber(
      hist == nullptr ? 0.0 : static_cast<double>(hist->count()), out);
  out->append(", \"p50\": ");
  obs::AppendJsonNumber(hist == nullptr ? 0.0 : hist->Quantile(0.50), out);
  out->append(", \"p95\": ");
  obs::AppendJsonNumber(hist == nullptr ? 0.0 : hist->Quantile(0.95), out);
  out->append(", \"p99\": ");
  obs::AppendJsonNumber(hist == nullptr ? 0.0 : hist->Quantile(0.99), out);
  out->append(", \"max\": ");
  obs::AppendJsonNumber(hist == nullptr ? 0.0 : hist->max(), out);
  out->append("}");
}

}  // namespace

std::string MiningServer::JobszJson() {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  size_t counts[4] = {0, 0, 0, 0};
  for (const auto& [id, job] : jobs_) {
    counts[static_cast<int>(job.state)]++;
  }
  const int64_t oldest_queued_age_ms = OldestQueuedAgeMsLocked();
  // "Current max queue wait": the longest wait any job has experienced so
  // far — the worst completed wait, or the oldest still-queued job when
  // that is already longer.
  const double max_queue_wait_ms =
      std::max(queue_wait_hist_ == nullptr ? 0.0 : queue_wait_hist_->max(),
               static_cast<double>(oldest_queued_age_ms));

  std::string out = "{\"version\": \"nmine.jobsz.v1\", \"queue_depth\": ";
  obs::AppendJsonNumber(static_cast<double>(queue_->size()), &out);
  out.append(", \"oldest_queued_age_ms\": ");
  obs::AppendJsonNumber(static_cast<double>(oldest_queued_age_ms), &out);
  out.append(", \"max_queue_wait_ms\": ");
  obs::AppendJsonNumber(max_queue_wait_ms, &out);
  out.append(", \"counts\": {\"queued\": ");
  obs::AppendJsonNumber(static_cast<double>(counts[0]), &out);
  out.append(", \"running\": ");
  obs::AppendJsonNumber(static_cast<double>(counts[1]), &out);
  out.append(", \"done\": ");
  obs::AppendJsonNumber(static_cast<double>(counts[2]), &out);
  out.append(", \"failed\": ");
  obs::AppendJsonNumber(static_cast<double>(counts[3]), &out);
  out.append("}, \"latency\": {");
  AppendLatencyBlock("queue_wait_ms", queue_wait_hist_, &out);
  out.append(", ");
  AppendLatencyBlock("run_ms", run_hist_, &out);
  out.append("}");

  // Slow-job exemplar table: the slowest completed runs, with the trace
  // ids to pull their full traces from /tracez.
  std::vector<const Job*> terminal;
  for (const auto& [id, job] : jobs_) {
    if (IsTerminal(job.state)) terminal.push_back(&job);
  }
  std::sort(terminal.begin(), terminal.end(), [](const Job* a, const Job* b) {
    return RunMs(*a) != RunMs(*b) ? RunMs(*a) > RunMs(*b) : a->id < b->id;
  });
  if (terminal.size() > 5) terminal.resize(5);
  out.append(", \"slowest\": [");
  for (size_t i = 0; i < terminal.size(); ++i) {
    const Job& job = *terminal[i];
    if (i > 0) out.append(", ");
    out.append("{\"id\": ");
    obs::AppendJsonNumber(static_cast<double>(job.id), &out);
    out.append(", \"trace_id\": ");
    obs::AppendJsonString(obs::FormatTraceId(job.trace_hi, job.trace_lo),
                          &out);
    out.append(", \"client\": ");
    obs::AppendJsonString(job.client, &out);
    out.append(", \"tag\": ");
    obs::AppendJsonString(job.tag, &out);
    out.append(", \"run_ms\": ");
    obs::AppendJsonNumber(static_cast<double>(RunMs(job)), &out);
    out.append(", \"queue_wait_ms\": ");
    obs::AppendJsonNumber(static_cast<double>(QueueWaitMs(job)), &out);
    out.append(", \"ok\": ");
    out.append(job.result.ok ? "true" : "false");
    out.append(", \"requeues\": ");
    obs::AppendJsonNumber(static_cast<double>(job.requeues), &out);
    out.append(", \"resubmits\": ");
    obs::AppendJsonNumber(static_cast<double>(job.resubmits), &out);
    out.append("}");
  }
  out.append("]");

  out.append(", \"jobs\": [");
  bool first = true;
  for (const auto& [id, job] : jobs_) {
    if (!first) out.append(", ");
    first = false;
    out.append("{\"id\": ");
    obs::AppendJsonNumber(static_cast<double>(id), &out);
    out.append(", \"client\": ");
    obs::AppendJsonString(job.client, &out);
    out.append(", \"state\": ");
    obs::AppendJsonString(ToString(job.state), &out);
    out.append(", \"trace_id\": ");
    obs::AppendJsonString(obs::FormatTraceId(job.trace_hi, job.trace_lo),
                          &out);
    out.append(", \"algorithm\": ");
    obs::AppendJsonString(job.spec.algorithm, &out);
    out.append(", \"submit_us\": ");
    obs::AppendJsonNumber(static_cast<double>(job.submit_us), &out);
    if (IsTerminal(job.state)) {
      out.append(", \"ok\": ");
      out.append(job.result.ok ? "true" : "false");
      if (!job.result.ok) {
        out.append(", \"error\": ");
        obs::AppendJsonString(job.result.error_code, &out);
      }
      if (job.result.resumed_from_checkpoint) {
        out.append(", \"resumed\": true");
      }
      out.append(", \"run_ms\": ");
      obs::AppendJsonNumber(static_cast<double>(RunMs(job)), &out);
      out.append(", \"queue_wait_ms\": ");
      obs::AppendJsonNumber(static_cast<double>(QueueWaitMs(job)), &out);
    }
    out.append("}");
  }
  out.append("]}\n");
  return out;
}

std::string MiningServer::TracezJson(const std::string& query) {
  // /tracez?id=<32 hex>: one trace as wall-clock-anchored Chrome JSON.
  if (query.rfind("id=", 0) == 0) {
    uint64_t hi = 0;
    uint64_t lo = 0;
    if (!obs::ParseTraceId(query.substr(3), &hi, &lo)) {
      return "{\"error\": \"id must be 32 hex digits\"}\n";
    }
    return obs::Tracer::Global().TraceJson(hi, lo) + "\n";
  }
  if (!query.empty()) {
    return "{\"error\": \"unknown query; use /tracez or /tracez?id=<32 "
           "hex>\"}\n";
  }

  // Listing: the most recent completed job traces, newest first, with a
  // per-category phase breakdown summed from the buffered span events.
  // (Job itself is pinned in the board map and not copyable; snapshot the
  // summary fields instead.)
  struct TraceRow {
    uint64_t job_id = 0;
    std::string client;
    std::string tag;
    uint64_t trace_hi = 0;
    uint64_t trace_lo = 0;
    int64_t finish_tus = 0;
    int64_t queue_wait_ms = 0;
    int64_t run_ms = 0;
    int64_t requeues = 0;
    int64_t resubmits = 0;
    bool ok = false;
    bool resumed = false;
  };
  std::vector<TraceRow> recent;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    for (const auto& [id, job] : jobs_) {
      if (!IsTerminal(job.state)) continue;
      TraceRow row;
      row.job_id = job.id;
      row.client = job.client;
      row.tag = job.tag;
      row.trace_hi = job.trace_hi;
      row.trace_lo = job.trace_lo;
      row.finish_tus = job.finish_tus;
      row.queue_wait_ms = QueueWaitMs(job);
      row.run_ms = RunMs(job);
      row.requeues = job.requeues;
      row.resubmits = job.resubmits;
      row.ok = job.result.ok;
      row.resumed = job.result.resumed_from_checkpoint;
      recent.push_back(std::move(row));
    }
  }
  std::sort(recent.begin(), recent.end(),
            [](const TraceRow& a, const TraceRow& b) {
              return a.finish_tus != b.finish_tus ? a.finish_tus > b.finish_tus
                                                  : a.job_id > b.job_id;
            });
  if (recent.size() > 32) recent.resize(32);

  // One pass over the tracer buffer, binned by trace id then category.
  std::map<std::pair<uint64_t, uint64_t>, std::map<std::string, int64_t>>
      phase_us;
  for (const obs::TraceEvent& e : obs::Tracer::Global().Events()) {
    if ((e.trace_hi | e.trace_lo) == 0) continue;
    phase_us[{e.trace_hi, e.trace_lo}][e.category] += e.dur_us;
  }

  std::string out =
      "{\"version\": \"nmine.tracez.v1\", \"tracing\": ";
  out.append(options_.tracing ? "true" : "false");
  out.append(", \"traces\": [");
  for (size_t i = 0; i < recent.size(); ++i) {
    const TraceRow& job = recent[i];
    if (i > 0) out.append(", ");
    out.append("{\"trace_id\": ");
    obs::AppendJsonString(obs::FormatTraceId(job.trace_hi, job.trace_lo),
                          &out);
    out.append(", \"job_id\": ");
    obs::AppendJsonNumber(static_cast<double>(job.job_id), &out);
    out.append(", \"client\": ");
    obs::AppendJsonString(job.client, &out);
    out.append(", \"tag\": ");
    obs::AppendJsonString(job.tag, &out);
    out.append(", \"ok\": ");
    out.append(job.ok ? "true" : "false");
    out.append(", \"queue_wait_ms\": ");
    obs::AppendJsonNumber(static_cast<double>(job.queue_wait_ms), &out);
    out.append(", \"run_ms\": ");
    obs::AppendJsonNumber(static_cast<double>(job.run_ms), &out);
    if (job.resumed) out.append(", \"resumed\": true");
    out.append(", \"requeues\": ");
    obs::AppendJsonNumber(static_cast<double>(job.requeues), &out);
    out.append(", \"resubmits\": ");
    obs::AppendJsonNumber(static_cast<double>(job.resubmits), &out);
    out.append(", \"phases_ms\": {");
    bool first_phase = true;
    auto it = phase_us.find({job.trace_hi, job.trace_lo});
    if (it != phase_us.end()) {
      for (const auto& [category, us] : it->second) {
        if (!first_phase) out.append(", ");
        first_phase = false;
        obs::AppendJsonString(category, &out);
        out.append(": ");
        obs::AppendJsonNumber(static_cast<double>(us) / 1000.0, &out);
      }
    }
    out.append("}}");
  }
  out.append("]}\n");
  return out;
}

std::string MiningServer::HealthQueueMember(
    std::vector<std::string>* reasons) {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  const int64_t oldest_queued_age_ms = OldestQueuedAgeMsLocked();
  const double max_queue_wait_ms =
      std::max(queue_wait_hist_ == nullptr ? 0.0 : queue_wait_hist_->max(),
               static_cast<double>(oldest_queued_age_ms));
  // A job parked in the queue for minutes while executors exist means
  // admission has outrun execution — degrade so the balancer drains us.
  if (options_.max_running > 0 && oldest_queued_age_ms > 5 * 60 * 1000) {
    reasons->push_back("queue_stalled");
  }
  std::string out = "\"queue\": {\"depth\": ";
  obs::AppendJsonNumber(static_cast<double>(queue_->size()), &out);
  out.append(", \"oldest_queued_age_ms\": ");
  obs::AppendJsonNumber(static_cast<double>(oldest_queued_age_ms), &out);
  out.append(", \"max_queue_wait_ms\": ");
  obs::AppendJsonNumber(max_queue_wait_ms, &out);
  out.append("}");
  return out;
}

}  // namespace serve
}  // namespace nmine
