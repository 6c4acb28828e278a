#include "nmine/dist/coordinator.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <limits>
#include <optional>
#include <utility>

#include "nmine/db/disk_database.h"
#include "nmine/exec/policy.h"
#include "nmine/exec/sharded_reduce.h"
#include "nmine/lattice/pattern_counter.h"
#include "nmine/net/status_server.h"
#include "nmine/obs/clock.h"
#include "nmine/obs/json_util.h"
#include "nmine/obs/logger.h"
#include "nmine/obs/metrics.h"
#include "nmine/obs/trace.h"
#include "nmine/serve/protocol.h"

namespace nmine {
namespace dist {
namespace {

/// Owner name of a shard the coordinator counts itself. No worker may use
/// it: a poll re-grants the shards its worker name owns.
constexpr char kLocalOwner[] = "coordinator";

int64_t NowSteadyUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// Task frames carry the byte offset of every exec-shard boundary, read
// from Open's sparse index, so each boundary must be an indexed record.
static_assert(exec::kDefaultShardSize % DiskSequenceDatabase::kIndexStride ==
                  0,
              "exec shard boundaries must fall on indexed records");

Coordinator::Coordinator() = default;

Coordinator::~Coordinator() {
  Stop();
  // env_ is released only here, not in Stop(): a Run() still unwinding
  // from the cancel may be counting a shard locally against it until its
  // caller joins it.
}

bool Coordinator::Start(const Options& options, std::string* error) {
  if (running_.load(std::memory_order_acquire)) {
    if (error != nullptr) *error = "coordinator already running";
    return false;
  }
  if (options.state_dir.empty()) {
    if (error != nullptr) *error = "coordinator needs a state_dir";
    return false;
  }
  options_ = options;
  stopping_.store(false, std::memory_order_release);

  journal_ = DistJournal::Open(options_.state_dir, &replay_, error);
  if (journal_ == nullptr) return false;
  epochs_ = replay_.epochs;
  adopt_pending_ = replay_.has_scan;
  next_scan_ = replay_.has_scan ? replay_.scan : 0;

  // The job's inputs, opened once for the whole run: NumSequences fixes
  // the shard geometry and the final division, the max symbol the matrix
  // dimension every party must agree on, and the offset index the byte
  // ranges task frames carry.
  Status open_error;
  env_ = serve::OpenJobInputs(options_.spec, &open_error);
  if (env_ == nullptr) {
    if (error != nullptr) *error = open_error.ToString();
    return false;
  }
  num_sequences_ = env_->db->NumSequences();
  num_symbols_ = static_cast<uint64_t>(env_->db->max_symbol() + 1);

  exec_shard_size_ = exec::kDefaultShardSize;
  records_per_shard_ = options_.records_per_task;
  if (records_per_shard_ == 0) records_per_shard_ = exec_shard_size_;
  // Dist boundaries must land on the serial reducer's shard grid or the
  // float grouping (and thus the mined set) would depend on the worker
  // count.
  records_per_shard_ =
      ((records_per_shard_ + exec_shard_size_ - 1) / exec_shard_size_) *
      exec_shard_size_;

  obs::TraceContext minted = obs::MintTraceContext();
  trace_hi_ = minted.trace_hi;
  trace_lo_ = minted.trace_lo;

  run_control_.Reset();
  result_ready_ = false;
  result_ = serve::JobResult();

  // Workers and clients may connect from here on: everything their
  // handlers read is set above.
  net::LineServer::Options transport;
  transport.bind_address = options_.bind_address;
  transport.port = options_.port;
  transport.max_line_bytes = kMaxFrameBytes;
  transport.oversized_reply =
      serve::ErrorResponse("INVALID_ARGUMENT", "request line exceeds 8 MiB");
  auto handle_line = [this](const std::string& line) {
    std::string parse_error;
    std::string parse_error_code;
    std::optional<DistRequest> request =
        ParseDistRequest(line, &parse_error, &parse_error_code);
    return request.has_value()
               ? HandleRequest(*request)
               : serve::ErrorResponse(parse_error_code, parse_error);
  };
  if (!transport_.Start(transport, handle_line, error)) return false;

  running_.store(true, std::memory_order_release);

  shardz_ = net::StatusServer::RegisterEndpoint(
      "/shardz", [this] { return ShardzJson(); });

  NMINE_LOG(kInfo, "dist")
      .Msg("coordinator listening")
      .Str("address", options_.bind_address)
      .Num("port", static_cast<int64_t>(port()))
      .Str("state_dir", options_.state_dir)
      .Num("records_per_shard", static_cast<int64_t>(records_per_shard_))
      .Num("replayed_epochs", static_cast<int64_t>(epochs_.size()))
      .Num("inflight_scan", adopt_pending_ ? 1 : 0);
  return true;
}

serve::JobResult Coordinator::Run() {
  const std::string checkpoint_path =
      (std::filesystem::path(options_.state_dir) / "run.ckpt").string();
  serve::RunJobHooks hooks;
  if (options_.spec.algorithm == "collapse") {
    hooks.phase3_count = [this](Metric metric,
                                const std::vector<Pattern>& probe,
                                std::vector<double>* values) {
      return CountBatch(metric, probe, values);
    };
  }
  serve::JobResult result = serve::MineJob(options_.spec, *env_,
                                           checkpoint_path, &run_control_,
                                           hooks);
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    result_ = result;
    result_ready_ = true;
    result_cv_.notify_all();
    scan_cv_.notify_all();
  }
  NMINE_LOG(kInfo, "dist")
      .Msg("coordinator run finished")
      .Str("outcome", result.ok ? "ok" : result.error_code)
      .Num("scans", result.scans)
      .Num("resumed", result.resumed_from_checkpoint ? 1 : 0);
  return result;
}

void Coordinator::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  run_control_.RequestCancel();
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    scan_cv_.notify_all();
    result_cv_.notify_all();
  }
  net::StatusServer::Unregister(shardz_);
  transport_.Stop();
  NMINE_LOG(kInfo, "dist").Msg("coordinator stopped");
}

std::string Coordinator::HandleRequest(const DistRequest& request) {
  if (request.op == "ping") return serve::OkResponse();
  if (request.op != "wait" && request.worker == kLocalOwner) {
    return serve::ErrorResponse(
        "INVALID_ARGUMENT",
        std::string("worker name '") + kLocalOwner + "' is reserved");
  }
  if (request.op == "hello") return HandleHello(request);
  if (request.op == "poll") return HandlePoll(request);
  if (request.op == "progress") return HandleProgress(request);
  if (request.op == "wait") return HandleWait();
  return serve::ErrorResponse("INVALID_ARGUMENT",
                              "unknown op '" + request.op + "'");
}

std::string Coordinator::HandleHello(const DistRequest& request) {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    workers_[request.worker] = NowSteadyUs();
    obs::MetricsRegistry::Global()
        .GetGauge("dist.workers")
        .Set(static_cast<double>(workers_.size()));
  }
  HelloInfo info;
  info.db_path = options_.spec.db_path;
  info.matrix_path = options_.spec.matrix_path;
  info.uniform_alpha = options_.spec.uniform_alpha;
  info.metric = options_.spec.metric;
  info.num_symbols = num_symbols_;
  info.num_sequences = num_sequences_;
  info.file_bytes = env_->db->file_bytes();
  info.exec_shard_size = exec_shard_size_;
  info.lease_ms = options_.lease_ms;
  NMINE_LOG(kInfo, "dist")
      .Msg("worker hello")
      .Str("worker", request.worker);
  return HelloResponse(info);
}

std::string Coordinator::HandlePoll(const DistRequest& request) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  const int64_t now = NowSteadyUs();
  workers_[request.worker] = now;
  if (result_ready_) return ShutdownResponse();
  if (!scan_active_) {
    return IdleResponse(options_.poll_idle_ms);
  }
  SweepLeasesLocked(now);
  for (auto& [id, shard] : shards_) {
    if (shard.progress.complete) continue;
    // Grant pending shards — and shards this worker itself still owns: a
    // worker only polls when it holds no task, so its own lease here means
    // its previous task instance died with the connection. Re-granting
    // bumps the epoch, fencing any frame the dead instance left in flight.
    if (!shard.owner.empty() && shard.owner != request.worker) continue;
    const bool regrant = !shard.owner.empty() || shard.reassigns > 0;
    const uint64_t epoch = epochs_[id] + 1;
    // Journal BEFORE the response: the worker must never hold an epoch a
    // restarted coordinator could re-issue.
    Status js = journal_->AppendEpoch(id, epoch);
    if (!js.ok()) {
      return serve::ErrorResponse("UNAVAILABLE",
                                  "cannot journal grant: " + js.message());
    }
    epochs_[id] = epoch;
    shard.owner = request.worker;
    shard.granted_us = now;
    shard.lease_deadline_us = now + options_.lease_ms * 1000;
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    if (regrant) {
      if (shard.progress.done > 0) {
        reg.GetCounter("dist.shards.resumed").Increment();
      } else {
        reg.GetCounter("dist.shards.restarted").Increment();
      }
    }
    EmitDistSpan(regrant ? "dist.regrant" : "dist.grant", id, epoch,
                 request.worker);

    TaskAssignment task;
    task.scan = scan_id_;
    task.shard = id;
    task.epoch = epoch;
    task.begin_record = shard.begin_record;
    task.end_record = shard.end_record;
    task.resume_done = shard.progress.done;
    task.resume_partials = shard.progress.partials;
    // Where each remaining exec shard starts, and where the last one ends:
    // the worker seeks by these instead of pre-scanning the file.
    for (uint64_t k = shard.progress.done;; ++k) {
      const uint64_t record =
          std::min(shard.begin_record + k * exec_shard_size_, shard.end_record);
      task.offsets.push_back(env_->db->RecordOffset(record));
      if (record == shard.end_record) break;
    }
    task.patterns = scan_patterns_;
    return TaskResponse(task);
  }
  return IdleResponse(options_.poll_idle_ms);
}

std::string Coordinator::HandleProgress(const DistRequest& request) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  const int64_t now = NowSteadyUs();
  workers_[request.worker] = now;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  if (!scan_active_ || request.scan != scan_id_) {
    reg.GetCounter("dist.results.fenced").Increment();
    return serve::ErrorResponse(
        "FAILED_PRECONDITION",
        "scan " + std::to_string(request.scan) + " is not in flight");
  }
  auto it = shards_.find(request.shard);
  if (it == shards_.end()) {
    return serve::ErrorResponse(
        "INVALID_ARGUMENT", "no shard " + std::to_string(request.shard));
  }
  ShardState& shard = it->second;
  const uint64_t current_epoch = epochs_[request.shard];
  if (request.epoch != current_epoch) {
    // The fencing path: this worker's lease lapsed and the shard moved on.
    // Its work is dropped — the current owner's cumulative partials are
    // the only ones that can land, so nothing is ever double-counted.
    reg.GetCounter("dist.results.fenced").Increment();
    EmitDistSpan("dist.fence", request.shard, request.epoch, request.worker);
    NMINE_LOG(kWarn, "dist")
        .Msg("fenced stale-epoch progress")
        .Str("worker", request.worker)
        .Num("shard", static_cast<int64_t>(request.shard))
        .Num("epoch", static_cast<int64_t>(request.epoch))
        .Num("current_epoch", static_cast<int64_t>(current_epoch));
    return serve::ErrorResponse(
        "FAILED_PRECONDITION",
        "epoch " + std::to_string(request.epoch) + " is stale (shard " +
            std::to_string(request.shard) + " is at epoch " +
            std::to_string(current_epoch) + ")");
  }
  const uint64_t num_exec =
      (shard.end_record - shard.begin_record + exec_shard_size_ - 1) /
      exec_shard_size_;
  if (request.done > num_exec ||
      (request.complete && request.done != num_exec)) {
    return serve::ErrorResponse("INVALID_ARGUMENT",
                                "progress exceeds the shard's exec shards");
  }
  for (const std::vector<double>& partial : request.partials) {
    if (partial.size() != scan_patterns_.size()) {
      return serve::ErrorResponse("INVALID_ARGUMENT",
                                  "partial width disagrees with the batch");
    }
  }
  ShardProgress progress;
  progress.done = request.done;
  progress.complete = request.complete;
  progress.partials = request.partials;
  // Durable before acked: an un-acked resend just replaces the same
  // cumulative state, never adds to it.
  Status js = journal_->AppendShardProgress(scan_id_, request.shard, progress);
  if (!js.ok()) {
    return serve::ErrorResponse("UNAVAILABLE",
                                "cannot journal progress: " + js.message());
  }
  shard.progress = std::move(progress);
  shard.lease_deadline_us = now + options_.lease_ms * 1000;
  reg.GetCounter("dist.progress.frames").Increment();
  if (shard.progress.complete) {
    shard.owner.clear();
    scan_cv_.notify_all();
  }
  return serve::OkResponse();
}

std::string Coordinator::HandleWait() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  result_cv_.wait(lock, [this] {
    return result_ready_ || stopping_.load(std::memory_order_acquire);
  });
  if (!result_ready_) {
    return serve::ErrorResponse(
        "UNAVAILABLE",
        "coordinator stopping before the job finished; it resumes on restart");
  }
  std::string extra = ", \"id\": 1, \"state\": ";
  obs::AppendJsonString(result_.ok ? "done" : "failed", &extra);
  extra.append(", \"trace_id\": ");
  obs::AppendJsonString(obs::FormatTraceId(trace_hi_, trace_lo_), &extra);
  extra.append(", \"result\": ");
  result_.AppendJson(&extra);
  return serve::OkResponse(extra);
}

void Coordinator::SweepLeasesLocked(int64_t now_us) {
  for (auto& [id, shard] : shards_) {
    if (shard.owner.empty() || shard.progress.complete) continue;
    if (now_us < shard.lease_deadline_us) continue;
    NMINE_LOG(kWarn, "dist")
        .Msg("lease expired; shard returned to pending")
        .Str("worker", shard.owner)
        .Num("shard", static_cast<int64_t>(id))
        .Num("done", static_cast<int64_t>(shard.progress.done));
    EmitDistSpan("dist.reassign", id, epochs_[id], shard.owner);
    shard.owner.clear();
    ++shard.reassigns;
    obs::MetricsRegistry::Global()
        .GetCounter("dist.shards.reassigned")
        .Increment();
  }
}

void Coordinator::MergeLocked(std::vector<double>* values) const {
  // The serial reducer's exact grouping: per-exec-shard partials folded
  // into zeroed totals in ascending global shard order (dist shards are
  // contiguous, the map iterates ascending), then one division by N.
  const size_t num_patterns = scan_patterns_.size();
  std::vector<double> totals(num_patterns, 0.0);
  for (const auto& [id, shard] : shards_) {
    for (const std::vector<double>& partial : shard.progress.partials) {
      for (size_t i = 0; i < num_patterns; ++i) totals[i] += partial[i];
    }
  }
  const double n = static_cast<double>(num_sequences_);
  if (n > 0) {
    for (double& t : totals) t /= n;
  }
  *values = std::move(totals);
}

void Coordinator::EmitDistSpan(const char* name, uint64_t shard,
                               uint64_t epoch, const std::string& worker) {
  obs::TraceEvent e;
  e.name = name;
  e.category = "dist";
  e.ts_us = obs::SinceEpochUs();
  e.dur_us = 0;
  e.trace_hi = trace_hi_;
  e.trace_lo = trace_lo_;
  e.span_id = obs::NextSpanId();
  e.args.emplace_back("shard", std::to_string(shard));
  e.args.emplace_back("epoch", std::to_string(epoch));
  if (!worker.empty()) e.args.emplace_back("worker", worker);
  obs::Tracer::Global().AddComplete(std::move(e));
}

Status Coordinator::CountBatch(Metric metric,
                               const std::vector<Pattern>& probe,
                               std::vector<double>* values) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const uint64_t fingerprint = ScanFingerprint(ToString(metric), probe);
  obs::TraceEvent scan_span;
  scan_span.name = "dist.scan";
  scan_span.category = "dist";
  scan_span.ts_us = obs::SinceEpochUs();
  scan_span.trace_hi = trace_hi_;
  scan_span.trace_lo = trace_lo_;
  scan_span.span_id = obs::NextSpanId();

  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    scan_metric_ = metric;
    scan_patterns_ = probe;
    shards_.clear();
    for (uint64_t begin = 0, id = 0; begin < num_sequences_;
         begin += records_per_shard_, ++id) {
      ShardState shard;
      shard.begin_record = begin;
      shard.end_record = std::min(begin + records_per_shard_, num_sequences_);
      shards_[id] = std::move(shard);
    }
    if (shards_.empty()) {
      // Zero-record database: nothing to distribute.
      values->assign(probe.size(), 0.0);
      return Status::Ok();
    }
    if (adopt_pending_ && replay_.fingerprint == fingerprint) {
      // The previous coordinator life died inside this very batch (same
      // metric + patterns, as the run checkpoint re-derives it
      // deterministically). Adopt its journaled shard progress instead of
      // recounting work workers already delivered.
      adopt_pending_ = false;
      scan_id_ = replay_.scan;
      size_t adopted = 0;
      for (const auto& [id, progress] : replay_.shards) {
        auto it = shards_.find(id);
        if (it == shards_.end()) continue;
        const uint64_t num_exec =
            (it->second.end_record - it->second.begin_record +
             exec_shard_size_ - 1) /
            exec_shard_size_;
        if (progress.done > num_exec) continue;
        bool sane = true;
        for (const std::vector<double>& partial : progress.partials) {
          if (partial.size() != probe.size()) sane = false;
        }
        if (!sane) continue;
        it->second.progress = progress;
        ++adopted;
      }
      reg.GetCounter("dist.scans.adopted").Increment();
      NMINE_LOG(kInfo, "dist")
          .Msg("adopted in-flight scan from journal")
          .Num("scan", static_cast<int64_t>(scan_id_))
          .Num("shards_with_progress", static_cast<int64_t>(adopted));
    } else {
      adopt_pending_ = false;  // a fresh batch supersedes the stale state
      scan_id_ = ++next_scan_;
      Status js = journal_->AppendScanBegin(scan_id_, fingerprint);
      if (!js.ok()) return js;
    }
    scan_active_ = true;
    reg.GetCounter("dist.scans").Increment();
  }

  Status status = Status::Ok();
  const int64_t scan_started_us = NowSteadyUs();
  std::unique_lock<std::mutex> lock(state_mutex_);
  while (true) {
    Status run_status = runtime::CheckRun(&run_control_);
    if (!run_status.ok()) {
      status = run_status;
      break;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      status = Status::Cancelled("coordinator stopping");
      break;
    }
    const int64_t now = NowSteadyUs();
    SweepLeasesLocked(now);

    bool all_complete = true;
    bool any_pending = false;
    for (const auto& [id, shard] : shards_) {
      if (!shard.progress.complete) {
        all_complete = false;
        if (shard.owner.empty()) any_pending = true;
      }
    }
    if (all_complete) {
      MergeLocked(values);
      // Best-effort: a lost scan_end just leaves a completed scan in the
      // journal; the next batch's fingerprint won't match it, so it is
      // superseded, never recounted.
      (void)journal_->AppendScanEnd(scan_id_);
      break;
    }

    // Liveness without workers: after a full lease period of silence — no
    // worker frame since the scan started, or every worker stale — the
    // coordinator counts a pending shard itself, through the same
    // grant/journal path, so the result is the same bytes and a crash
    // resumes identically. The grace period lets freshly launched workers
    // win the race for the first scan instead of the coordinator
    // sprinting through it alone.
    int64_t last_heard_us = scan_started_us;
    for (const auto& [name, last_seen] : workers_) {
      last_heard_us = std::max(last_heard_us, last_seen);
    }
    const bool network_silent = now - last_heard_us > options_.lease_ms * 1000;
    if (any_pending && network_silent) {
      Status local = CountShardLocallyLocked(lock);
      if (local.ok()) continue;
      if (!local.IsTransient()) {
        status = local;
        break;
      }
      // The shard is pending again, with whatever progress was journaled;
      // retry it (here or on a worker) a lease period later, as after an
      // expired lease.
      scan_cv_.wait_for(lock, std::chrono::milliseconds(options_.lease_ms));
      continue;
    }
    scan_cv_.wait_for(lock, std::chrono::milliseconds(50));
  }
  scan_active_ = false;
  lock.unlock();

  scan_span.dur_us = obs::SinceEpochUs() - scan_span.ts_us;
  scan_span.args.emplace_back("scan", std::to_string(scan_id_));
  scan_span.args.emplace_back("patterns", std::to_string(probe.size()));
  scan_span.args.emplace_back("outcome",
                              status.ok() ? "ok" : ToString(status.code()));
  obs::Tracer::Global().AddComplete(std::move(scan_span));
  return status;
}

Status Coordinator::CountShardLocallyLocked(
    std::unique_lock<std::mutex>& lock) {
  // Pick the first pending shard and grant it to ourselves — journaled
  // epoch bump like any grant, so a zombie worker racing us is fenced.
  uint64_t id = 0;
  ShardState* shard = nullptr;
  for (auto& [shard_id, state] : shards_) {
    if (!state.progress.complete && state.owner.empty()) {
      id = shard_id;
      shard = &state;
      break;
    }
  }
  if (shard == nullptr) return Status::Ok();
  const uint64_t epoch = epochs_[id] + 1;
  Status js = journal_->AppendEpoch(id, epoch);
  if (!js.ok()) return js;
  epochs_[id] = epoch;
  shard->owner = kLocalOwner;
  shard->granted_us = NowSteadyUs();
  // The count below runs on this thread with the lock released and gives
  // the shard back when it returns, so its lease cannot lapse.
  shard->lease_deadline_us = std::numeric_limits<int64_t>::max();
  if (shard->reassigns > 0 || shard->progress.done > 0) {
    obs::MetricsRegistry::Global()
        .GetCounter(shard->progress.done > 0 ? "dist.shards.resumed"
                                             : "dist.shards.restarted")
        .Increment();
  }
  EmitDistSpan("dist.local_grant", id, epoch, kLocalOwner);

  const uint64_t scan = scan_id_;
  const uint64_t begin = shard->begin_record;
  const uint64_t end = shard->end_record;
  std::vector<Pattern> patterns = scan_patterns_;
  const Metric metric = scan_metric_;
  ShardProgress progress = shard->progress;
  lock.unlock();

  serve::JobInputs* env = env_.get();
  Status status = Status::Ok();
  if (env == nullptr) {
    status = Status::Internal("coordinator environment missing");
  } else {
    const CompatibilityMatrix* c =
        metric == Metric::kMatch ? &*env->matrix : nullptr;
    BatchCountKernel kernel(patterns, c);
    exec::RecordBuffer records;
    for (uint64_t k = progress.done;; ++k) {
      const uint64_t lo = begin + k * exec_shard_size_;
      if (lo >= end) break;
      const uint64_t hi = std::min(lo + exec_shard_size_, end);
      Status run_status = runtime::CheckRun(&run_control_);
      if (!run_status.ok()) {
        status = run_status;
        break;
      }
      // Buffered and counted in one call, as a worker does.
      records.Clear();
      status = env->db->ScanRange(
          static_cast<size_t>(lo), static_cast<size_t>(hi),
          [&](const SequenceRecord& r) { records.Add(r); },
          /*restart=*/[&] { records.Clear(); });
      if (!status.ok()) break;
      std::vector<double> partial(patterns.size(), 0.0);
      kernel.CountShard(records.data(), records.size(), &partial);
      progress.partials.push_back(std::move(partial));
      progress.done = k + 1;
      progress.complete = hi >= end;
      status = journal_->AppendShardProgress(scan, id, progress);
      if (!status.ok()) break;
    }
  }

  lock.lock();
  // Only publish if the world didn't move: same scan, and the shard was
  // not re-granted out from under us (it can't be — the local lease never
  // lapses — but the check keeps the invariant local and obvious). The
  // count is over, complete or not, so the shard goes back to pending: a
  // transient failure resumes from the journaled progress.
  if (scan_active_ && scan_id_ == scan && epochs_[id] == epoch) {
    auto it = shards_.find(id);
    if (it != shards_.end()) {
      it->second.progress = std::move(progress);
      it->second.owner.clear();
    }
  }
  return status;
}

std::string Coordinator::ShardzJson() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  const int64_t now = NowSteadyUs();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  std::string out = "{\"scan_active\": ";
  out.append(scan_active_ ? "true" : "false");
  out.append(", \"scan\": ");
  obs::AppendJsonNumber(static_cast<double>(scan_id_), &out);
  out.append(", \"num_sequences\": ");
  obs::AppendJsonNumber(static_cast<double>(num_sequences_), &out);
  out.append(", \"records_per_shard\": ");
  obs::AppendJsonNumber(static_cast<double>(records_per_shard_), &out);
  out.append(", \"reassigned\": ");
  obs::AppendJsonNumber(
      static_cast<double>(reg.CounterValue("dist.shards.reassigned")), &out);
  out.append(", \"fenced\": ");
  obs::AppendJsonNumber(
      static_cast<double>(reg.CounterValue("dist.results.fenced")), &out);
  out.append(", \"resumed\": ");
  obs::AppendJsonNumber(
      static_cast<double>(reg.CounterValue("dist.shards.resumed")), &out);
  out.append(", \"restarted\": ");
  obs::AppendJsonNumber(
      static_cast<double>(reg.CounterValue("dist.shards.restarted")), &out);
  out.append(", \"workers\": {");
  bool first = true;
  for (const auto& [name, last_seen] : workers_) {
    if (!first) out.append(", ");
    first = false;
    obs::AppendJsonString(name, &out);
    out.append(": {\"last_seen_ms\": ");
    obs::AppendJsonNumber(static_cast<double>((now - last_seen) / 1000),
                          &out);
    out.append("}");
  }
  out.append("}, \"shards\": [");
  first = true;
  for (const auto& [id, shard] : shards_) {
    if (!first) out.append(", ");
    first = false;
    out.append("{\"id\": ");
    obs::AppendJsonNumber(static_cast<double>(id), &out);
    out.append(", \"begin\": ");
    obs::AppendJsonNumber(static_cast<double>(shard.begin_record), &out);
    out.append(", \"end\": ");
    obs::AppendJsonNumber(static_cast<double>(shard.end_record), &out);
    out.append(", \"epoch\": ");
    auto epoch_it = epochs_.find(id);
    obs::AppendJsonNumber(
        static_cast<double>(epoch_it == epochs_.end() ? 0 : epoch_it->second),
        &out);
    out.append(", \"owner\": ");
    obs::AppendJsonString(shard.owner, &out);
    out.append(", \"lease_age_ms\": ");
    obs::AppendJsonNumber(
        shard.owner.empty()
            ? -1.0
            : static_cast<double>((now - shard.granted_us) / 1000),
        &out);
    out.append(", \"reassigns\": ");
    obs::AppendJsonNumber(static_cast<double>(shard.reassigns), &out);
    out.append(", \"done\": ");
    obs::AppendJsonNumber(static_cast<double>(shard.progress.done), &out);
    out.append(", \"complete\": ");
    out.append(shard.progress.complete ? "true" : "false");
    out.append("}");
  }
  out.append("]}\n");
  return out;
}

}  // namespace dist
}  // namespace nmine
