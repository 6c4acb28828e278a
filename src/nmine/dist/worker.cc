#include "nmine/dist/worker.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "nmine/core/compatibility_matrix.h"
#include "nmine/core/matrix_io.h"
#include "nmine/core/metric.h"
#include "nmine/db/disk_database.h"
#include "nmine/dist/wire.h"
#include "nmine/gen/matrix_generator.h"
#include "nmine/exec/sharded_reduce.h"
#include "nmine/lattice/pattern_counter.h"
#include "nmine/net/transport.h"
#include "nmine/obs/json_parse.h"
#include "nmine/obs/json_util.h"
#include "nmine/obs/logger.h"
#include "nmine/obs/metrics.h"

namespace nmine {
namespace dist {
namespace {

void SleepWithStop(int64_t ms, const runtime::RunControl* run) {
  const int64_t step_ms = 20;
  int64_t remaining = ms;
  while (remaining > 0 && !runtime::StopRequested(run)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::min(step_ms, remaining)));
    remaining -= step_ms;
  }
}

}  // namespace

/// Everything one live connection + hello establishes.
struct WorkerSession {
  int fd = -1;
  HelloInfo info;
  std::unique_ptr<DiskRangeReader> reader;
  std::optional<CompatibilityMatrix> matrix;
  Metric metric = Metric::kMatch;
  std::string buffer;

  ~WorkerSession() {
    if (fd >= 0) ::close(fd);
  }

  /// Sends one line and reads one response line. Unavailable on any
  /// socket failure or peer close (the caller reconnects); honors `run`.
  Status RoundTrip(const std::string& request, const runtime::RunControl* run,
                   obs::JsonValue* reply) {
    if (!net::SendAll(fd, request)) {
      return Status::Unavailable("send failed: " + std::string(strerror(errno)));
    }
    std::string line;
    Status read = net::ReadLine(fd, &buffer, kMaxFrameBytes,
                                [run] { return runtime::CheckRun(run); },
                                &line);
    if (!read.ok()) return read;
    std::optional<obs::JsonValue> value = obs::ParseJson(line);
    if (!value.has_value() || !value->is_object()) {
      return Status::Unavailable("malformed response line");
    }
    *reply = std::move(*value);
    return Status::Ok();
  }
};

namespace {

/// Dials the coordinator and completes the hello + environment mirror.
/// Unavailable (reconnectable) on any socket or handshake failure;
/// InvalidArgument/DataLoss (fatal) when the environment cannot be
/// reproduced (bad db path, wrong file, unreadable matrix).
Status OpenSession(const DistWorker::Options& options,
                   std::unique_ptr<WorkerSession>* out) {
  auto session = std::make_unique<WorkerSession>();
  // Dial's short receive tick lets run-control stops land promptly.
  Status dialed = net::Dial(options.host, options.port, &session->fd);
  if (!dialed.ok()) return dialed;

  std::string hello = "{\"v\": " + std::to_string(kProtocolVersion) +
                      ", \"op\": \"hello\", \"worker\": ";
  obs::AppendJsonString(options.name, &hello);
  hello.append("}\n");
  obs::JsonValue reply;
  Status rt = session->RoundTrip(hello, options.run, &reply);
  if (!rt.ok()) return rt;
  std::optional<HelloInfo> info = ParseHelloResponse(reply);
  if (!info.has_value()) {
    const obs::JsonValue* message = reply.Get("message");
    return Status::Unavailable(
        "hello rejected: " +
        (message != nullptr && message->is_string() ? message->string_value
                                                    : std::string("?")));
  }
  session->info = *info;
  session->metric =
      info->metric == "support" ? Metric::kSupport : Metric::kMatch;

  // Mirror the coordinator's counting environment exactly. The worker
  // reads no record here: it checks the header and size against the
  // coordinator's Open and seeks by the offsets each task carries.
  Status db_error;
  session->reader = DiskRangeReader::Open(
      info->db_path, info->num_sequences, info->file_bytes, DiskReadOptions(),
      &db_error);
  if (session->reader == nullptr) {
    if (db_error.code() == StatusCode::kFailedPrecondition) {
      return Status::FailedPrecondition(
          "database " + db_error.message() +
          " as the coordinator counted — different file?");
    }
    return Status::InvalidArgument("cannot open database '" + info->db_path +
                                   "': " + db_error.message());
  }
  MatrixIoResult merr;
  session->matrix = ResolveCompatibilityMatrix(
      info->matrix_path, info->uniform_alpha,
      static_cast<size_t>(info->num_symbols), &merr);
  if (!session->matrix.has_value()) {
    return Status::InvalidArgument(
        merr.code == MatrixIoCode::kTooSmall
            ? "matrix is smaller than the coordinator's symbol count"
            : merr.message);
  }
  *out = std::move(session);
  return Status::Ok();
}

/// Counts one granted task, reporting a cumulative progress frame per exec
/// shard. Ok when the task finished or was fenced/superseded (poll again);
/// Unavailable when the connection died (reconnect); kCancelled on stop.
Status ProcessTask(WorkerSession& session, const TaskAssignment& task,
                   const DistWorker::Options& options) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const CompatibilityMatrix* c =
      session.metric == Metric::kMatch ? &*session.matrix : nullptr;
  BatchCountKernel kernel(task.patterns, c);
  const uint64_t ess = session.info.exec_shard_size;
  const uint64_t num_exec =
      (task.end_record - task.begin_record + ess - 1) / ess;
  // One offset per remaining exec-shard boundary, the task's end included.
  if (task.resume_done > num_exec ||
      task.offsets.size() != num_exec - task.resume_done + 1) {
    return Status::InvalidArgument(
        "task for shard " + std::to_string(task.shard) + " carries " +
        std::to_string(task.offsets.size()) +
        " offsets, not one per remaining exec-shard boundary");
  }

  std::vector<std::vector<double>> partials = task.resume_partials;
  exec::RecordBuffer records;
  for (uint64_t k = task.resume_done; k < num_exec; ++k) {
    RecordSpan span;
    span.begin_record = task.begin_record + k * ess;
    span.end_record = std::min(span.begin_record + ess, task.end_record);
    span.begin_offset = task.offsets[k - task.resume_done];
    span.end_offset = task.offsets[k - task.resume_done + 1];
    Status rs = runtime::CheckRun(options.run);
    if (!rs.ok()) return rs;

    // The exec shard is buffered and counted in one call, so the kernel
    // fills all its lanes; a retried read starts the buffer over.
    records.Clear();
    Status scan_status = session.reader->Scan(
        span, [&](const SequenceRecord& r) { records.Add(r); },
        /*restart=*/[&] { records.Clear(); });
    if (!scan_status.ok()) return scan_status;
    std::vector<double> partial(task.patterns.size(), 0.0);
    kernel.CountShard(records.data(), records.size(), &partial);
    partials.push_back(std::move(partial));

    // Cumulative frame: the coordinator journals it before acking, so this
    // exec shard is durable once the ack lands — the worker's checkpoint.
    std::string frame = "{\"v\": " + std::to_string(kProtocolVersion) +
                        ", \"op\": \"progress\", \"worker\": ";
    obs::AppendJsonString(options.name, &frame);
    frame.append(", \"scan\": ");
    obs::AppendJsonNumber(static_cast<double>(task.scan), &frame);
    frame.append(", \"shard\": ");
    obs::AppendJsonNumber(static_cast<double>(task.shard), &frame);
    frame.append(", \"epoch\": ");
    obs::AppendJsonNumber(static_cast<double>(task.epoch), &frame);
    frame.append(", \"done\": ");
    obs::AppendJsonNumber(static_cast<double>(k + 1), &frame);
    frame.append(", \"complete\": ");
    frame.append(k + 1 == num_exec ? "true" : "false");
    frame.append(", \"partials\": [");
    for (size_t i = 0; i < partials.size(); ++i) {
      if (i > 0) frame.append(", ");
      frame.append("[");
      for (size_t j = 0; j < partials[i].size(); ++j) {
        if (j > 0) frame.append(", ");
        frame.append("\"");
        frame.append(EncodeDoubleBits(partials[i][j]));
        frame.append("\"");
      }
      frame.append("]");
    }
    frame.append("]}\n");

    obs::JsonValue reply;
    Status rt = session.RoundTrip(frame, options.run, &reply);
    if (!rt.ok()) return rt;
    const obs::JsonValue* ok = reply.Get("ok");
    if (ok == nullptr || ok->type != obs::JsonValue::Type::kBool) {
      return Status::Unavailable("malformed progress ack");
    }
    if (!ok->bool_value) {
      const obs::JsonValue* code = reply.Get("error");
      const std::string error_code =
          code != nullptr && code->is_string() ? code->string_value : "";
      if (error_code == "FAILED_PRECONDITION") {
        // Fenced: our lease lapsed (or the scan moved on) and another
        // worker owns this shard now. Drop the task; the next poll tells
        // us what the world looks like.
        reg.GetCounter("dist.worker.fenced").Increment();
        NMINE_LOG(kWarn, "dist")
            .Msg("task fenced by coordinator; abandoning")
            .Str("worker", options.name)
            .Num("shard", static_cast<int64_t>(task.shard))
            .Num("epoch", static_cast<int64_t>(task.epoch));
        return Status::Ok();
      }
      return Status::Unavailable("progress rejected: " + error_code);
    }
    reg.GetCounter("dist.worker.exec_shards").Increment();
    if (options.throttle_ms > 0) {
      SleepWithStop(options.throttle_ms, options.run);
    }
  }
  return Status::Ok();
}

}  // namespace

Status DistWorker::Run(const Options& options) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  net::ReconnectBackoff backoff(options.reconnect);
  auto down_since = std::chrono::steady_clock::now();
  bool was_connected = true;  // first dial gets the full timeout window

  std::unique_ptr<WorkerSession> session;
  while (true) {
    Status rs = runtime::CheckRun(options.run);
    if (!rs.ok()) return rs;

    if (session == nullptr) {
      if (was_connected) {
        down_since = std::chrono::steady_clock::now();
        was_connected = false;
      }
      Status open = OpenSession(options, &session);
      if (!open.ok()) {
        if (!open.IsTransient()) return open;  // bad environment: give up
        const double down_s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          down_since)
                .count();
        if (down_s > options.connect_timeout_s) {
          return Status::Unavailable(
              "coordinator unreachable for " +
              std::to_string(static_cast<int64_t>(down_s)) + "s: " +
              open.message());
        }
        reg.GetCounter("dist.worker.reconnects").Increment();
        SleepWithStop(static_cast<int64_t>(backoff.NextBackoffMs()),
                      options.run);
        continue;
      }
      was_connected = true;
      backoff.Reset();
      NMINE_LOG(kInfo, "dist")
          .Msg("worker connected")
          .Str("worker", options.name)
          .Num("port", static_cast<int64_t>(options.port));
    }

    std::string poll = "{\"v\": " + std::to_string(kProtocolVersion) +
                       ", \"op\": \"poll\", \"worker\": ";
    obs::AppendJsonString(options.name, &poll);
    poll.append("}\n");
    obs::JsonValue reply;
    Status rt = session->RoundTrip(poll, options.run, &reply);
    if (!rt.ok()) {
      if (!rt.IsTransient()) return rt;  // run control stop
      session.reset();
      continue;
    }
    std::optional<PollReply> parsed = ParsePollReply(reply);
    if (!parsed.has_value()) {
      session.reset();
      continue;
    }
    if (parsed->shutdown) {
      NMINE_LOG(kInfo, "dist")
          .Msg("worker shutting down on coordinator's word")
          .Str("worker", options.name)
          .Num("tasks", tasks_completed_);
      return Status::Ok();
    }
    if (!parsed->task.has_value()) {
      SleepWithStop(std::max<int64_t>(1, parsed->idle_ms), options.run);
      continue;
    }

    Status task_status = ProcessTask(*session, *parsed->task, options);
    if (task_status.ok()) {
      ++tasks_completed_;
      continue;
    }
    if (!task_status.IsTransient()) return task_status;
    session.reset();  // connection died mid-task; resume via re-grant
  }
}

}  // namespace dist
}  // namespace nmine
