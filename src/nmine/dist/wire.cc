#include "nmine/dist/wire.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "nmine/obs/json_util.h"

namespace nmine {
namespace dist {
namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

/// Parses a JSON array of arrays of hex-encoded doubles into `out`.
bool ParsePartials(const obs::JsonValue& value,
                   std::vector<std::vector<double>>* out) {
  if (!value.is_array()) return false;
  out->clear();
  out->reserve(value.array.size());
  for (const obs::JsonValue& shard : value.array) {
    if (!shard.is_array()) return false;
    std::vector<double> partial;
    partial.reserve(shard.array.size());
    for (const obs::JsonValue& entry : shard.array) {
      double d = 0.0;
      if (!entry.is_string() || !DecodeDoubleBits(entry.string_value, &d)) {
        return false;
      }
      partial.push_back(d);
    }
    out->push_back(std::move(partial));
  }
  return true;
}

/// Member `name` of `object` through ReadWholeNumber; an absent member
/// reads as `fallback`.
bool GetWholeNumber(const obs::JsonValue& object, const char* name,
                    uint64_t fallback, uint64_t* out) {
  const obs::JsonValue* v = object.Get(name);
  if (v == nullptr) {
    *out = fallback;
    return true;
  }
  return ReadWholeNumber(*v, out);
}

/// Whether `value` carries exactly kProtocolVersion in its "v".
bool SpeaksOurVersion(const obs::JsonValue& value) {
  const obs::JsonValue* v = value.Get("v");
  uint64_t version = 0;
  return v != nullptr && ReadWholeNumber(*v, &version) &&
         version == static_cast<uint64_t>(kProtocolVersion);
}

void AppendPartials(const std::vector<std::vector<double>>& partials,
                    std::string* out) {
  out->append("[");
  for (size_t i = 0; i < partials.size(); ++i) {
    if (i > 0) out->append(", ");
    out->append("[");
    for (size_t j = 0; j < partials[i].size(); ++j) {
      if (j > 0) out->append(", ");
      out->append("\"");
      out->append(EncodeDoubleBits(partials[i][j]));
      out->append("\"");
    }
    out->append("]");
  }
  out->append("]");
}

}  // namespace

bool ReadWholeNumber(const obs::JsonValue& value, uint64_t* out) {
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53
  if (!value.is_number()) return false;
  const double d = value.number_value;
  if (!(d >= 0.0 && d <= kMaxExact) || d != std::floor(d)) return false;
  *out = static_cast<uint64_t>(d);
  return true;
}

std::string EncodeDoubleBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kHexDigits[bits & 0xf];
    bits >>= 4;
  }
  return out;
}

bool DecodeDoubleBits(const std::string& text, double* value) {
  if (text.size() != 16) return false;
  uint64_t bits = 0;
  for (char ch : text) {
    uint64_t nibble;
    if (ch >= '0' && ch <= '9') {
      nibble = static_cast<uint64_t>(ch - '0');
    } else if (ch >= 'a' && ch <= 'f') {
      nibble = static_cast<uint64_t>(ch - 'a' + 10);
    } else {
      return false;
    }
    bits = (bits << 4) | nibble;
  }
  std::memcpy(value, &bits, sizeof(*value));
  return true;
}

void AppendPatternsJson(const std::vector<Pattern>& patterns,
                        std::string* out) {
  out->append("[");
  for (size_t i = 0; i < patterns.size(); ++i) {
    if (i > 0) out->append(", ");
    out->append("[");
    const Pattern& p = patterns[i];
    for (size_t j = 0; j < p.length(); ++j) {
      if (j > 0) out->append(", ");
      out->append(std::to_string(static_cast<long long>(p[j])));
    }
    out->append("]");
  }
  out->append("]");
}

bool ParsePatternsJson(const obs::JsonValue& value,
                       std::vector<Pattern>* patterns) {
  if (!value.is_array()) return false;
  patterns->clear();
  patterns->reserve(value.array.size());
  for (const obs::JsonValue& entry : value.array) {
    if (!entry.is_array()) return false;
    std::vector<SymbolId> body;
    body.reserve(entry.array.size());
    for (const obs::JsonValue& sym : entry.array) {
      // A symbol id, or -1 for the eternal symbol.
      if (!sym.is_number()) return false;
      const double d = sym.number_value;
      if (!(d >= -1.0 && d <= INT32_MAX) || d != std::floor(d)) return false;
      body.push_back(static_cast<SymbolId>(d));
    }
    if (!Pattern::IsValidBody(body)) return false;
    patterns->emplace_back(std::move(body));
  }
  return true;
}

std::optional<DistRequest> ParseDistRequest(const std::string& line,
                                            std::string* error,
                                            std::string* error_code) {
  if (error_code != nullptr) *error_code = "INVALID_ARGUMENT";
  std::optional<obs::JsonValue> value = obs::ParseJson(line);
  if (!value.has_value() || !value->is_object()) {
    if (error != nullptr) *error = "request must be one JSON object per line";
    return std::nullopt;
  }
  DistRequest request;
  const obs::JsonValue* op = value->Get("op");
  if (op == nullptr || !op->is_string()) {
    if (error != nullptr) *error = "request needs a string \"op\"";
    return std::nullopt;
  }
  request.op = op->string_value;

  const bool is_worker_op = request.op == "hello" || request.op == "poll" ||
                            request.op == "progress";
  if (!is_worker_op && request.op != "ping" && request.op != "wait") {
    if (error != nullptr) *error = "unknown op '" + request.op + "'";
    return std::nullopt;
  }

  if (is_worker_op) {
    // Worker frames REQUIRE the version: a mis-versioned worker must not
    // get to count anything.
    if (!SpeaksOurVersion(*value)) {
      if (error != nullptr) {
        *error = "unsupported protocol version (coordinator speaks v" +
                 std::to_string(kProtocolVersion) + ")";
      }
      if (error_code != nullptr) *error_code = "FAILED_PRECONDITION";
      return std::nullopt;
    }
    const obs::JsonValue* worker = value->Get("worker");
    if (worker == nullptr || !worker->is_string() ||
        worker->string_value.empty()) {
      if (error != nullptr) {
        *error = request.op + " needs a non-empty \"worker\"";
      }
      return std::nullopt;
    }
    request.worker = worker->string_value;
  }

  if (request.op == "progress") {
    const obs::JsonValue* v;
    for (auto [name, field] : {std::pair{"scan", &request.scan},
                               std::pair{"shard", &request.shard},
                               std::pair{"epoch", &request.epoch}}) {
      if ((v = value->Get(name)) == nullptr || !ReadWholeNumber(*v, field)) {
        if (error != nullptr) {
          *error = std::string("progress needs a whole-number \"") + name +
                   "\"";
        }
        return std::nullopt;
      }
    }
    if (!GetWholeNumber(*value, "done", 0, &request.done)) {
      if (error != nullptr) *error = "progress \"done\" is not a whole number";
      return std::nullopt;
    }
    if ((v = value->Get("complete")) != nullptr) {
      request.complete = v->bool_value;
    }
    if ((v = value->Get("partials")) == nullptr ||
        !ParsePartials(*v, &request.partials)) {
      if (error != nullptr) {
        *error = "progress needs \"partials\" (arrays of 16-hex doubles)";
      }
      return std::nullopt;
    }
    if (request.partials.size() != request.done) {
      if (error != nullptr) {
        *error = "progress \"done\" disagrees with the partial count";
      }
      return std::nullopt;
    }
  }
  return request;
}

std::string HelloResponse(const HelloInfo& info) {
  std::string out = "{\"ok\": true, \"v\": ";
  out.append(std::to_string(kProtocolVersion));
  out.append(", \"db\": ");
  obs::AppendJsonString(info.db_path, &out);
  out.append(", \"matrix\": ");
  obs::AppendJsonString(info.matrix_path, &out);
  out.append(", \"uniform_alpha\": ");
  obs::AppendJsonNumber(info.uniform_alpha, &out);
  out.append(", \"metric\": ");
  obs::AppendJsonString(info.metric, &out);
  out.append(", \"m\": ");
  obs::AppendJsonNumber(static_cast<double>(info.num_symbols), &out);
  out.append(", \"n\": ");
  obs::AppendJsonNumber(static_cast<double>(info.num_sequences), &out);
  out.append(", \"file_bytes\": ");
  obs::AppendJsonNumber(static_cast<double>(info.file_bytes), &out);
  out.append(", \"exec_shard_size\": ");
  obs::AppendJsonNumber(static_cast<double>(info.exec_shard_size), &out);
  out.append(", \"lease_ms\": ");
  obs::AppendJsonNumber(static_cast<double>(info.lease_ms), &out);
  out.append("}\n");
  return out;
}

std::optional<HelloInfo> ParseHelloResponse(const obs::JsonValue& value) {
  if (!value.is_object() || !SpeaksOurVersion(value)) return std::nullopt;
  const obs::JsonValue* v;
  HelloInfo info;
  if ((v = value.Get("db")) == nullptr || !v->is_string() ||
      v->string_value.empty()) {
    return std::nullopt;
  }
  info.db_path = v->string_value;
  if ((v = value.Get("matrix")) != nullptr && v->is_string()) {
    info.matrix_path = v->string_value;
  }
  info.uniform_alpha = value.GetNumber("uniform_alpha", -1.0);
  if ((v = value.Get("metric")) == nullptr || !v->is_string()) {
    return std::nullopt;
  }
  info.metric = v->string_value;
  uint64_t lease_ms = 0;
  if (!GetWholeNumber(value, "m", 0, &info.num_symbols) ||
      !GetWholeNumber(value, "n", 0, &info.num_sequences) ||
      !GetWholeNumber(value, "exec_shard_size", 0, &info.exec_shard_size) ||
      !GetWholeNumber(value, "lease_ms", 0, &lease_ms)) {
    return std::nullopt;
  }
  info.lease_ms = static_cast<int64_t>(lease_ms);
  // The worker checks its file against this size, so it is required.
  if ((v = value.Get("file_bytes")) == nullptr ||
      !ReadWholeNumber(*v, &info.file_bytes)) {
    return std::nullopt;
  }
  if (info.exec_shard_size == 0) return std::nullopt;
  return info;
}

std::string TaskResponse(const TaskAssignment& task) {
  std::string out = "{\"ok\": true, \"task\": {\"scan\": ";
  obs::AppendJsonNumber(static_cast<double>(task.scan), &out);
  out.append(", \"shard\": ");
  obs::AppendJsonNumber(static_cast<double>(task.shard), &out);
  out.append(", \"epoch\": ");
  obs::AppendJsonNumber(static_cast<double>(task.epoch), &out);
  out.append(", \"begin\": ");
  obs::AppendJsonNumber(static_cast<double>(task.begin_record), &out);
  out.append(", \"end\": ");
  obs::AppendJsonNumber(static_cast<double>(task.end_record), &out);
  out.append(", \"resume_done\": ");
  obs::AppendJsonNumber(static_cast<double>(task.resume_done), &out);
  out.append(", \"resume_partials\": ");
  AppendPartials(task.resume_partials, &out);
  out.append(", \"offsets\": [");
  for (size_t i = 0; i < task.offsets.size(); ++i) {
    if (i > 0) out.append(", ");
    obs::AppendJsonNumber(static_cast<double>(task.offsets[i]), &out);
  }
  out.append("]");
  out.append(", \"patterns\": ");
  AppendPatternsJson(task.patterns, &out);
  out.append("}}\n");
  return out;
}

std::string IdleResponse(int64_t idle_ms) {
  std::string out = "{\"ok\": true, \"idle_ms\": ";
  obs::AppendJsonNumber(static_cast<double>(idle_ms), &out);
  out.append("}\n");
  return out;
}

std::string ShutdownResponse() {
  return "{\"ok\": true, \"shutdown\": true}\n";
}

std::optional<PollReply> ParsePollReply(const obs::JsonValue& value) {
  if (!value.is_object()) return std::nullopt;
  PollReply reply;
  const obs::JsonValue* v;
  if ((v = value.Get("shutdown")) != nullptr && v->bool_value) {
    reply.shutdown = true;
    return reply;
  }
  const obs::JsonValue* task = value.Get("task");
  if (task == nullptr) {
    uint64_t idle_ms = 0;
    if (!GetWholeNumber(value, "idle_ms", 0, &idle_ms)) return std::nullopt;
    reply.idle_ms = static_cast<int64_t>(idle_ms);
    return reply;
  }
  if (!task->is_object()) return std::nullopt;
  TaskAssignment assignment;
  if (!GetWholeNumber(*task, "scan", 0, &assignment.scan) ||
      !GetWholeNumber(*task, "shard", 0, &assignment.shard) ||
      !GetWholeNumber(*task, "epoch", 0, &assignment.epoch) ||
      !GetWholeNumber(*task, "begin", 0, &assignment.begin_record) ||
      !GetWholeNumber(*task, "end", 0, &assignment.end_record) ||
      !GetWholeNumber(*task, "resume_done", 0, &assignment.resume_done)) {
    return std::nullopt;
  }
  // Absent offsets parse as none, which the worker refuses; present ones
  // must strictly increase (every record takes at least two bytes).
  if ((v = task->Get("offsets")) != nullptr) {
    if (!v->is_array()) return std::nullopt;
    for (const obs::JsonValue& entry : v->array) {
      uint64_t offset = 0;
      if (!ReadWholeNumber(entry, &offset) ||
          (!assignment.offsets.empty() &&
           offset <= assignment.offsets.back())) {
        return std::nullopt;
      }
      assignment.offsets.push_back(offset);
    }
  }
  if ((v = task->Get("resume_partials")) == nullptr ||
      !ParsePartials(*v, &assignment.resume_partials)) {
    return std::nullopt;
  }
  if (assignment.resume_partials.size() != assignment.resume_done) {
    return std::nullopt;
  }
  if ((v = task->Get("patterns")) == nullptr ||
      !ParsePatternsJson(*v, &assignment.patterns)) {
    return std::nullopt;
  }
  if (assignment.end_record <= assignment.begin_record ||
      assignment.patterns.empty()) {
    return std::nullopt;
  }
  reply.task = std::move(assignment);
  return reply;
}

}  // namespace dist
}  // namespace nmine
