#ifndef NMINE_SERVE_PROTOCOL_H_
#define NMINE_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "nmine/serve/job.h"

namespace nmine {
namespace serve {

/// Wire protocol of nmine_server: line-JSON over TCP. Each request is one
/// JSON object on one line; the server answers with exactly one JSON
/// object on one line. Requests:
///
///   {"op": "ping"}
///   {"op": "submit", "client": C, "tag": T, "spec": {JobSpec...},
///    ["trace_id": H]}                H = 32 hex digits (client-minted)
///   {"op": "status", "id": N}
///   {"op": "wait",   "id": N}        blocks until the job is terminal
///   {"op": "trace",  "id": N}        the job's per-trace Chrome JSON
///   {"op": "jobs"}                   board snapshot (same shape as /jobsz)
///
/// Responses always carry "ok": true|false. Failures are TYPED: "error" is
/// a StatusCode wire name ("RESOURCE_EXHAUSTED", "INVALID_ARGUMENT",
/// "NOT_FOUND", "UNAVAILABLE", ...) plus a human "message"; shed submits
/// additionally carry "retry_after_s" so clients back off instead of
/// hammering an overloaded server.
///
/// Tracing: a submit may carry "trace_id" — 32 lowercase/uppercase hex
/// digits naming a 128-bit id (obs::ParseTraceId). The submit ack, status,
/// and wait responses echo it back as "trace_id" so either side can
/// correlate with the server's /tracez. Unknown request members are
/// ignored (old servers simply don't attribute), keeping old and new
/// binaries wire-compatible in both directions.
///
/// Versioning: a request may carry "v", the protocol version the client
/// speaks. Absent means 1 (every frame ever sent before versioning
/// existed is a v1 frame). A version this server does not speak is a
/// typed FAILED_PRECONDITION — distinct from INVALID_ARGUMENT garbage, so
/// clients can tell "upgrade me" from "you sent junk".
inline constexpr int kProtocolVersion = 1;

/// Longest request line the server buffers; a longer one is refused with
/// INVALID_ARGUMENT and the connection closed.
inline constexpr size_t kMaxRequestLineBytes = 1u << 20;

struct Request {
  std::string op;
  int version = kProtocolVersion;
  std::string client;         // fair-scheduling + idempotency namespace
  std::string tag;            // idempotency key for submit; may be empty
  uint64_t job_id = 0;        // status / wait / trace
  bool has_job_id = false;
  std::string trace_id;       // submit only; empty = server mints one
  std::optional<JobSpec> spec;  // submit only
};

/// Parses one request line. nullopt with *error set on malformed JSON, an
/// unknown op, a submit without a valid spec, or an unsupported protocol
/// version. When `error_code` is non-null it receives the StatusCode wire
/// name to answer with: "FAILED_PRECONDITION" for a version mismatch,
/// "INVALID_ARGUMENT" for everything else.
std::optional<Request> ParseRequest(const std::string& line,
                                    std::string* error,
                                    std::string* error_code = nullptr);

/// {"ok": false, "error": CODE, "message": ..., ["retry_after_s": S]}\n
/// `code` is a StatusCode wire name. retry_after_s is emitted when >= 0.
std::string ErrorResponse(const std::string& code, const std::string& message,
                          double retry_after_s = -1.0);

/// {"ok": true}\n with optional extra members spliced in (caller provides
/// `", \"id\": 7"` style fragments — already JSON-encoded).
std::string OkResponse(const std::string& extra_members = "");

}  // namespace serve
}  // namespace nmine

#endif  // NMINE_SERVE_PROTOCOL_H_
