#ifndef NMINE_DIST_WIRE_H_
#define NMINE_DIST_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "nmine/core/pattern.h"
#include "nmine/obs/json_parse.h"

namespace nmine {
namespace dist {

/// Wire protocol between nmine_coordinator and its workers: versioned
/// line-JSON over TCP, the serve/protocol framing (one JSON object per
/// line in each direction; failures are typed StatusCode wire names).
/// Every worker frame carries "v"; a version the peer does not speak is a
/// typed FAILED_PRECONDITION, so old and new binaries fail loudly rather
/// than mis-count.
///
/// Worker requests:
///   {"v":1, "op":"hello", "worker":W}
///   {"v":1, "op":"poll",  "worker":W}                      renews lease
///   {"v":1, "op":"progress", "worker":W, "scan":S, "shard":H,
///    "epoch":E, "done":D, "partials":[[hex64...],...],
///    "complete":false}                                     renews lease
///   (a "result" is a progress frame with "complete": true)
///
/// Client requests (nmine_client --distributed; unversioned v1 frames):
///   {"op":"ping"}
///   {"op":"wait"}          blocks until the coordinator's job is terminal
///
/// Doubles travel as 16 lowercase hex digits of their IEEE-754 bit
/// pattern: per-shard partial sums must survive the wire EXACTLY or the
/// coordinator's merged totals drift from the serial CLI's.
inline constexpr int kProtocolVersion = 1;

/// Longest frame either side buffers. Progress frames carry whole partial
/// arrays, so the cap is wider than the mining server's 1 MiB request cap
/// — but still a cap: a wedged peer cannot grow a buffer without bound.
inline constexpr size_t kMaxFrameBytes = 8u << 20;

/// Reads a JSON number that is a whole number in [0, 2^53], the range a
/// double holds exactly. False on anything else (negative, fractional,
/// too large, not a number); every count, id and offset on this wire
/// goes through it.
bool ReadWholeNumber(const obs::JsonValue& value, uint64_t* out);

/// Renders `value`'s bit pattern as 16 lowercase hex digits.
std::string EncodeDoubleBits(double value);

/// Parses EncodeDoubleBits output. False on anything else.
bool DecodeDoubleBits(const std::string& text, double* value);

/// Appends `[p0, p1, ...]` where each pattern is an int array with -1 for
/// the eternal symbol, e.g. [[0,-1,2],[1,3]].
void AppendPatternsJson(const std::vector<Pattern>& patterns,
                        std::string* out);

/// Parses AppendPatternsJson output. False on malformed bodies (empty, or
/// wildcard endpoints).
bool ParsePatternsJson(const obs::JsonValue& value,
                       std::vector<Pattern>* patterns);

/// One parsed worker-or-client request frame.
struct DistRequest {
  std::string op;       // hello | poll | progress | ping | wait
  std::string worker;   // worker ops only
  uint64_t scan = 0;    // progress
  uint64_t shard = 0;   // progress
  uint64_t epoch = 0;   // progress: the epoch the task was granted under
  uint64_t done = 0;    // progress: exec shards finished (cumulative)
  bool complete = false;
  /// Cumulative per-exec-shard partial sums, oldest shard first
  /// (partials.size() == done).
  std::vector<std::vector<double>> partials;
};

/// Parses one request line. nullopt with *error / *error_code set
/// ("FAILED_PRECONDITION" for a version mismatch, "INVALID_ARGUMENT"
/// otherwise). Worker ops REQUIRE "v"; ping/wait are plain serve-style
/// client frames and take the default.
std::optional<DistRequest> ParseDistRequest(const std::string& line,
                                            std::string* error,
                                            std::string* error_code);

/// What a worker needs to mirror the coordinator's counting environment:
/// sent once in the hello response, fixed for the coordinator's lifetime.
struct HelloInfo {
  std::string db_path;
  std::string matrix_path;     // wins over uniform_alpha when set
  double uniform_alpha = -1.0; // < 0: identity matrix
  std::string metric;          // match | support
  uint64_t num_symbols = 0;    // matrix dimension m
  uint64_t num_sequences = 0;  // guard: worker refuses a different file
  uint64_t file_bytes = 0;     // guard, too: the size Open validated
  uint64_t exec_shard_size = 0;
  int64_t lease_ms = 0;
};

std::string HelloResponse(const HelloInfo& info);
std::optional<HelloInfo> ParseHelloResponse(const obs::JsonValue& value);

/// One granted unit of work: count `patterns` over records
/// [begin_record, end_record) of the database, one partial vector per
/// exec shard, resuming after the first `resume_done` exec shards (their
/// journaled partials ride along so the worker reports cumulatively).
/// `offsets` are the byte offsets, from the coordinator's index, of the
/// remaining exec-shard boundaries: offsets[j] is where exec shard
/// resume_done + j starts and the last entry where end_record starts. Like
/// resume_partials it is bounded by the task size, not the database. A
/// worker refuses a task whose offsets do not match its exec shards.
struct TaskAssignment {
  uint64_t scan = 0;
  uint64_t shard = 0;
  uint64_t epoch = 0;
  uint64_t begin_record = 0;
  uint64_t end_record = 0;
  uint64_t resume_done = 0;
  std::vector<std::vector<double>> resume_partials;
  std::vector<uint64_t> offsets;
  std::vector<Pattern> patterns;
};

std::string TaskResponse(const TaskAssignment& task);

/// {"ok": true, "idle_ms": N} — nothing to do right now, poll again in N.
std::string IdleResponse(int64_t idle_ms);

/// {"ok": true, "shutdown": true} — the job is finished; workers exit 0.
std::string ShutdownResponse();

/// Parsed poll response: exactly one of task / idle / shutdown.
struct PollReply {
  std::optional<TaskAssignment> task;
  int64_t idle_ms = 0;
  bool shutdown = false;
};

std::optional<PollReply> ParsePollReply(const obs::JsonValue& value);

}  // namespace dist
}  // namespace nmine

#endif  // NMINE_DIST_WIRE_H_
