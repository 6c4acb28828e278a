// nmine_server: a mining daemon. Accepts jobs over a line-JSON TCP
// protocol (one JSON object per line; see src/nmine/serve/protocol.h),
// runs each as a governed mining run on the shared thread pool, and keeps
// every admitted job durable in a write-ahead journal so a crash loses
// nothing a client was acknowledged for.
//
// Usage:
//   nmine_server --state-dir DIR [--port P] [--queue-capacity N]
//       [--max-running N] [--shed-retry-after S] [--statusz-port P]
//       [--port-file FILE] [--log-level L] [--trace] [--trace-buffer N]
//       [--simd auto|avx512|avx2|neon|scalar]
//
// Flags:
//   --state-dir DIR        job journal + per-job run checkpoints (required;
//                          reusing a previous run's dir = crash recovery:
//                          queued and interrupted jobs are re-admitted and
//                          resume from their checkpoints)
//   --port P               TCP port for the job protocol (default 0: pick
//                          an ephemeral port and print it)
//   --queue-capacity N     admission bound; beyond it submits are shed
//                          with a typed RESOURCE_EXHAUSTED (default 64)
//   --max-running N        concurrent jobs (default 1; 0 = admit-only,
//                          for tests)
//   --shed-retry-after S   retry_after_s hint on shed/drain responses
//                          (default 1)
//   --statusz-port P       also serve /healthz /statusz /metricsz /jobsz
//                          over HTTP on 127.0.0.1:P
//   --port-file FILE       write "<job_port> <statusz_port>\n" once both
//                          listeners are up (scripts poll for this file)
//   --log-level L          trace|debug|info|warn|error|off (default info)
//   --trace                per-job request tracing: bind every job to a
//                          128-bit trace id, emit lifecycle + miner spans,
//                          serve per-job Chrome trace JSON via the "trace"
//                          op and /tracez (see DESIGN.md §15)
//   --trace-buffer N       tracer ring capacity in events (default 65536);
//                          full ring drops oldest, counted by
//                          obs.trace.dropped
//   --simd LEVEL           match-kernel instruction set for all jobs
//                          (default auto = widest supported; mined results
//                          are bit-identical across levels; reported in
//                          /statusz as "simd_kernel")
//
// Lifecycle: SIGTERM or SIGINT triggers a graceful drain — stop admitting
// (submits get a typed UNAVAILABLE), cancel in-flight jobs cooperatively
// so they flush their run checkpoints, journal them back to queued, flush
// telemetry, exit 0. A SIGKILL'd server restarted on the same --state-dir
// recovers from the journal instead.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>

#include "nmine/core/match_kernel.h"
#include "nmine/net/status_server.h"
#include "nmine/obs/logger.h"
#include "nmine/runtime/append_log.h"
#include "nmine/runtime/run_status.h"
#include "nmine/serve/server.h"

namespace nmine {
namespace {

std::atomic<bool> g_drain{false};

void HandleDrainSignal(int) { g_drain.store(true, std::memory_order_relaxed); }

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        std::string key = arg.substr(2);
        size_t eq = key.find('=');
        if (eq != std::string::npos) {
          values_[key.substr(0, eq)] = key.substr(eq + 1);
        } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
          values_[key] = argv[++i];
        } else {
          values_[key] = "";
        }
      }
    }
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& dflt) const {
    auto it = values_.find(key);
    return it == values_.end() ? dflt : it->second;
  }
  long long GetInt(const std::string& key, long long dflt) const {
    auto it = values_.find(key);
    return it == values_.end() ? dflt : std::atoll(it->second.c_str());
  }
  double GetDouble(const std::string& key, double dflt) const {
    auto it = values_.find(key);
    return it == values_.end() ? dflt : std::atof(it->second.c_str());
  }

 private:
  std::map<std::string, std::string> values_;
};

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  std::string state_dir = flags.Get("state-dir", "");
  if (state_dir.empty()) {
    std::fprintf(stderr, "nmine_server: --state-dir is required\n");
    return 1;
  }
  std::optional<obs::LogLevel> level =
      obs::ParseLogLevel(flags.Get("log-level", "info"));
  if (!level.has_value()) {
    std::fprintf(stderr, "nmine_server: bad --log-level '%s'\n",
                 flags.Get("log-level", "").c_str());
    return 1;
  }
  obs::Logger::Global().SetLevel(*level);

  // Match-kernel selection for every job this server runs (process-wide;
  // results are bit-identical across kernels, only speed changes).
  SimdLevel simd_level;
  std::string simd_error;
  if (!ResolveSimdLevel(flags.Get("simd", "auto"), DetectCpuFeatures(),
                        &simd_level, &simd_error) ||
      !SetActiveMatchKernel(simd_level, &simd_error)) {
    std::fprintf(stderr, "nmine_server: %s\n", simd_error.c_str());
    return 1;
  }
  runtime::RunStatusBoard::Global().SetSimdKernel(SimdLevelName(simd_level));

  serve::MiningServer::Options options;
  options.port = static_cast<uint16_t>(flags.GetInt("port", 0));
  options.state_dir = state_dir;
  options.queue_capacity =
      static_cast<size_t>(std::max(0LL, flags.GetInt("queue-capacity", 64)));
  options.max_running =
      static_cast<size_t>(std::max(0LL, flags.GetInt("max-running", 1)));
  options.shed_retry_after_s = flags.GetDouble("shed-retry-after", 1.0);
  options.tracing = flags.Has("trace");
  options.trace_buffer =
      static_cast<size_t>(std::max(0LL, flags.GetInt("trace-buffer", 0)));

  serve::MiningServer server;
  std::string error;
  if (!server.Start(options, &error)) {
    std::fprintf(stderr, "nmine_server: %s\n", error.c_str());
    return 1;
  }

  net::StatusServer statusz;
  uint16_t statusz_port = 0;
  if (flags.Has("statusz-port")) {
    net::StatusServer::Options sopt;
    sopt.port = static_cast<uint16_t>(flags.GetInt("statusz-port", 0));
    if (!statusz.Start(sopt, &error)) {
      std::fprintf(stderr, "nmine_server: statusz: %s\n", error.c_str());
      server.Stop();
      return 1;
    }
    statusz_port = statusz.port();
  }

  std::printf("nmine_server listening on port %u (statusz %u)\n",
              static_cast<unsigned>(server.port()),
              static_cast<unsigned>(statusz_port));
  std::fflush(stdout);
  std::string port_file = flags.Get("port-file", "");
  if (!port_file.empty()) {
    // Atomic write: a polling script never reads a half-written file.
    std::string body = std::to_string(server.port()) + " " +
                       std::to_string(statusz_port) + "\n";
    Status s = runtime::AtomicWriteFile(port_file, body);
    if (!s.ok()) {
      std::fprintf(stderr, "nmine_server: cannot write --port-file: %s\n",
                   s.ToString().c_str());
    }
  }

  std::signal(SIGTERM, HandleDrainSignal);
  std::signal(SIGINT, HandleDrainSignal);
  while (!g_drain.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  NMINE_LOG(kInfo, "serve").Msg("drain signal received");
  server.Drain();
  if (statusz.running()) statusz.Stop();
  return 0;
}

}  // namespace
}  // namespace nmine

int main(int argc, char** argv) { return nmine::Main(argc, argv); }
