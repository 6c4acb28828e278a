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
#include <chrono>
#include <cstdio>
#include <limits>
#include <thread>

#include "nmine/obs/logger.h"
#include "nmine/serve/server.h"
#include "tools/tool_flags.h"

namespace nmine {
namespace {

int Main(int argc, char** argv) {
  tools::Flags flags("nmine_server", argc, argv, 1);
  std::string state_dir = flags.Get("state-dir", "");
  if (state_dir.empty()) {
    std::fprintf(stderr, "nmine_server: --state-dir is required\n");
    return 1;
  }
  if (!tools::SetLogLevel(flags, "info") || !tools::SelectSimd(flags)) {
    return 1;
  }

  constexpr long long kMax = std::numeric_limits<long long>::max();
  serve::MiningServer::Options options;
  options.port = flags.GetPort("port");
  options.state_dir = state_dir;
  options.queue_capacity = flags.GetInt("queue-capacity", 64, 0, kMax);
  options.max_running = flags.GetInt("max-running", 1, 0, kMax);
  options.shed_retry_after_s = flags.GetDouble("shed-retry-after", 1.0, 0);
  options.tracing = flags.Has("trace");
  options.trace_buffer = flags.GetInt("trace-buffer", 0, 0, kMax);

  serve::MiningServer server;
  std::string error;
  if (!server.Start(options, &error)) {
    std::fprintf(stderr, "nmine_server: %s\n", error.c_str());
    return 1;
  }
  net::StatusServer statusz;
  std::optional<uint16_t> statusz_port = tools::StartStatusz(flags, &statusz);
  if (!statusz_port.has_value()) {
    server.Stop();
    return 1;
  }

  std::printf("nmine_server listening on port %u (statusz %u)\n",
              static_cast<unsigned>(server.port()),
              static_cast<unsigned>(*statusz_port));
  std::fflush(stdout);
  tools::WritePortFile(flags, server.port(), *statusz_port);

  runtime::RunControl drain;
  tools::CancelOnStopSignals(&drain);
  while (!drain.cancel_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  NMINE_LOG(kInfo, "serve").Msg("drain signal received");
  server.Drain();
  statusz.Stop();
  return 0;
}

}  // namespace
}  // namespace nmine

int main(int argc, char** argv) { return nmine::Main(argc, argv); }
