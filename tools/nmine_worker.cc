// nmine_worker: one counting worker for nmine_coordinator. Connects,
// mirrors the coordinator's counting environment (database path, noise
// matrix, metric — all named in the hello response), then polls for shard
// tasks and streams back one bit-exact partial vector per exec shard.
// Workers are expendable: SIGKILL one mid-scan and the coordinator leases
// its shards to a surviving worker, which resumes from the last
// acknowledged exec shard. Restarted workers just reconnect and poll.
//
// Usage:
//   nmine_worker --port P [--host H] [--name N] [--throttle-ms MS]
//       [--timeout-s S] [--log-level L]
//
// Flags:
//   --port P          coordinator port (required)
//   --host H          coordinator host (default 127.0.0.1)
//   --name N          worker identity for leases and /shardz attribution
//                     (default worker-<pid>)
//   --throttle-ms MS  sleep after every exec shard — drills use it to hold
//                     scans open long enough to kill processes mid-task
//   --timeout-s S     give up after this long without a successful
//                     (re)connect (default 30)
//   --log-level L     trace|debug|info|warn|error|off (default info)
//
// Exit status: 0 the coordinator finished its job and said shutdown (or a
// stop signal landed); 1 usage error (a bad number included), fatal
// mismatch (wrong database), or coordinator unreachable past --timeout-s.
#include <unistd.h>

#include <cstdio>
#include <string>

#include "nmine/dist/worker.h"
#include "tools/tool_flags.h"

namespace nmine {
namespace {

int Main(int argc, char** argv) {
  tools::Flags flags("nmine_worker", argc, argv, 1);
  if (!flags.Has("port")) {
    std::fprintf(stderr, "nmine_worker: --port is required\n");
    return 1;
  }
  if (!tools::SetLogLevel(flags, "info")) return 1;

  runtime::RunControl run;
  tools::CancelOnStopSignals(&run);

  dist::DistWorker::Options options;
  options.host = flags.Get("host", "127.0.0.1");
  options.port = flags.GetPort("port");
  options.name = flags.Get("name", "");
  if (options.name.empty()) {
    options.name = "worker-" + std::to_string(::getpid());
  }
  options.throttle_ms = flags.GetInt("throttle-ms", 0, 0);
  options.connect_timeout_s = flags.GetDouble("timeout-s", 30.0, 0);
  options.run = &run;

  dist::DistWorker worker;
  Status status = worker.Run(options);
  if (status.ok() || status.code() == StatusCode::kCancelled) {
    std::printf("nmine_worker: done (%lld tasks)\n",
                static_cast<long long>(worker.tasks_completed()));
    return 0;
  }
  std::fprintf(stderr, "nmine_worker: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace
}  // namespace nmine

int main(int argc, char** argv) { return nmine::Main(argc, argv); }
