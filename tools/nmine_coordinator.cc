// nmine_coordinator: runs one mining job with Phase-3 counting farmed out
// to nmine_worker processes over a line-JSON TCP protocol (see
// src/nmine/dist/wire.h). The mined pattern set is bit-identical to the
// solo `nmine_cli mine` run at any worker count and under any kill
// schedule: shard leases reassign dead workers' work, per-shard epochs
// fence zombies, and a write-ahead journal in --state-dir lets a restarted
// coordinator resume mid-scan without recounting acknowledged work.
//
// Usage:
//   nmine_coordinator --db DB.nmsq --state-dir DIR [--port P]
//       [--port-file FILE] [--lease-ms MS] [--records-per-task N]
//       [--statusz-port P] [--log-level L] [--csv] [job flags]
//
// Job flags (tools/tool_flags.h JobSpecFromFlags, shared with
// `nmine_client submit` and `nmine_cli mine`): --algorithm --metric
// --matrix --uniform-alpha --threshold --max-span --max-gap --max-level
// --sample --delta --seed --threads --fault-plan --scan-retries
// --retry-backoff-ms --retry-budget --deadline --memory-budget
//
// Flags:
//   --state-dir DIR        dist journal + run checkpoint (required;
//                          reusing a previous run's dir resumes it — the
//                          crash-recovery path)
//   --port P               TCP port for workers and waiting clients
//                          (default 0: ephemeral, printed on stdout)
//   --port-file FILE       write "<port> <statusz_port>\n" once listening
//                          (scripts poll for this file)
//   --lease-ms MS          shard lease duration; a worker silent this long
//                          loses its shards to reassignment (default 2000)
//   --records-per-task N   records per dist shard, rounded up to the exec
//                          shard size (default 1024)
//   --statusz-port P       also serve /shardz /statusz /metricsz /tracez
//                          over HTTP on 127.0.0.1:P
//   --log-level L          trace|debug|info|warn|error|off (default info)
//   --csv                  print the result as CSV (byte-identical to
//                          `nmine_cli mine --csv` — drills diff them)
//
// Output and exit status mirror `nmine_client wait`: 0 with the result
// table on success, 1 on a usage error (a bad number included), 2 with the
// typed error on failure, 3 when the job was cancelled (SIGINT/SIGTERM
// land here) or hit its deadline. After printing the result the
// coordinator keeps answering until every worker heard from within the
// last lease was told to shut down (at most --lease-ms), so a worker that
// polls again only after the result still exits 0.
#include <cstdio>
#include <limits>
#include <string>

#include "nmine/dist/coordinator.h"
#include "tools/tool_flags.h"

namespace nmine {
namespace {

int Main(int argc, char** argv) {
  tools::Flags flags("nmine_coordinator", argc, argv, 1);
  std::string state_dir = flags.Get("state-dir", "");
  if (state_dir.empty()) {
    std::fprintf(stderr, "nmine_coordinator: --state-dir is required\n");
    return 1;
  }
  if (flags.Get("db", "").empty()) {
    std::fprintf(stderr, "nmine_coordinator: --db is required\n");
    return 1;
  }
  if (!tools::SetLogLevel(flags, "info")) return 1;

  constexpr long long kMax = std::numeric_limits<long long>::max();
  dist::Coordinator::Options options;
  options.port = flags.GetPort("port");
  options.state_dir = state_dir;
  options.spec = tools::JobSpecFromFlags(flags);
  options.lease_ms = flags.GetInt("lease-ms", 2000, 1, kMax);
  options.records_per_task = flags.GetInt("records-per-task", 1024, 1, kMax);

  dist::Coordinator coordinator;
  std::string error;
  if (!coordinator.Start(options, &error)) {
    std::fprintf(stderr, "nmine_coordinator: %s\n", error.c_str());
    return 1;
  }
  net::StatusServer statusz;
  std::optional<uint16_t> statusz_port = tools::StartStatusz(flags, &statusz);
  if (!statusz_port.has_value()) {
    coordinator.Stop();
    return 1;
  }

  // stderr, not stdout: stdout is reserved for the result table so
  // `nmine_coordinator --csv > out.csv` byte-diffs against the solo CLI.
  std::fprintf(stderr, "nmine_coordinator listening on port %u (statusz %u)\n",
               static_cast<unsigned>(coordinator.port()),
               static_cast<unsigned>(*statusz_port));
  tools::WritePortFile(flags, coordinator.port(), *statusz_port);
  tools::CancelOnStopSignals(coordinator.run_control());

  serve::JobResult result = coordinator.Run();
  int code = tools::ReportJobResult(flags, result, "");
  // The result is out before the coordinator waits for its workers.
  std::fflush(stdout);
  coordinator.DrainWorkers();
  coordinator.Stop();
  statusz.Stop();
  return code;
}

}  // namespace
}  // namespace nmine

int main(int argc, char** argv) { return nmine::Main(argc, argv); }
