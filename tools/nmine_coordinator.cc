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
// Job flags: same names and defaults as `nmine_client submit` /
// `nmine_cli mine`: --algorithm --metric --matrix --uniform-alpha
// --threshold --max-span --max-gap --max-level --sample --delta --seed
// --threads --fault-plan --scan-retries --retry-backoff-ms --retry-budget
// --deadline --memory-budget
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
// table on success, 2 with the typed error on failure, 3 when the job was
// cancelled (SIGINT/SIGTERM land here) or hit its deadline.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <string>

#include "nmine/dist/coordinator.h"
#include "nmine/eval/table.h"
#include "nmine/net/status_server.h"
#include "nmine/obs/logger.h"
#include "nmine/runtime/append_log.h"

namespace nmine {
namespace {

runtime::RunControl* g_run = nullptr;

void HandleStopSignal(int) {
  if (g_run != nullptr) g_run->RequestCancel();  // signal-safe by design
}

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

serve::JobSpec SpecFromFlags(const Flags& flags) {
  serve::JobSpec spec;
  spec.db_path = flags.Get("db", "");
  spec.algorithm = flags.Get("algorithm", spec.algorithm);
  spec.metric = flags.Get("metric", spec.metric);
  spec.matrix_path = flags.Get("matrix", spec.matrix_path);
  if (flags.Has("uniform-alpha")) {
    spec.uniform_alpha = flags.GetDouble("uniform-alpha", 0.1);
  }
  spec.threshold = flags.GetDouble("threshold", spec.threshold);
  spec.max_span = static_cast<uint64_t>(
      flags.GetInt("max-span", static_cast<long long>(spec.max_span)));
  spec.max_gap = static_cast<uint64_t>(
      flags.GetInt("max-gap", static_cast<long long>(spec.max_gap)));
  spec.max_level = static_cast<uint64_t>(
      flags.GetInt("max-level", static_cast<long long>(spec.max_level)));
  spec.sample_size = static_cast<uint64_t>(
      flags.GetInt("sample", static_cast<long long>(spec.sample_size)));
  spec.delta = flags.GetDouble("delta", spec.delta);
  spec.seed = static_cast<uint64_t>(
      flags.GetInt("seed", static_cast<long long>(spec.seed)));
  spec.num_threads = static_cast<uint64_t>(
      flags.GetInt("threads", static_cast<long long>(spec.num_threads)));
  spec.fault_plan = flags.Get("fault-plan", "");
  spec.scan_retries = flags.GetInt("scan-retries", spec.scan_retries);
  spec.retry_backoff_ms =
      flags.GetDouble("retry-backoff-ms", spec.retry_backoff_ms);
  spec.retry_budget = flags.GetInt("retry-budget", spec.retry_budget);
  spec.deadline_s = flags.GetDouble("deadline", spec.deadline_s);
  spec.memory_budget = static_cast<uint64_t>(flags.GetInt("memory-budget", 0));
  return spec;
}

/// Prints the terminal result exactly like `nmine_client wait` so drills
/// can byte-diff the CSVs, and maps it to the same exit codes.
int ReportResult(const serve::JobResult& result, bool csv) {
  if (!result.ok) {
    std::fprintf(stderr, "nmine_coordinator: job failed: %s: %s\n",
                 result.error_code.c_str(), result.message.c_str());
    return result.error_code == "CANCELLED" ||
                   result.error_code == "DEADLINE_EXCEEDED"
               ? 3
               : 2;
  }
  Table table({"pattern", "value"});
  for (const auto& [pattern, value] : result.rows) {
    table.AddRow({pattern, value});
  }
  if (csv) {
    table.PrintCsv(std::cout);
  } else {
    std::printf("patterns: %zu   scans: %lld%s%s\n", result.rows.size(),
                static_cast<long long>(result.scans),
                result.truncated ? "   [TRUNCATED]" : "",
                result.resumed_from_checkpoint ? "   [RESUMED]" : "");
    table.Print(std::cout);
  }
  return 0;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  std::string state_dir = flags.Get("state-dir", "");
  if (state_dir.empty()) {
    std::fprintf(stderr, "nmine_coordinator: --state-dir is required\n");
    return 1;
  }
  if (flags.Get("db", "").empty()) {
    std::fprintf(stderr, "nmine_coordinator: --db is required\n");
    return 1;
  }
  std::optional<obs::LogLevel> level =
      obs::ParseLogLevel(flags.Get("log-level", "info"));
  if (!level.has_value()) {
    std::fprintf(stderr, "nmine_coordinator: bad --log-level '%s'\n",
                 flags.Get("log-level", "").c_str());
    return 1;
  }
  obs::Logger::Global().SetLevel(*level);

  dist::Coordinator::Options options;
  options.port = static_cast<uint16_t>(flags.GetInt("port", 0));
  options.state_dir = state_dir;
  options.spec = SpecFromFlags(flags);
  options.lease_ms = std::max(1LL, flags.GetInt("lease-ms", 2000));
  options.records_per_task = static_cast<uint64_t>(
      std::max(1LL, flags.GetInt("records-per-task", 1024)));

  dist::Coordinator coordinator;
  std::string error;
  if (!coordinator.Start(options, &error)) {
    std::fprintf(stderr, "nmine_coordinator: %s\n", error.c_str());
    return 1;
  }

  net::StatusServer statusz;
  uint16_t statusz_port = 0;
  if (flags.Has("statusz-port")) {
    net::StatusServer::Options sopt;
    sopt.port = static_cast<uint16_t>(flags.GetInt("statusz-port", 0));
    if (!statusz.Start(sopt, &error)) {
      std::fprintf(stderr, "nmine_coordinator: statusz: %s\n", error.c_str());
      coordinator.Stop();
      return 1;
    }
    statusz_port = statusz.port();
  }

  // stderr, not stdout: stdout is reserved for the result table so
  // `nmine_coordinator --csv > out.csv` byte-diffs against the solo CLI.
  std::fprintf(stderr, "nmine_coordinator listening on port %u (statusz %u)\n",
               static_cast<unsigned>(coordinator.port()),
               static_cast<unsigned>(statusz_port));
  std::string port_file = flags.Get("port-file", "");
  if (!port_file.empty()) {
    // Atomic write: a polling script never reads a half-written file.
    std::string body = std::to_string(coordinator.port()) + " " +
                       std::to_string(statusz_port) + "\n";
    Status s = runtime::AtomicWriteFile(port_file, body);
    if (!s.ok()) {
      std::fprintf(stderr, "nmine_coordinator: cannot write --port-file: %s\n",
                   s.ToString().c_str());
    }
  }

  g_run = coordinator.run_control();
  std::signal(SIGTERM, HandleStopSignal);
  std::signal(SIGINT, HandleStopSignal);

  serve::JobResult result = coordinator.Run();
  int code = ReportResult(result, flags.Has("csv"));
  coordinator.Stop();
  if (statusz.running()) statusz.Stop();
  return code;
}

}  // namespace
}  // namespace nmine

int main(int argc, char** argv) { return nmine::Main(argc, argv); }
