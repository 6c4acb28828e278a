#include "tools/tool_flags.h"

#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "nmine/core/match_kernel.h"
#include "nmine/eval/table.h"
#include "nmine/obs/logger.h"
#include "nmine/runtime/append_log.h"
#include "nmine/runtime/run_status.h"

namespace nmine {
namespace tools {
namespace {

std::atomic<runtime::RunControl*> g_stop_target{nullptr};

extern "C" void HandleStopSignal(int /*signum*/) {
  runtime::RunControl* run = g_stop_target.load(std::memory_order_relaxed);
  if (run != nullptr) run->RequestCancel();
}

}  // namespace

Flags::Flags(const char* tool, int argc, char** argv, int first)
    : tool_(tool) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string key = arg.substr(2);
    size_t eq = key.find('=');
    if (eq != std::string::npos) {
      values_[key.substr(0, eq)].push_back(key.substr(eq + 1));
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      values_[key].push_back(argv[++i]);
    } else {
      values_[key].push_back("");  // boolean flag
    }
  }
}

std::string Flags::Get(const std::string& key, const std::string& dflt) const {
  auto it = values_.find(key);
  return it == values_.end() ? dflt : it->second.back();
}

std::vector<std::string> Flags::GetAll(const std::string& key) const {
  auto it = values_.find(key);
  return it == values_.end() ? std::vector<std::string>{} : it->second;
}

long long Flags::GetInt(const std::string& key, long long dflt, long long min,
                        long long max) const {
  if (!Has(key)) return dflt;
  std::optional<long long> value = ParseInt(Get(key, ""), min, max);
  if (!value.has_value()) {
    Refuse(key, "a whole number in " + std::to_string(min) + ".." +
                    std::to_string(max));
  }
  return *value;
}

double Flags::GetDouble(const std::string& key, double dflt, double min,
                        double max) const {
  if (!Has(key)) return dflt;
  std::optional<double> value = ParseDouble(Get(key, ""), min, max);
  if (!value.has_value()) {
    char want[96];
    std::snprintf(want, sizeof(want), "a number in [%g, %g]", min, max);
    Refuse(key, want);
  }
  return *value;
}

uint16_t Flags::GetPort(const std::string& key) const {
  return static_cast<uint16_t>(GetInt(key, 0, 0, 65535));
}

void Flags::Refuse(const std::string& key, const std::string& want) const {
  std::fprintf(stderr, "%s: bad --%s '%s' (want %s)\n", tool_, key.c_str(),
               Get(key, "").c_str(), want.c_str());
  // No destructors: a tool may already run threads when it reads a flag.
  std::fflush(stdout);
  std::_Exit(1);
}

std::optional<long long> ParseInt(const std::string& text, long long min,
                                  long long max) {
  if (text.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0' || value < min || value > max) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> ParseDouble(const std::string& text, double min,
                                  double max) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (*end != '\0' || !std::isfinite(value) || value < min || value > max) {
    return std::nullopt;
  }
  return value;
}

serve::JobSpec JobSpecFromFlags(const Flags& flags) {
  constexpr long long kMax = std::numeric_limits<long long>::max();
  serve::JobSpec spec;
  spec.db_path = flags.Get("db", "");
  spec.algorithm = flags.Get("algorithm", spec.algorithm);
  spec.metric = flags.Get("metric", spec.metric);
  spec.matrix_path = flags.Get("matrix", spec.matrix_path);
  spec.uniform_alpha = flags.GetDouble("uniform-alpha", spec.uniform_alpha, 0);
  spec.threshold = flags.GetDouble("threshold", spec.threshold);
  spec.max_span = flags.GetInt("max-span", spec.max_span, 0, kMax);
  spec.max_gap = flags.GetInt("max-gap", spec.max_gap, 0, kMax);
  spec.max_level = flags.GetInt("max-level", spec.max_level, 0, kMax);
  spec.sample_size = flags.GetInt("sample", spec.sample_size, 0, kMax);
  spec.delta = flags.GetDouble("delta", spec.delta);
  spec.seed = flags.GetInt("seed", spec.seed, 0, kMax);
  spec.num_threads =
      flags.GetInt("threads", spec.num_threads, 0, serve::kMaxJobThreads);
  spec.fault_plan = flags.Get("fault-plan", spec.fault_plan);
  spec.scan_retries = flags.GetInt("scan-retries", spec.scan_retries, 0, kMax);
  spec.retry_backoff_ms =
      flags.GetDouble("retry-backoff-ms", spec.retry_backoff_ms, 0);
  spec.retry_budget = flags.GetInt("retry-budget", spec.retry_budget, 0, kMax);
  spec.deadline_s = flags.GetDouble("deadline", spec.deadline_s, 0);
  spec.memory_budget =
      flags.GetInt("memory-budget", spec.memory_budget, 0, kMax);
  return spec;
}

bool SetLogLevel(const Flags& flags, const char* dflt) {
  std::optional<obs::LogLevel> level =
      obs::ParseLogLevel(flags.Get("log-level", dflt));
  if (!level.has_value()) {
    std::fprintf(stderr,
                 "%s: bad --log-level '%s' (want "
                 "trace|debug|info|warn|error|off)\n",
                 flags.tool(), flags.Get("log-level", "").c_str());
    return false;
  }
  obs::Logger::Global().SetLevel(*level);
  return true;
}

bool SelectSimd(const Flags& flags) {
  // Process-wide, installed before any mining thread exists; mined
  // results are bit-identical across kernels, only speed changes.
  SimdLevel level;
  std::string error;
  if (!ResolveSimdLevel(flags.Get("simd", "auto"), DetectCpuFeatures(), &level,
                        &error) ||
      !SetActiveMatchKernel(level, &error)) {
    std::fprintf(stderr, "%s: %s\n", flags.tool(), error.c_str());
    return false;
  }
  runtime::RunStatusBoard::Global().SetSimdKernel(SimdLevelName(level));
  return true;
}

std::optional<uint16_t> StartStatusz(const Flags& flags,
                                     net::StatusServer* server) {
  if (!flags.Has("statusz-port")) return 0;
  net::StatusServer::Options options;
  options.port = flags.GetPort("statusz-port");
  std::string error;
  if (!server->Start(options, &error)) {
    std::fprintf(stderr, "%s: cannot start --statusz-port server: %s\n",
                 flags.tool(), error.c_str());
    return std::nullopt;
  }
  // Printed unconditionally so scripts can pick up an ephemeral port
  // without enabling logging.
  std::fprintf(stderr, "statusz: listening on http://127.0.0.1:%u\n",
               server->port());
  return server->port();
}

void WritePortFile(const Flags& flags, uint16_t port, uint16_t statusz_port) {
  const std::string path = flags.Get("port-file", "");
  if (path.empty()) return;
  Status s = runtime::AtomicWriteFile(
      path, std::to_string(port) + " " + std::to_string(statusz_port) + "\n");
  if (!s.ok()) {
    std::fprintf(stderr, "%s: cannot write --port-file: %s\n", flags.tool(),
                 s.ToString().c_str());
  }
}

void CancelOnStopSignals(runtime::RunControl* run) {
  g_stop_target.store(run, std::memory_order_relaxed);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
}

int ReportJobResult(const Flags& flags, const serve::JobResult& result,
                    const std::string& trace_id) {
  if (!result.ok) {
    std::fprintf(stderr, "%s: job failed: %s: %s\n", flags.tool(),
                 result.error_code.c_str(), result.message.c_str());
    if (!trace_id.empty()) {
      std::fprintf(stderr, "%s: trace_id: %s\n", flags.tool(),
                   trace_id.c_str());
    }
    return result.error_code == "CANCELLED" ||
                   result.error_code == "DEADLINE_EXCEEDED"
               ? 3
               : 2;
  }
  Table table({"pattern", "value"});
  for (const auto& [pattern, value] : result.rows) {
    table.AddRow({pattern, value});
  }
  if (flags.Has("csv")) {
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

}  // namespace tools
}  // namespace nmine
