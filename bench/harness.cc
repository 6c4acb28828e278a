#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <utility>

#include "nmine/core/match_kernel.h"
#include "nmine/obs/json_util.h"
#include "nmine/obs/metrics.h"
#include "nmine/obs/profiler.h"
#include "nmine/stats/robust.h"

namespace nmine {
namespace bench {
namespace {

struct Scenario {
  std::string name;
  ScenarioFn fn;
  ScenarioOptions options;
};

std::vector<Scenario>& Registry() {
  static std::vector<Scenario> scenarios;
  return scenarios;
}

// Build identity injected by bench/CMakeLists.txt at configure time; the
// fallbacks keep non-CMake builds (and unit tests) compiling.
#ifndef NMINE_GIT_SHA
#define NMINE_GIT_SHA "unknown"
#endif
#ifndef NMINE_BUILD_FLAGS
#define NMINE_BUILD_FLAGS "unknown"
#endif
#ifndef NMINE_BUILD_TYPE
#define NMINE_BUILD_TYPE "unknown"
#endif

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon == std::string::npos) break;
      size_t begin = line.find_first_not_of(" \t", colon + 1);
      if (begin == std::string::npos) break;
      return line.substr(begin);
    }
  }
  return "unknown";
}

void AppendField(const char* key, const std::string& value, bool last,
                 std::string* out) {
  out->append("    ");
  obs::AppendJsonString(key, out);
  out->append(": ");
  obs::AppendJsonString(value, out);
  out->append(last ? "\n" : ",\n");
}

double NowSecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--reps=N] [--warmup=N] [--threads=N]\n"
               "          [--simd=auto|avx512|avx2|neon|scalar]\n"
               "          [--filter=SUBSTRING] [--smoke] [--list]\n"
               "          [--out-dir=DIR]\n",
               argv0);
}

}  // namespace

void RegisterScenario(const std::string& name, ScenarioFn fn,
                      ScenarioOptions options) {
  Registry().push_back({name, std::move(fn), options});
}

RepStats ComputeRepStats(std::vector<double> seconds) {
  RepStats stats;
  stats.seconds = std::move(seconds);
  if (stats.seconds.empty()) return stats;
  stats.median = Median(stats.seconds);
  stats.mad = MedianAbsDeviation(stats.seconds);
  stats.min = *std::min_element(stats.seconds.begin(), stats.seconds.end());
  stats.max = *std::max_element(stats.seconds.begin(), stats.seconds.end());
  double sum = 0.0;
  for (double s : stats.seconds) sum += s;
  stats.mean = sum / static_cast<double>(stats.seconds.size());
  return stats;
}

BuildFingerprint CurrentFingerprint() {
  BuildFingerprint fp;
  fp.git_sha = NMINE_GIT_SHA;
#if defined(__clang__)
  fp.compiler = std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  fp.compiler = std::string("gcc ") + __VERSION__;
#else
  fp.compiler = "unknown";
#endif
  fp.flags = NMINE_BUILD_FLAGS;
  fp.build_type = NMINE_BUILD_TYPE;
  fp.cpu = CpuModel();
  // Kernel + feature identity: two snapshots taken with different match
  // kernels (or on hosts with different vector units) are flagged by the
  // fingerprint before their timings are compared.
  fp.simd_kernel = ActiveMatchKernelName();
  CpuFeatures features = DetectCpuFeatures();
  std::string feats;
  if (features.avx2) feats += "avx2";
  if (features.avx512) feats += feats.empty() ? "avx512" : "+avx512";
  if (features.neon) feats += feats.empty() ? "neon" : "+neon";
  fp.cpu_features = feats.empty() ? "none" : feats;
  return fp;
}

int64_t PeakRssKb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<int64_t>(usage.ru_maxrss);  // kilobytes on Linux
}

std::string Iso8601UtcNow() {
  std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buf;
}

std::string BenchJsonV2(const std::string& name, const RepStats& stats) {
  std::string out = "{\n  \"schema_version\": 2,\n  \"bench\": ";
  obs::AppendJsonString(name, &out);
  out.append(",\n  \"timestamp\": ");
  obs::AppendJsonString(Iso8601UtcNow(), &out);
  // "seconds" keeps its schema-v1 meaning: one representative wall-clock
  // number for the whole bench (now the median over reps).
  out.append(",\n  \"seconds\": ");
  obs::AppendJsonNumber(stats.median, &out);
  out.append(",\n  \"stats\": {\n    \"reps\": ");
  obs::AppendJsonNumber(static_cast<double>(stats.seconds.size()), &out);
  out.append(",\n    \"seconds\": [");
  for (size_t i = 0; i < stats.seconds.size(); ++i) {
    if (i > 0) out.append(", ");
    obs::AppendJsonNumber(stats.seconds[i], &out);
  }
  out.append("],\n    \"median\": ");
  obs::AppendJsonNumber(stats.median, &out);
  out.append(",\n    \"mad\": ");
  obs::AppendJsonNumber(stats.mad, &out);
  out.append(",\n    \"min\": ");
  obs::AppendJsonNumber(stats.min, &out);
  out.append(",\n    \"max\": ");
  obs::AppendJsonNumber(stats.max, &out);
  out.append(",\n    \"mean\": ");
  obs::AppendJsonNumber(stats.mean, &out);
  out.append("\n  },\n  \"peak_rss_kb\": ");
  obs::AppendJsonNumber(static_cast<double>(PeakRssKb()), &out);
  out.append(",\n  \"fingerprint\": {\n");
  BuildFingerprint fp = CurrentFingerprint();
  AppendField("git_sha", fp.git_sha, false, &out);
  AppendField("compiler", fp.compiler, false, &out);
  AppendField("flags", fp.flags, false, &out);
  AppendField("build_type", fp.build_type, false, &out);
  AppendField("cpu", fp.cpu, false, &out);
  AppendField("simd_kernel", fp.simd_kernel, false, &out);
  AppendField("cpu_features", fp.cpu_features, true, &out);
  out.append("  },\n  \"metrics\": ");
  out.append(obs::MetricsRegistry::Global().SnapshotJson());
  out.append(",\n  \"profile\": ");
  out.append(obs::Profiler::Global().SnapshotJson());
  out.append("}\n");
  return out;
}

std::string ResolveOutDir(const std::string& out_dir_flag) {
  if (!out_dir_flag.empty()) return out_dir_flag;
  const char* env = std::getenv("NMINE_BENCH_OUT_DIR");
  if (env != nullptr && env[0] != '\0') return env;
  return ".";
}

bool WriteBenchJsonV2(const std::string& name, const RepStats& stats,
                      const std::string& out_dir) {
  std::string path = out_dir + "/BENCH_" + name + ".json";
  std::string doc = BenchJsonV2(name, stats);
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file.is_open() || !(file << doc)) {
    std::fprintf(stderr, "WARNING: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("[bench snapshot written to %s]\n", path.c_str());
  return true;
}

int BenchMain(int argc, char** argv, HarnessDefaults defaults) {
  int reps = defaults.reps;
  int warmup = defaults.warmup;
  long long threads = 1;
  std::string simd_flag = "auto";
  std::string filter;
  std::string out_dir_flag;
  bool smoke_only = false;
  bool list_only = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string key = arg;
    std::string value;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    }
    if (key == "--reps") {
      reps = std::atoi(value.c_str());
    } else if (key == "--warmup") {
      warmup = std::atoi(value.c_str());
    } else if (key == "--threads") {
      threads = std::atoll(value.c_str());
    } else if (key == "--simd") {
      simd_flag = value;
    } else if (key == "--filter") {
      filter = value;
    } else if (key == "--out-dir") {
      out_dir_flag = value;
    } else if (key == "--smoke") {
      smoke_only = true;
    } else if (key == "--list") {
      list_only = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }
  if (reps < 1) reps = 1;
  if (warmup < 0) warmup = 0;
  if (threads < 0) threads = 1;

  // Install the process-wide match kernel before any scenario runs so the
  // fingerprint and the measured code path agree.
  SimdLevel simd_level;
  std::string simd_error;
  if (!ResolveSimdLevel(simd_flag, DetectCpuFeatures(), &simd_level,
                        &simd_error) ||
      !SetActiveMatchKernel(simd_level, &simd_error)) {
    std::fprintf(stderr, "%s\n", simd_error.c_str());
    return 2;
  }

  std::vector<const Scenario*> selected;
  for (const Scenario& s : Registry()) {
    if (smoke_only && !s.options.smoke) continue;
    if (!filter.empty() && s.name.find(filter) == std::string::npos) continue;
    selected.push_back(&s);
  }
  if (list_only) {
    for (const Scenario* s : selected) {
      std::printf("%s%s\n", s->name.c_str(),
                  s->options.smoke ? " [smoke]" : "");
    }
    return 0;
  }
  if (selected.empty()) {
    std::fprintf(stderr, "no scenario matches the filter\n");
    return 1;
  }

  const std::string out_dir = ResolveOutDir(out_dir_flag);
  obs::Profiler& profiler = obs::Profiler::Global();
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  profiler.Enable();

  bool all_written = true;
  for (const Scenario* s : selected) {
    std::printf("== %s (warmup=%d, reps=%d) ==\n", s->name.c_str(), warmup,
                reps);
    bool spoke = false;
    for (int w = 0; w < warmup; ++w) {
      BenchContext ctx;
      ctx.rep = -1;
      ctx.warmup = true;
      ctx.threads = static_cast<size_t>(threads);
      ctx.verbose = !spoke;
      spoke = true;
      s->fn(ctx);
    }
    // Measured reps start from a clean slate so the emitted metrics and
    // profile snapshots cover exactly the timed work.
    metrics.Reset();
    profiler.Reset();
    std::vector<double> seconds;
    seconds.reserve(static_cast<size_t>(reps));
    for (int r = 0; r < reps; ++r) {
      BenchContext ctx;
      ctx.rep = r;
      ctx.threads = static_cast<size_t>(threads);
      ctx.verbose = !spoke;
      spoke = true;
      auto start = std::chrono::steady_clock::now();
      s->fn(ctx);
      seconds.push_back(NowSecondsSince(start));
      std::printf("  rep %d: %.4f s\n", r, seconds.back());
    }
    RepStats stats = ComputeRepStats(std::move(seconds));
    std::printf("  median %.4f s  (mad %.4f, min %.4f, max %.4f)\n",
                stats.median, stats.mad, stats.min, stats.max);
    all_written = WriteBenchJsonV2(s->name, stats, out_dir) && all_written;
    // Isolate the next scenario's snapshot.
    metrics.Reset();
    profiler.Reset();
  }
  return all_written ? 0 : 1;
}

}  // namespace bench
}  // namespace nmine
