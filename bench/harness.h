#ifndef NMINE_BENCH_HARNESS_H_
#define NMINE_BENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace nmine {
namespace bench {

/// Per-execution context handed to a scenario body.
struct BenchContext {
  /// 0-based index of the measured repetition (-1 during warmup).
  int rep = 0;
  /// True while the harness is warming up (the execution is not timed
  /// into the stats).
  bool warmup = false;
  /// True exactly once per scenario (the first execution, warmup or not):
  /// gate human-readable tables and printf output on this so repeated
  /// repetitions stay quiet.
  bool verbose = false;
  /// Worker threads requested via --threads (default 1; 0 = one per
  /// hardware thread). Scenarios that mine should forward this to
  /// MinerOptions::num_threads; fixed-thread scaling scenarios (e.g.
  /// bench_threads) may ignore it.
  size_t threads = 1;
};

using ScenarioFn = std::function<void(const BenchContext&)>;

struct ScenarioOptions {
  /// Part of the fast subset run by `--smoke` (the CI perf gate).
  bool smoke = false;
};

/// Registers a scenario under `name`; the harness emits one
/// BENCH_<name>.json per scenario it runs. Call before BenchMain (file
/// scope via ScenarioRegistrar, or at the top of main).
void RegisterScenario(const std::string& name, ScenarioFn fn,
                      ScenarioOptions options = {});

/// File-scope registration helper:
///   NMINE_BENCH_SCENARIO("micro.varint_roundtrip", RunVarint, {.smoke=true});
struct ScenarioRegistrar {
  ScenarioRegistrar(const char* name, ScenarioFn fn,
                    ScenarioOptions options = {}) {
    RegisterScenario(name, std::move(fn), options);
  }
};

/// Harness defaults a binary can override for its workload size (figure
/// benches run whole experiments and default to one unwarmed rep; the
/// microbenches default to warmup + several reps). Command-line flags
/// always win.
struct HarnessDefaults {
  int reps = 3;
  int warmup = 1;
};

/// Runs the registered scenarios and writes one schema-v2 BENCH JSON per
/// scenario. Flags:
///   --reps=N      measured repetitions per scenario
///   --warmup=N    untimed warmup executions per scenario
///   --threads=N   worker threads handed to scenarios via
///                 BenchContext::threads (default 1; 0 = hardware)
///   --simd=LEVEL  match kernel for M(P,s): auto|avx512|avx2|neon|scalar
///                 (default auto; the active kernel is stamped into every
///                 snapshot's fingerprint as "simd_kernel")
///   --filter=SUB  only scenarios whose name contains SUB
///   --smoke       only scenarios registered with smoke=true
///   --list        print scenario names and exit
///   --out-dir=DIR directory for BENCH_<name>.json (default: the
///                 NMINE_BENCH_OUT_DIR environment variable, else CWD)
/// Returns the process exit code.
int BenchMain(int argc, char** argv, HarnessDefaults defaults = {});

/// Robust summary of the measured repetition timings.
struct RepStats {
  std::vector<double> seconds;  // per measured rep, run order
  double median = 0.0;
  double mad = 0.0;  // median absolute deviation
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
};

RepStats ComputeRepStats(std::vector<double> seconds);

/// Machine + build identity stamped into every snapshot so two BENCH
/// files can be judged comparable before their numbers are.
struct BuildFingerprint {
  std::string git_sha;
  std::string compiler;
  std::string flags;
  std::string build_type;
  std::string cpu;  // "model name" from /proc/cpuinfo, "unknown" elsewhere
  std::string simd_kernel;   // active match kernel ("scalar", "avx2", ...)
  std::string cpu_features;  // detected vector features ("avx2", "none", ...)
};

BuildFingerprint CurrentFingerprint();

/// Peak resident set size of this process in kilobytes (getrusage), or 0
/// where unavailable.
int64_t PeakRssKb();

/// Current wall-clock time as ISO-8601 UTC ("2026-08-05T12:34:56Z").
std::string Iso8601UtcNow();

/// Renders the schema-v2 BENCH document. The top-level "seconds" field
/// keeps its v1 meaning (one representative wall-clock number — now the
/// median) so old consumers keep working; v2 adds "schema_version",
/// "stats", "peak_rss_kb", "fingerprint", and the profiler "profile"
/// snapshot next to the v1 "metrics" snapshot.
std::string BenchJsonV2(const std::string& name, const RepStats& stats);

/// Resolves the output directory: `out_dir_flag` if non-empty, else the
/// NMINE_BENCH_OUT_DIR environment variable, else "." .
std::string ResolveOutDir(const std::string& out_dir_flag);

/// Writes BenchJsonV2 to <out_dir>/BENCH_<name>.json; returns false (and
/// warns on stderr) on IO failure.
bool WriteBenchJsonV2(const std::string& name, const RepStats& stats,
                      const std::string& out_dir);

}  // namespace bench
}  // namespace nmine

#endif  // NMINE_BENCH_HARNESS_H_
