// nmine repository benchmark. One invocation runs one workload in its own
// process and prints its metrics; the last stdout line is the JSON result.
//
//   perfbench --workload disk_scan|sample_deep|serve_4clients|dist_2workers
//             --seed N --seconds S --trace 0|1 [--root DIR]
//             [--smoke] [--perturb-reference] [--force-shed]
//
// --trace 0 measures the end-to-end metrics with no spans recorded;
// --trace 1 is the separate traced run that reports per-layer metrics and
// writes its spans to <root>/.bench_build/traces/<workload>-<seed>.json.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--root DIR] [--smoke] "
               "[--perturb-reference] [--force-shed]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--perturb-reference") {
      args.perturb_reference = true;
    } else if (flag == "--force-shed") {
      args.force_shed = true;
    } else if (flag == "--workload" || flag == "--seed" ||
               flag == "--seconds" || flag == "--trace" || flag == "--root") {
      const char* v = value();
      if (v == nullptr) return Usage(("missing value for " + flag).c_str());
      if (flag == "--workload") args.workload = v;
      if (flag == "--seed") args.seed = std::strtoull(v, nullptr, 10);
      if (flag == "--seconds") args.seconds = std::atof(v);
      if (flag == "--trace") args.trace = std::strcmp(v, "0") != 0;
      if (flag == "--root") args.root = v;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const bool mining =
      args.workload == "disk_scan" || args.workload == "sample_deep";
  if (!mining && args.workload != "serve_4clients" &&
      args.workload != "dist_2workers") {
    return Usage("unknown --workload");
  }
  if (args.seconds <= 0.0) return Usage("--seconds must be > 0");

  // A wedged run must end without a result rather than hang the caller.
  alarm(170);

  const std::string build_dir = args.root + "/.bench_build";
  const std::string work_dir = build_dir + "/work/" + args.workload + "-" +
                               std::to_string(getpid());
  if (!perfbench::MakeDirs(work_dir)) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", work_dir.c_str());
    return 2;
  }
  perfbench::SpanLog span_log;
  perfbench::SpanLog* spans = args.trace ? &span_log : nullptr;
  perfbench::Report report(args.trace);
  bool ok = false;
  if (mining) {
    ok = perfbench::RunMiningWorkload(args, work_dir, spans, &report);
  } else if (args.workload == "serve_4clients") {
    ok = perfbench::RunServeWorkload(args, work_dir, spans, &report);
  } else {
    ok = perfbench::RunDistWorkload(args, work_dir, spans, &report);
  }
  perfbench::RemoveTree(work_dir);
  if (!ok) return 1;
  if (spans != nullptr) {
    const std::string trace_dir = build_dir + "/traces";
    const std::string trace_path = trace_dir + "/" + args.workload + "-" +
                                   std::to_string(args.seed) + ".json";
    if (perfbench::MakeDirs(trace_dir) &&
        spans->WriteChromeTrace(trace_path)) {
      std::printf("perfbench: spans written to %s\n", trace_path.c_str());
    }
  }
  return report.Print() ? 0 : 1;
}
