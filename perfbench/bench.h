// Shared pieces of the nmine repository benchmark: argument parsing, the
// result report, a span log written as Chrome-trace JSON, process
// measurements (CPU, peak RSS, bytes read), and the seeded workload
// generator. Every workload drives the library only through its public
// headers; the spans here are recorded around those calls, never inside
// the library.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nmine/core/compatibility_matrix.h"
#include "nmine/core/status.h"
#include "nmine/db/disk_database.h"
#include "nmine/mining/miner_options.h"
#include "nmine/serve/job.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test sizes: tiny inputs, same code paths.
  bool smoke = false;
  /// Self-test hooks: corrupt the reference / shed every serve submit, so
  /// the output check and the failure accounting can be shown to fire.
  bool perturb_reference = false;
  bool force_shed = false;
  /// Checkout root; scratch files go under <root>/.bench_build.
  std::string root = ".";
};

// ---- Clocks and process counters -----------------------------------------

/// Steady-clock seconds since an arbitrary origin.
double NowS();
/// User + system CPU seconds of the whole process (all threads).
double ProcessCpuS();
/// Peak resident set size (VmHWM) in MiB.
double PeakRssMb();
/// Bytes this process passed through read(2)-family calls on files
/// (/proc/self/io rchar). Socket recv(2) traffic is not included.
uint64_t CharsRead();
constexpr double kMiB = 1024.0 * 1024.0;

double Median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);

// ---- Report ----------------------------------------------------------------

/// The benchmark's result: end-to-end metrics (untraced run) or per-layer
/// metrics (traced run), the output-check verdict, and the environment.
/// Print() writes human-readable detail lines, then the one-line JSON
/// result as the last line of stdout.
class Report {
 public:
  explicit Report(bool traced);
  /// Sets a metric; `samples` is the number of measurements behind it.
  void Set(const std::string& name, double value, size_t samples);
  void CountAttempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// An output that differs from its reference.
  void Mismatch(const std::string& what);
  void Note(const std::string& key, const std::string& json_value);
  /// Checks every metric of this run's kind was set (unset per-layer
  /// metrics of layers the workload does not drive read 0) and prints.
  /// Returns false when an end-to-end metric is missing.
  bool Print() const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value = 0.0;
    size_t samples = 0;
    bool set = false;
  };
  bool traced_;
  std::vector<Entry> entries_;
  std::vector<std::pair<std::string, std::string>> notes_;
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Names and units of every metric, in the order BENCHMARK.json lists
/// them.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

// ---- Spans -----------------------------------------------------------------

/// In-memory span log (name, start, end, parent), written as Chrome-trace
/// JSON when the run ends. A null SpanLog* disables recording.
class SpanLog {
 public:
  int Begin(const char* name);
  void End(int id);
  /// Sum of the durations of spans called `name`, in seconds.
  double TotalS(const std::string& name) const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    double start_s = 0.0;
    double end_s = -1.0;
    int parent = -1;
    uint64_t tid = 0;
  };
  mutable std::mutex mutex_;
  std::vector<Record> records_;
};

/// RAII span; parent is the innermost open span of the same thread.
class Span {
 public:
  Span(SpanLog* log, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  int id_ = -1;
  int saved_parent_ = -1;
};

// ---- Workload inputs -------------------------------------------------------

/// Writes a synthetic noisy database of `sequences` sequences to `path`:
/// lengths 50-70 over 20 symbols, two length-12 motifs each planted with
/// probability 0.55, then the uniform noise channel with alpha 0.1.
/// Everything random is drawn from the seed. Generated in chunks, so
/// set-up memory does not grow with the database.
nmine::Status WriteWorkloadDb(size_t sequences, uint64_t seed,
                              const std::string& path);

/// Set-up, repeated at least three times and while a 1.5 s budget lasts
/// (at most 15 times): generate the file, open it (the Open pre-scan).
/// The last opened handle is kept.
struct DbSetup {
  std::unique_ptr<nmine::DiskSequenceDatabase> db;
  std::vector<double> setup_s;  // CPU seconds per set-up
  std::vector<double> open_s;   // wall seconds per Open
  uint64_t file_bytes = 0;
};
bool SetUpDb(size_t sequences, uint64_t seed, const std::string& path,
             SpanLog* spans, DbSetup* out, std::string* error);

/// Options shared by every workload: uniform alpha 0.1, span and level 14,
/// delta 0.01, contiguous patterns.
nmine::MinerOptions BaseMinerOptions(double threshold, size_t sample,
                                     size_t threads);
/// The compatibility matrix of the generator's noise channel.
nmine::CompatibilityMatrix WorkloadMatrix();
nmine::serve::JobSpec BaseJobSpec(const std::string& db_path,
                                  double threshold, size_t sample,
                                  size_t threads);

/// Selects the process-wide match kernel: "auto" or "scalar".
bool UseKernel(const std::string& which, std::string* error);

/// Records nproc, CPU model, active kernel, DB bytes vs RAM and a measured
/// fsync p50 (in `dir`) as report notes.
void RecordEnvironment(const std::string& dir, uint64_t db_bytes,
                       Report* report);

/// Creates `dir` (and parents). Returns false on failure.
bool MakeDirs(const std::string& dir);
void RemoveTree(const std::string& path);
uint64_t FileBytes(const std::string& path);

// ---- Workloads -------------------------------------------------------------

/// Each returns false on a set-up failure (no result is printed then).
bool RunMiningWorkload(const Args& args, const std::string& work_dir,
                       SpanLog* spans, Report* report);
bool RunServeWorkload(const Args& args, const std::string& work_dir,
                      SpanLog* spans, Report* report);
bool RunDistWorkload(const Args& args, const std::string& work_dir,
                     SpanLog* spans, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
