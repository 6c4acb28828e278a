#include "bench.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "nmine/core/match_kernel.h"
#include "nmine/db/format.h"
#include "nmine/gen/matrix_generator.h"
#include "nmine/gen/noise_model.h"
#include "nmine/gen/sequence_generator.h"
#include "nmine/obs/json_util.h"
#include "nmine/stats/random.h"

namespace perfbench {

using nmine::Status;

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuS() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

namespace {

/// Value of a "Key: number" line of a /proc file, or 0.
uint64_t ProcField(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      return std::strtoull(line.c_str() + key.size(), nullptr, 10);
    }
  }
  return 0;
}

std::string FormatNumber(double value) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

thread_local int tl_open_span = -1;

// The generator's alphabet and noise level; the matrix matches them.
constexpr size_t kAlphabet = 20;
constexpr double kAlpha = 0.1;

}  // namespace

double PeakRssMb() {
  return static_cast<double>(ProcField("/proc/self/status", "VmHWM:")) /
         1024.0;
}

uint64_t CharsRead() { return ProcField("/proc/self/io", "rchar:"); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// ---- Metric definitions ----------------------------------------------------

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"}, {"mine_cpu_s", "s"},   {"scans", "count"},
      {"read_mb", "MB"}, {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"db.open_s", "s"},
      {"db.decode_s", "s"},
      {"db.bytes_read", "bytes"},
      {"db.range_decode_amplification", "x"},
      {"db.scan_retries", "count"},
      {"mining.untraced_mine_s", "s"},
      {"mining.traced_mine_s", "s"},
      {"mining.phase1_s", "s"},
      {"mining.phase2_s", "s"},
      {"mining.phase3_s", "s"},
      {"mining.unattributed_s", "s"},
      {"mining.phase2_candidates", "count"},
      {"mining.phase3_probes", "count"},
      {"mining.phase2_ambiguous_frac", "ratio"},
      {"lattice.candidate_gen_s", "s"},
      {"lattice.trie_ns_per_record_pattern", "ns"},
      {"core.kernel_ns_per_window", "ns"},
      {"exec.count_speedup_t4", "x"},
      {"serve.submit_ack_ms", "ms"},
      {"serve.queue_wait_ms", "ms"},
      {"serve.run_ms", "ms"},
      {"serve.run_job_floor_ms", "ms"},
      {"serve.journal_append_ms", "ms"},
      {"serve.job_p50_ms", "ms"},
      {"serve.job_p90_ms", "ms"},
      {"serve.jobs_per_s", "1/s"},
      {"serve.shed", "count"},
      {"runtime.checkpoint_write_ms", "ms"},
      {"dist.worker_count_s", "s"},
      {"dist.journal_bytes", "bytes"},
      {"dist.journal_append_ms", "ms"},
      {"dist.wire_double_ns", "ns"},
      {"dist.progress_frames", "count"},
      {"dist.reassigns", "count"},
      {"dist.fenced", "count"},
      {"obs.trace_overhead_frac", "ratio"},
  };
  return defs;
}

// ---- Report ----------------------------------------------------------------

Report::Report(bool traced) : traced_(traced) {
  for (const MetricDef& def : traced ? PerLayerMetrics() : EndToEndMetrics()) {
    entries_.push_back({def.name, def.unit});
  }
}

void Report::Set(const std::string& name, double value, size_t samples) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.samples = samples;
      e.set = true;
      return;
    }
  }
  // A metric of the other kind (end-to-end vs per-layer) is not part of
  // this run's result.
}

void Report::Mismatch(const std::string& what) {
  if (correct_) {
    std::printf("perfbench: output check FAILED: %s\n", what.c_str());
  }
  correct_ = false;
}

void Report::Note(const std::string& key, const std::string& json_value) {
  notes_.emplace_back(key, json_value);
}

bool Report::Print() const {
  bool complete = true;
  std::string notes = "{";
  for (size_t i = 0; i < notes_.size(); ++i) {
    if (i > 0) notes.append(", ");
    nmine::obs::AppendJsonString(notes_[i].first, &notes);
    notes.append(": ");
    notes.append(notes_[i].second);
  }
  notes.append("}");
  std::printf("perfbench: env %s\n", notes.c_str());
  std::string metrics = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (!e.set && !traced_) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   e.name.c_str());
      complete = false;
    }
    std::printf("perfbench: %-36s %14s %-6s n=%zu%s\n", e.name.c_str(),
                FormatNumber(e.value).c_str(), e.unit.c_str(), e.samples,
                e.set ? "" : "  (layer not driven by this workload)");
    if (i > 0) metrics.append(", ");
    nmine::obs::AppendJsonString(e.name, &metrics);
    metrics.append(": {\"value\": ");
    metrics.append(FormatNumber(e.value));
    metrics.append(", \"unit\": ");
    nmine::obs::AppendJsonString(e.unit, &metrics);
    metrics.append("}");
  }
  metrics.append("}");
  if (!complete) return false;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct_ ? "true" : "false",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_), metrics.c_str());
  std::fflush(stdout);
  return true;
}

// ---- Spans -----------------------------------------------------------------

int SpanLog::Begin(const char* name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Record r;
  r.name = name;
  r.start_s = NowS();
  r.parent = tl_open_span;
  r.tid = std::hash<std::thread::id>()(std::this_thread::get_id()) & 0xffff;
  records_.push_back(std::move(r));
  return static_cast<int>(records_.size() - 1);
}

void SpanLog::End(int id) {
  std::lock_guard<std::mutex> lock(mutex_);
  records_[static_cast<size_t>(id)].end_s = NowS();
}

double SpanLog::TotalS(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const Record& r : records_) {
    if (r.name == name && r.end_s >= r.start_s) total += r.end_s - r.start_s;
  }
  return total;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const double origin = records_.empty() ? 0.0 : records_.front().start_s;
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (i > 0) out.append(",\n");
    out.append("{\"name\": ");
    nmine::obs::AppendJsonString(r.name, &out);
    out.append(", \"ph\": \"X\", \"pid\": 1, \"tid\": ");
    out.append(std::to_string(r.tid));
    out.append(", \"ts\": ");
    out.append(FormatNumber((r.start_s - origin) * 1e6));
    out.append(", \"dur\": ");
    out.append(FormatNumber(std::max(0.0, r.end_s - r.start_s) * 1e6));
    out.append(", \"args\": {\"id\": ");
    out.append(std::to_string(i));
    out.append(", \"parent\": ");
    out.append(std::to_string(r.parent));
    out.append("}}");
  }
  out.append("]}\n");
  std::ofstream f(path, std::ios::trunc);
  f << out;
  return static_cast<bool>(f);
}

Span::Span(SpanLog* log, const char* name) : log_(log) {
  if (log_ == nullptr) return;
  id_ = log_->Begin(name);
  saved_parent_ = tl_open_span;
  tl_open_span = id_;
}

Span::~Span() {
  if (log_ == nullptr) return;
  log_->End(id_);
  tl_open_span = saved_parent_;
}

// ---- Workload inputs -------------------------------------------------------

Status WriteWorkloadDb(size_t sequences, uint64_t seed,
                       const std::string& path) {
  constexpr size_t kChunk = 8192;
  nmine::GeneratorConfig config;
  config.min_length = 50;
  config.max_length = 70;
  config.alphabet_size = kAlphabet;
  config.plant_probability = 0.55;
  // The planted motifs are part of the workload's definition, like its
  // size; the seed draws everything random around them (background,
  // plant positions, noise). Seed-drawn motifs would change how much of
  // the lattice sits near the threshold, and with it the work per run.
  config.planted = {
      nmine::Pattern({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}),
      nmine::Pattern({12, 13, 14, 15, 16, 17, 18, 19, 0, 1, 2, 3}),
  };

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::Unavailable("cannot create " + path);
  std::string buf(nmine::dbformat::kMagic, sizeof(nmine::dbformat::kMagic));
  buf.push_back(static_cast<char>(nmine::dbformat::kVersion));
  nmine::dbformat::PutVarint64(sequences, &buf);
  bool ok = true;
  for (size_t start = 0, chunk = 0; start < sequences && ok;
       start += kChunk, ++chunk) {
    config.num_sequences = std::min(kChunk, sequences - start);
    nmine::Rng rng(seed * 0x9E3779B97F4A7C15ULL + chunk + 1);
    nmine::InMemorySequenceDatabase noisy = nmine::ApplyUniformNoise(
        nmine::GenerateDatabase(config, &rng), kAlpha, kAlphabet, &rng);
    uint64_t id = start;
    for (const nmine::SequenceRecord& r : noisy.records()) {
      nmine::dbformat::PutVarint64(id++, &buf);
      nmine::dbformat::PutVarint64(r.symbols.size(), &buf);
      for (nmine::SymbolId s : r.symbols) {
        nmine::dbformat::PutVarint64(static_cast<uint64_t>(s), &buf);
      }
    }
    ok = std::fwrite(buf.data(), 1, buf.size(), f) == buf.size();
    buf.clear();
  }
  ok = std::fclose(f) == 0 && ok;
  return ok ? Status::Ok() : Status::Unavailable("short write to " + path);
}

bool SetUpDb(size_t sequences, uint64_t seed, const std::string& path,
             SpanLog* spans, DbSetup* out, std::string* error) {
  const double deadline = NowS() + 1.5;
  while (out->setup_s.size() < 3 ||
         (NowS() < deadline && out->setup_s.size() < 15)) {
    out->db.reset();
    std::filesystem::remove(path);
    Span setup_span(spans, "setup");
    const double cpu0 = ProcessCpuS();
    Status written;
    {
      Span gen_span(spans, "gen.write_db");
      written = WriteWorkloadDb(sequences, seed, path);
    }
    if (!written.ok()) {
      *error = written.ToString();
      return false;
    }
    const double t_open = NowS();
    Status open_error;
    {
      Span open_span(spans, "db.open");
      out->db = nmine::DiskSequenceDatabase::Open(path, &open_error);
    }
    const double t1 = NowS();
    if (out->db == nullptr) {
      *error = open_error.ToString();
      return false;
    }
    out->setup_s.push_back(ProcessCpuS() - cpu0);
    out->open_s.push_back(t1 - t_open);
  }
  out->file_bytes = FileBytes(path);
  return true;
}

nmine::MinerOptions BaseMinerOptions(double threshold, size_t sample,
                                     size_t threads) {
  nmine::MinerOptions options;
  options.min_threshold = threshold;
  options.space.max_span = 14;
  options.space.max_gap = 0;
  options.max_level = 14;
  options.sample_size = sample;
  options.delta = 0.01;
  options.seed = 42;
  options.num_threads = threads;
  return options;
}

nmine::CompatibilityMatrix WorkloadMatrix() {
  return nmine::UniformNoiseMatrix(kAlphabet, kAlpha);
}

nmine::serve::JobSpec BaseJobSpec(const std::string& db_path,
                                  double threshold, size_t sample,
                                  size_t threads) {
  nmine::serve::JobSpec spec;
  spec.db_path = db_path;
  spec.algorithm = "collapse";
  spec.uniform_alpha = 0.1;
  spec.threshold = threshold;
  spec.max_span = 14;
  spec.max_level = 14;
  spec.sample_size = sample;
  spec.delta = 0.01;
  spec.seed = 42;
  spec.num_threads = threads;
  return spec;
}

bool UseKernel(const std::string& which, std::string* error) {
  nmine::SimdLevel level;
  return nmine::ResolveSimdLevel(which, nmine::DetectCpuFeatures(), &level,
                                 error) &&
         nmine::SetActiveMatchKernel(level, error);
}

void RecordEnvironment(const std::string& dir, uint64_t db_bytes,
                       Report* report) {
  std::string cpu = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        size_t colon = line.find(':');
        if (colon != std::string::npos) cpu = line.substr(colon + 2);
        break;
      }
    }
  }
  // fsync latency of a 4 KiB append on the scratch file system: the cost
  // every journal write pays.
  std::vector<double> fsync_ms;
  const std::string probe = dir + "/fsync.probe";
  int fd = ::open(probe.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd >= 0) {
    std::string block(4096, 'x');
    for (int i = 0; i < 21; ++i) {
      if (::write(fd, block.data(), block.size()) !=
          static_cast<ssize_t>(block.size())) {
        break;
      }
      const double t0 = NowS();
      if (::fsync(fd) != 0) break;
      fsync_ms.push_back((NowS() - t0) * 1e3);
    }
    ::close(fd);
    std::filesystem::remove(probe);
  }
  std::string cpu_json;
  nmine::obs::AppendJsonString(cpu, &cpu_json);
  std::string kernel_json;
  nmine::obs::AppendJsonString(nmine::ActiveMatchKernelName(), &kernel_json);
  const uint64_t ram_bytes =
      ProcField("/proc/meminfo", "MemTotal:") * 1024ULL;
  report->Note("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  report->Note("cpu_model", cpu_json);
  report->Note("simd_kernel", kernel_json);
  report->Note("db_bytes", std::to_string(db_bytes));
  report->Note("ram_bytes", std::to_string(ram_bytes));
  report->Note("db_over_ram",
               FormatNumber(ram_bytes > 0 ? static_cast<double>(db_bytes) /
                                                static_cast<double>(ram_bytes)
                                          : 0.0));
  report->Note("fsync_p50_ms", FormatNumber(Median(fsync_ms)));
}

bool MakeDirs(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return std::filesystem::is_directory(dir, ec);
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

}  // namespace perfbench
