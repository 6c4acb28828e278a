// Microbenchmarks for the hot paths: the scalar reference match loop,
// trie-batched counting vs naive counting, the Phase-1 symbol scan, disk
// decode, and the varint codec. Each scenario runs a fixed amount of work per
// repetition, so the harness's median/MAD over reps is directly
// comparable across builds; the smoke subset is the CI perf gate.
//
// micro.sequence_match times SequenceMatch, the scalar reference of
// Definition 3.6 (the max of SegmentMatch over the windows). It does not
// depend on the active match kernel, so it has no *_simd twin; the kernel
// is exercised by micro.trie_batch_count_simd. The loop deliberately
// carries NO profiler instrumentation, so this scenario doubles as the
// guard that leaving NMINE_PROFILE_SCOPE in the library costs nothing on
// the innermost loops (the disabled-state cost of a scope is one relaxed
// atomic load, and there are none here).
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "nmine/core/match.h"
#include "nmine/core/match_kernel.h"
#include "nmine/db/disk_database.h"
#include "nmine/db/format.h"
#include "nmine/gen/matrix_generator.h"
#include "nmine/gen/sequence_generator.h"
#include "nmine/lattice/halfway.h"
#include "nmine/lattice/pattern_counter.h"
#include "nmine/mining/symbol_scan.h"

namespace nmine {
namespace {

/// Keeps `value` observable so the compiler cannot elide the computation.
template <typename T>
inline void KeepAlive(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

CompatibilityMatrix Matrix20() { return UniformNoiseMatrix(20, 0.2); }

InMemorySequenceDatabase MakeDb(size_t n, size_t len) {
  Rng rng(1);
  GeneratorConfig config;
  config.num_sequences = n;
  config.min_length = len;
  config.max_length = len;
  config.alphabet_size = 20;
  return GenerateDatabase(config, &rng);
}

std::vector<Pattern> MakePatterns(size_t count, size_t k) {
  Rng rng(2);
  std::vector<Pattern> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(RandomPattern(k, 0, 20, &rng));
  }
  return out;
}

/// Level-(k+1) style batch: right-extensions of shared frequent prefixes,
/// the shape on which the counting trie earns its keep.
std::vector<Pattern> MakeSharedPrefixPatterns(size_t count) {
  Rng rng(7);
  std::vector<Pattern> patterns;
  const size_t groups = count / 20;
  for (size_t g = 0; g < groups; ++g) {
    Pattern prefix = RandomPattern(4, 0, 20, &rng);
    for (SymbolId sym = 0; sym < 20; ++sym) {
      std::vector<SymbolId> body = prefix.body();
      body.push_back(sym);
      patterns.push_back(Pattern(std::move(body)));
    }
  }
  return patterns;
}

void RunSequenceMatch(const bench::BenchContext&) {
  static const CompatibilityMatrix c = Matrix20();
  static const Sequence seq = [] {
    Rng rng(3);
    return RandomSequence(1000, 20, &rng);
  }();
  static const Pattern p = [] {
    Rng rng(4);
    return RandomPattern(8, 0, 20, &rng);
  }();
  for (int i = 0; i < 2000; ++i) {
    double match = SequenceMatch(c, p, seq);
    KeepAlive(match);
  }
}

void RunTrieBatchCount(const bench::BenchContext&) {
  static const CompatibilityMatrix c = Matrix20();
  static const InMemorySequenceDatabase db = MakeDb(50, 100);
  static const std::vector<Pattern> patterns = MakePatterns(256, 4);
  for (int i = 0; i < 20; ++i) {
    std::vector<double> out = CountMatchesInRecords(db.records(), c,
                                                    patterns);
    KeepAlive(out);
  }
}

/// micro.trie_batch_count's batch through the per-record API
/// (BatchCountKernel::MakeRecordFn): one MakeRecordFn per pass and one
/// call per record, so each record's pieces fill the lanes on their own.
void RunTrieRecordFn(const bench::BenchContext&) {
  static const CompatibilityMatrix c = Matrix20();
  static const InMemorySequenceDatabase db = MakeDb(50, 100);
  static const std::vector<Pattern> patterns = MakePatterns(256, 4);
  static const BatchCountKernel kernel(patterns, &c);
  for (int i = 0; i < 20; ++i) {
    exec::RecordFn fn = kernel.MakeRecordFn();
    std::vector<double> partial(patterns.size(), 0.0);
    for (const SequenceRecord& r : db.records()) fn(r, &partial);
    KeepAlive(partial);
  }
}

/// A large sparse alphabet, where lanes skip a subtree only when every
/// lane is dead: m = 500, each symbol compatible with ~10% of the others,
/// 300 patterns of 4 symbols over 300 records of length 100-140.
void RunTrieBatchCountSparse(const bench::BenchContext&) {
  constexpr size_t kM = 500;
  static const CompatibilityMatrix c = [] {
    Rng rng(6);
    return SparseRandomMatrix(kM, 0.1, 0.85, &rng);
  }();
  static const InMemorySequenceDatabase db = [] {
    Rng rng(7);
    GeneratorConfig config;
    config.num_sequences = 300;
    config.min_length = 100;
    config.max_length = 140;
    config.alphabet_size = kM;
    return GenerateDatabase(config, &rng);
  }();
  static const std::vector<Pattern> patterns = [] {
    Rng rng(8);
    std::vector<Pattern> out;
    for (int i = 0; i < 300; ++i) out.push_back(RandomPattern(4, 0, kM, &rng));
    return out;
  }();
  for (int i = 0; i < 5; ++i) {
    std::vector<double> out = CountMatchesInRecords(db.records(), c,
                                                    patterns);
    KeepAlive(out);
  }
}

void RunNaiveBatchCount(const bench::BenchContext&) {
  static const CompatibilityMatrix c = Matrix20();
  static const InMemorySequenceDatabase db = MakeDb(50, 100);
  static const std::vector<Pattern> patterns = MakePatterns(256, 4);
  for (int i = 0; i < 20; ++i) {
    std::vector<double> out(patterns.size(), 0.0);
    for (size_t j = 0; j < patterns.size(); ++j) {
      for (const SequenceRecord& r : db.records()) {
        out[j] += SequenceMatch(c, patterns[j], r.symbols);
      }
    }
    KeepAlive(out);
  }
}

void RunTrieSharedPrefixes(const bench::BenchContext&) {
  static const CompatibilityMatrix c = Matrix20();
  static const InMemorySequenceDatabase db = MakeDb(50, 100);
  static const std::vector<Pattern> patterns = MakeSharedPrefixPatterns(320);
  for (int i = 0; i < 20; ++i) {
    std::vector<double> out = CountMatchesInRecords(db.records(), c,
                                                    patterns);
    KeepAlive(out);
  }
}

void RunNaiveSharedPrefixes(const bench::BenchContext&) {
  static const CompatibilityMatrix c = Matrix20();
  static const InMemorySequenceDatabase db = MakeDb(50, 100);
  static const std::vector<Pattern> patterns = MakeSharedPrefixPatterns(320);
  for (int i = 0; i < 20; ++i) {
    std::vector<double> out(patterns.size(), 0.0);
    for (size_t j = 0; j < patterns.size(); ++j) {
      for (const SequenceRecord& r : db.records()) {
        out[j] += SequenceMatch(c, patterns[j], r.symbols);
      }
    }
    KeepAlive(out);
  }
}

/// Runs `fn` under the widest kernel this build and host support, then
/// restores the harness-selected kernel. micro.trie_batch_count_simd
/// forces the vector kernel regardless of --simd, so one run always
/// produces the (baseline-kernel, vector-kernel) pair the speedup gate
/// compares; on hosts without a vector unit it degenerates to the scalar
/// scenario and the pair shows ~1x.
void RunWithWidestKernel(const bench::BenchContext& ctx,
                         void (*fn)(const bench::BenchContext&)) {
  SimdLevel previous = ActiveMatchKernel().level();
  SimdLevel widest = SimdLevel::kScalar;
  ResolveSimdLevel("auto", DetectCpuFeatures(), &widest, nullptr);
  SetActiveMatchKernel(widest, nullptr);
  fn(ctx);
  SetActiveMatchKernel(previous, nullptr);
}

void RunTrieBatchCountSimd(const bench::BenchContext& ctx) {
  RunWithWidestKernel(ctx, RunTrieBatchCount);
}

void RunSymbolScan(const bench::BenchContext&) {
  static const CompatibilityMatrix c = Matrix20();
  static const InMemorySequenceDatabase db = MakeDb(1000, 200);
  for (int i = 0; i < 5; ++i) {
    Rng rng(4);
    SymbolScanResult result = ScanSymbolsAndSample(db, c, 0, &rng);
    KeepAlive(result);
  }
}

/// Phase 1 at Fig. 15's largest alphabet: m = 5000 with a sparse matrix
/// (each symbol compatible with ~10% of the others), 300 records of
/// length 100-140. Every column takes the nonzero-list fold, sharded
/// across --threads workers.
void RunSymbolScanSparse(const bench::BenchContext& ctx) {
  constexpr size_t kM = 5000;
  static const CompatibilityMatrix c = [] {
    Rng rng(6);
    return SparseRandomMatrix(kM, 0.1, 0.85, &rng);
  }();
  static const InMemorySequenceDatabase db = [] {
    Rng rng(7);
    GeneratorConfig config;
    config.num_sequences = 300;
    config.min_length = 100;
    config.max_length = 140;
    config.alphabet_size = kM;
    return GenerateDatabase(config, &rng);
  }();
  Rng rng(4);
  exec::ExecPolicy exec;
  exec.num_threads = ctx.threads;
  SymbolScanResult result = ScanSymbolsAndSample(db, c, 0, &rng, exec);
  KeepAlive(result);
}

/// A generated 20K-record file (alphabet 20, length 60), written and
/// opened once per process and removed at exit.
const DiskSequenceDatabase& DecodeDb() {
  struct File {
    std::string path =
        (std::filesystem::temp_directory_path() /
         ("nmine_bench_decode_" + std::to_string(::getpid()) + ".nmsq"))
            .string();
    std::unique_ptr<DiskSequenceDatabase> db;
    File() {
      Status error = Status::Internal("cannot write " + path);
      if (dbformat::WriteDatabaseFile(path, MakeDb(20000, 60).records()).ok) {
        db = DiskSequenceDatabase::Open(path, &error);
      }
      if (db == nullptr) {
        std::fprintf(stderr, "micro.disk_scan_decode: %s\n",
                     error.ToString().c_str());
        std::exit(1);
      }
    }
    ~File() { std::remove(path.c_str()); }
  };
  static const File file;
  return *file.db;
}

/// Decode alone: full scans of a disk-resident file with a no-op visitor.
void RunDiskScanDecode(const bench::BenchContext&) {
  const DiskSequenceDatabase& db = DecodeDb();
  for (int i = 0; i < 5; ++i) {
    Status status = db.Scan([](const SequenceRecord& r) { KeepAlive(r); });
    KeepAlive(status);
  }
}

void RunVarintRoundTrip(const bench::BenchContext&) {
  static const std::vector<uint64_t> values = [] {
    std::vector<uint64_t> out;
    Rng rng(5);
    for (int i = 0; i < 1024; ++i) {
      out.push_back(rng.UniformInt(1u << 20));
    }
    return out;
  }();
  for (int i = 0; i < 2000; ++i) {
    std::string buf;
    for (uint64_t v : values) {
      dbformat::PutVarint64(v, &buf);
    }
    const char* pos = buf.data();
    const char* end = buf.data() + buf.size();
    uint64_t out = 0;
    uint64_t sum = 0;
    while (pos < end && dbformat::GetVarint64(&pos, end, &out)) {
      sum += out;
    }
    KeepAlive(sum);
  }
}

void RunHalfwayGeneration(const bench::BenchContext&) {
  static const Pattern p2 = [] {
    Rng rng(6);
    return RandomPattern(10, 0, 20, &rng);
  }();
  static const Pattern p1({p2[0]});
  for (int i = 0; i < 2000; ++i) {
    std::vector<Pattern> halfway =
        HalfwayPatterns(p1, p2, /*contiguous=*/false, 4096);
    KeepAlive(halfway);
  }
}

}  // namespace
}  // namespace nmine

int main(int argc, char** argv) {
  using nmine::bench::RegisterScenario;
  RegisterScenario("micro.sequence_match", nmine::RunSequenceMatch,
                   {.smoke = true});
  RegisterScenario("micro.trie_batch_count", nmine::RunTrieBatchCount,
                   {.smoke = true});
  RegisterScenario("micro.trie_batch_count_simd",
                   nmine::RunTrieBatchCountSimd, {.smoke = true});
  RegisterScenario("micro.trie_record_fn", nmine::RunTrieRecordFn);
  RegisterScenario("micro.trie_batch_count_sparse",
                   nmine::RunTrieBatchCountSparse);
  RegisterScenario("micro.naive_batch_count", nmine::RunNaiveBatchCount);
  RegisterScenario("micro.trie_shared_prefixes",
                   nmine::RunTrieSharedPrefixes);
  RegisterScenario("micro.naive_shared_prefixes",
                   nmine::RunNaiveSharedPrefixes);
  RegisterScenario("micro.symbol_scan", nmine::RunSymbolScan,
                   {.smoke = true});
  RegisterScenario("micro.symbol_scan_sparse", nmine::RunSymbolScanSparse);
  RegisterScenario("micro.disk_scan_decode", nmine::RunDiskScanDecode,
                   {.smoke = true});
  RegisterScenario("micro.varint_roundtrip", nmine::RunVarintRoundTrip,
                   {.smoke = true});
  RegisterScenario("micro.halfway_generation", nmine::RunHalfwayGeneration,
                   {.smoke = true});
  return nmine::bench::BenchMain(argc, argv, {.reps = 5, .warmup = 1});
}
