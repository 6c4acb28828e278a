// Figure 15: scalability with respect to the number of distinct symbols m.
// Synthetic databases with sparse compatibility matrices (each symbol
// compatible with ~10% of the others, Section 5.7). Paper: the number of
// scans decreases with m (fewer qualifying patterns), while the response
// time first drops and then grows again as the m x m matrix dominates.
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "harness.h"
#include "nmine/eval/table.h"
#include "nmine/eval/timer.h"
#include "nmine/gen/matrix_generator.h"
#include "nmine/gen/noise_model.h"
#include "nmine/gen/sequence_generator.h"
#include "nmine/mining/border_collapse_miner.h"

using namespace nmine;
using namespace nmine::benchutil;

namespace {

void RunFig15(const bench::BenchContext& ctx) {
  Table fig15({"m", "scans", "response time s", "frequent patterns"});

  for (size_t m : {20u, 50u, 100u, 500u, 1000u, 2000u, 5000u}) {
    Rng rng(1500 + m);
    GeneratorConfig config;
    config.num_sequences = 300;
    config.min_length = 100;
    config.max_length = 140;
    config.alphabet_size = m;
    InMemorySequenceDatabase standard = GenerateDatabase(config, &rng);
    for (size_t k = 2; k <= 6; ++k) {
      PlantIntoDatabase(RandomPattern(k, 0, m, &rng), 0.4, &standard, &rng);
    }

    // Sparse matrix: ~10% compatibility, dominant diagonal; the matching
    // emission channel substitutes within the compatible set.
    CompatibilityMatrix c = SparseRandomMatrix(m, 0.1, 0.85, &rng);
    // Perturb the data with a simple channel: keep a symbol with p=0.85,
    // otherwise replace it with a random symbol compatible with it.
    InMemorySequenceDatabase test;
    standard.Scan([&](const SequenceRecord& r) {
      SequenceRecord noisy;
      noisy.id = r.id;
      noisy.symbols.reserve(r.symbols.size());
      for (SymbolId s : r.symbols) {
        if (rng.Bernoulli(0.85)) {
          noisy.symbols.push_back(s);
        } else {
          const auto& row = c.RowNonZeros(s);
          noisy.symbols.push_back(
              row[rng.UniformInt(row.size())].symbol);
        }
      }
      test.Add(std::move(noisy));
    });

    MinerOptions options;
    options.min_threshold = 0.25;
    options.space.max_span = 8;
    options.max_level = 8;
    options.sample_size = 100;  // modest sample: a real ambiguous region
    options.delta = 0.01;
    // A constrained counter budget makes the number of scans reflect the
    // size of the ambiguous region (the paper's Figure 15(a) effect).
    options.max_counters_per_scan = 150;
    options.seed = 5;
    options.num_threads = ctx.threads;

    BorderCollapseMiner miner(Metric::kMatch, options);
    test.ResetScanCount();
    WallTimer run;
    MiningResult r = miner.Mine(test, c);
    fig15.AddRow({Table::Int(static_cast<long long>(m)),
                  Table::Int(r.scans), Table::Num(run.Seconds(), 3),
                  Table::Int(static_cast<long long>(r.frequent.size()))});
  }
  if (ctx.verbose) {
    std::cout << "Figure 15: scans and response time vs number of distinct "
                 "symbols (sparse matrices, ~10% compatibility)\n";
    fig15.Print(std::cout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::RegisterScenario("fig15_scalability", RunFig15);
  return bench::BenchMain(argc, argv, {.reps = 1, .warmup = 0});
}
