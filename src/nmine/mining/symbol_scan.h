#ifndef NMINE_MINING_SYMBOL_SCAN_H_
#define NMINE_MINING_SYMBOL_SCAN_H_

#include <cstddef>
#include <vector>

#include "nmine/core/compatibility_matrix.h"
#include "nmine/core/status.h"
#include "nmine/db/in_memory_database.h"
#include "nmine/db/sequence_database.h"
#include "nmine/exec/policy.h"
#include "nmine/stats/random.h"

namespace nmine {

/// Output of Phase 1 (Algorithm 4.1): per-symbol matches plus the random
/// sample drawn in the same pass.
struct SymbolScanResult {
  /// match[d] for every symbol d (Definition 3.7 applied to 1-patterns).
  std::vector<double> symbol_match;

  /// The in-memory sample (min(sample_size, N) sequences, uniform).
  InMemorySequenceDatabase sample;

  /// Scan outcome. On failure `symbol_match` and `sample` are empty; the
  /// caller must abort the mining run with this status.
  Status status = Status::Ok();
};

/// Smallest alphabet whose Phase-1 match fold is worth a worker pool. A
/// record's fold sweeps at least m accumulators; below this size that
/// costs less than copying the record into a ring slot and handing it to
/// a worker (measured on a 4-core x86 VM: at m = 20 four threads cost
/// 15-60% more CPU and saved no wall time; at m = 5000 they cut wall
/// time ~4x for no more CPU).
inline constexpr size_t kMinShardedFoldAlphabet = 256;

/// Largest alphabet whose Phase-1 match fold is memoized by symbol set: a
/// record's set fits one 64-bit mask.
inline constexpr size_t kMaxMemoAlphabet = 64;

/// Most symbol sets the Phase-1 memo holds (at m = 64, 2 MiB of
/// quotients). Records whose set is new once the memo is full are folded
/// directly, to the same bits.
inline constexpr size_t kSymbolSetMemoEntries = 4096;

/// Phase 1 of the probabilistic algorithm: in ONE scan of `db`, computes
/// the match of every individual symbol and draws `sample_size` sequences
/// by sequential random sampling (Vitter). Implements the distinct-symbol
/// optimization of Section 4.1 by stamp-and-sweep: a record stamps its
/// symbols, then one sweep of the alphabet folds each distinct observed
/// symbol's column into max_match, for O(N * min(l*m, l + m^2)) work.
/// Up to kMaxMemoAlphabet symbols, a record's max_match[d] / N is
/// memoized by its symbol set (at most kSymbolSetMemoEntries sets), so a
/// repeated set costs O(l + m).
///
/// When `sample_size == 0` no sample is kept (useful for computing symbol
/// matches alone).
///
/// Under a parallel exec policy the per-symbol match accumulation is
/// sharded across workers when the alphabet has at least
/// kMinShardedFoldAlphabet symbols, and runs on the scanning thread
/// otherwise; either way it keeps the same shards and ascending merge,
/// so the result is bit-identical for every thread count. The reservoir
/// sampler always runs on the scanning thread in delivery order — it
/// consumes RNG draws sequentially, so the sample is the same for every
/// thread count. Still exactly ONE scan.
SymbolScanResult ScanSymbolsAndSample(const SequenceDatabase& db,
                                      const CompatibilityMatrix& c,
                                      size_t sample_size, Rng* rng,
                                      const exec::ExecPolicy& exec = {});

/// Support-model analogue: symbol_match[d] is the fraction of sequences in
/// which d occurs at least once. Its O(l) fold always runs on the scanning
/// thread.
SymbolScanResult ScanSymbolSupports(const SequenceDatabase& db, size_t m,
                                    size_t sample_size, Rng* rng,
                                    const exec::ExecPolicy& exec = {});

}  // namespace nmine

#endif  // NMINE_MINING_SYMBOL_SCAN_H_
