// Per-layer measurements of the traced run. Each function times calls into
// one layer's public functions from the benchmark side and writes the
// layer's metrics into the report.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "nmine/core/compatibility_matrix.h"
#include "nmine/core/pattern.h"
#include "nmine/db/disk_database.h"
#include "nmine/mining/miner_options.h"

namespace perfbench {

/// Phase-3 counting routed through MinerOptions::phase3_count_override
/// (or RunJobHooks::phase3_count): the same TryCountMatches call the miner
/// makes, on a second handle of the same file so the miner's scan charge
/// is unchanged, inside a "mining.phase3.count" span.
class Phase3Tap {
 public:
  Phase3Tap(const std::string& db_path, const nmine::CompatibilityMatrix* c,
            size_t threads, SpanLog* spans);
  bool ok() const { return db_ != nullptr; }
  nmine::Status Count(const std::vector<nmine::Pattern>& probe,
                      std::vector<double>* values);
  /// The override, ready to assign into MinerOptions.
  std::function<nmine::Status(const std::vector<nmine::Pattern>&,
                              std::vector<double>*)>
  Hook();
  /// Patterns counted so far, and the first probe batch seen.
  size_t probes() const { return probes_; }
  const std::vector<nmine::Pattern>& first_probe() const {
    return first_probe_;
  }

 private:
  std::unique_ptr<nmine::DiskSequenceDatabase> db_;
  const nmine::CompatibilityMatrix* c_;
  size_t threads_;
  SpanLog* spans_;
  size_t probes_ = 0;
  std::vector<nmine::Pattern> first_probe_;
};

/// Alternates untraced and traced runs of one unit (at least `min_pairs`
/// pairs, more while `budget_s` lasts, alternating which goes first) and
/// reports obs.trace_overhead_frac.
struct UnitTimes {
  double untraced_s = 0.0;  // median wall time, untraced
  double traced_s = 0.0;    // median wall time, traced
  size_t pairs = 0;
};
UnitTimes MeasureTraceOverhead(int min_pairs, double budget_s,
                            const std::function<double()>& untraced,
                            const std::function<double()>& traced,
                            Report* report);

/// Replays Phase 1 (ScanSymbolsAndSample) and Phase 2
/// (ClassifySamplePatterns) with `options` on `db` (repeated while
/// `budget_s` lasts, medians reported), then measures the
/// lattice and core layers on that sample and exec scaling on the
/// dominant counting call (the phase-3 probe over `db` when `phase3_s`
/// exceeds Phase 2, else the largest sample level). Writes the mining
/// ledger; `traced_mine_s` (set by the caller) is its total.
void MeasureMiningLayers(const nmine::DiskSequenceDatabase& db,
                         const nmine::CompatibilityMatrix& c,
                         const nmine::MinerOptions& options,
                         const std::vector<nmine::Pattern>& probe,
                         size_t probes, double phase3_s, double traced_mine_s,
                         double budget_s, SpanLog* spans, Report* report);

/// db.decode_s (one full Scan, no-op visitor; median of three) and
/// db.open_s. Returns db.decode_s.
double MeasureDbLayer(const nmine::DiskSequenceDatabase& db,
                      const std::vector<double>& open_s, SpanLog* spans,
                      Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
