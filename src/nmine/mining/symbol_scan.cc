#include "nmine/mining/symbol_scan.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>

#include "nmine/db/reservoir_sampler.h"
#include "nmine/exec/sharded_reduce.h"
#include "nmine/obs/logger.h"
#include "nmine/runtime/run_control.h"
#include "nmine/obs/metrics.h"
#include "nmine/obs/profiler.h"
#include "nmine/obs/trace.h"

namespace nmine {
namespace {

/// Per-shard scratch of both folds: `stamp[d] == epoch` marks the symbols
/// of the current record (a fresh epoch per record avoids clearing), and
/// `acc` holds the match fold's column maxima.
struct StampScratch {
  explicit StampScratch(size_t m) : stamp(m, 0), acc(m, 0.0) {}
  std::vector<uint64_t> stamp;
  std::vector<double> acc;
  uint64_t epoch = 0;
};

/// The one Phase-1 scan: draws the sample on the scanning thread while a
/// sharded reducer runs `fold` over every record, restarting both (with
/// the generator rewound) when the database retries an attempt.
SymbolScanResult RunPhase1Scan(const char* name, const SequenceDatabase& db,
                               size_t m, size_t sample_size, Rng* rng,
                               const exec::ExecPolicy& exec,
                               exec::RecordFnFactory fold) {
  obs::TraceSpan span("phase1.symbol_scan", "phase1");
  NMINE_PROFILE_SCOPE("phase1.symbol_scan");
  obs::Profiler::Section* offer_section =
      obs::ResolveSection("phase1.sample.offer");
  const size_t n_seq = db.NumSequences();
  SymbolScanResult result;
  // Refuse to start (and charge) the Phase-1 scan for a stopped run.
  result.status = runtime::CheckRun(exec.run);
  if (!result.status.ok()) return result;

  // Snapshotting the generator lets a retried scan attempt redraw the
  // exact same sample, so a run that recovers from a transient fault is
  // bit-identical to a fault-free run.
  const Rng rng_snapshot = *rng;
  std::optional<SequentialSampler> sampler(std::in_place, sample_size, n_seq,
                                           rng);

  // The fold is sharded (deterministic ordered merge); the sampler is
  // NOT — it consumes RNG draws sequentially, so it stays on the scanning
  // thread and the sample is the same for every thread count.
  exec::ShardedScanReducer reducer(m, exec, std::move(fold));
  result.status = db.Scan(
      [&](const SequenceRecord& record) {
        reducer.Consume(record);
        if (sample_size > 0) {
          obs::SectionTimer timer(offer_section);
          sampler->Offer(record);
        }
      },
      /*restart=*/[&] {
        reducer.Restart();
        *rng = rng_snapshot;
        sampler.emplace(sample_size, n_seq, rng);
      });
  // A run stopped mid-scan skipped reducer work: the accumulation is
  // garbage, so surface the typed stop status (the scan stays charged).
  if (result.status.ok()) result.status = runtime::CheckRun(exec.run);
  if (!result.status.ok()) return result;
  result.symbol_match = reducer.Finish();

  const size_t selected = sampler->sample().size();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("phase1.scans").Increment();
  reg.GetCounter("phase1.sequences").Add(static_cast<int64_t>(n_seq));
  reg.GetGauge("phase1.sample.target").Set(static_cast<double>(sample_size));
  reg.GetGauge("phase1.sample.selected").Set(static_cast<double>(selected));
  NMINE_LOG(kDebug, "phase1")
      .Msg(name)
      .Num("sequences", n_seq)
      .Num("sample_target", sample_size)
      .Num("sample_selected", selected);
  span.Arg("sequences", n_seq).Arg("sample", selected);
  result.sample = sampler->TakeDatabase();
  return result;
}

}  // namespace

SymbolScanResult ScanSymbolsAndSample(const SequenceDatabase& db,
                                      const CompatibilityMatrix& c,
                                      size_t sample_size, Rng* rng,
                                      const exec::ExecPolicy& exec) {
  const size_t m = c.size();
  const double n = static_cast<double>(db.NumSequences());
  // A column with no zero entry is folded contiguously; any other through
  // its nonzero list, which keeps sparse alphabets (Fig. 15, m = 5000) at
  // O(l + m^2) per record.
  std::vector<uint8_t> dense(m);
  for (size_t d = 0; d < m; ++d) {
    dense[d] = c.ColumnNonZeros(static_cast<SymbolId>(d)).size() == m;
  }
  // A fold that sweeps fewer than kMinShardedFoldAlphabet symbols costs
  // less than copying its record into a wave slot and handing it to a
  // worker, so it runs serially beside the decode. The serial reducer
  // keeps the same shards and ascending merge, so the sums are
  // bit-identical either way.
  exec::ExecPolicy fold_exec = exec;
  if (m < kMinShardedFoldAlphabet) fold_exec.num_threads = 1;
  return RunPhase1Scan(
      "symbol match scan", db, m, sample_size, rng, fold_exec,
      [&c, &dense, m, n]() -> exec::RecordFn {
        auto st = std::make_shared<StampScratch>(m);
        return [&c, &dense, m, n, st](const SequenceRecord& record,
                                      std::vector<double>* partial) {
          // Stamp every position (no branch), then sweep the alphabet once:
          // each stamped symbol folds its column into acc with a branchless
          // max. The max is exact, so the sweep order cannot change it.
          const uint64_t epoch = ++st->epoch;
          uint64_t* stamp = st->stamp.data();
          for (SymbolId s : record.symbols) {
            stamp[static_cast<size_t>(s)] = epoch;
          }
          double* acc = st->acc.data();
          std::fill(acc, acc + m, 0.0);
          for (size_t o = 0; o < m; ++o) {
            if (stamp[o] != epoch) continue;
            if (dense[o]) {
              const double* col = c.Column(static_cast<SymbolId>(o));
              for (size_t t = 0; t < m; ++t) {
                acc[t] = col[t] > acc[t] ? col[t] : acc[t];
              }
            } else {
              for (const CompatibilityMatrix::Entry& e :
                   c.ColumnNonZeros(static_cast<SymbolId>(o))) {
                double& a = acc[static_cast<size_t>(e.symbol)];
                a = e.value > a ? e.value : a;
              }
            }
          }
          // Symbols no observed column reaches add 0.0 / n = +0.0, which
          // leaves a non-negative partial bit-for-bit unchanged.
          double* out = partial->data();
          for (size_t d = 0; d < m; ++d) out[d] += acc[d] / n;
        };
      });
}

SymbolScanResult ScanSymbolSupports(const SequenceDatabase& db, size_t m,
                                    size_t sample_size, Rng* rng,
                                    const exec::ExecPolicy& exec) {
  const double n = static_cast<double>(db.NumSequences());
  // An O(l) fold never outweighs the copy into a wave slot: always serial.
  exec::ExecPolicy fold_exec = exec;
  fold_exec.num_threads = 1;
  return RunPhase1Scan(
      "symbol support scan", db, m, sample_size, rng, fold_exec,
      [m, n]() -> exec::RecordFn {
        auto st = std::make_shared<StampScratch>(m);
        return [n, st](const SequenceRecord& record,
                       std::vector<double>* partial) {
          // O(l) per record: 1/n at each symbol's first stamp.
          const uint64_t epoch = ++st->epoch;
          for (SymbolId s : record.symbols) {
            uint64_t& mark = st->stamp[static_cast<size_t>(s)];
            if (mark == epoch) continue;
            mark = epoch;
            (*partial)[static_cast<size_t>(s)] += 1.0 / n;
          }
        };
      });
}

}  // namespace nmine
