#include "nmine/mining/symbol_scan.h"

#include <algorithm>
#include <bit>
#include <cstdint>
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

/// One shard call's scratch of both folds: `stamp[d] == epoch` marks the
/// symbols of the current record (a fresh epoch per record avoids
/// clearing), and `acc` holds the match fold's column maxima.
struct StampScratch {
  explicit StampScratch(size_t m) : stamp(m, 0), acc(m, 0.0) {}
  std::vector<uint64_t> stamp;
  std::vector<double> acc;
  uint64_t epoch = 0;
};

/// Phase-1 match quotients acc[d] / n by symbol set, for alphabets of at
/// most kMaxMemoAlphabet symbols: a record's column maxima depend only on
/// which symbols it holds, and real records repeat few sets. Open
/// addressing over the set's bitmask; it holds at most
/// kSymbolSetMemoEntries sets, so its size does not grow with the number
/// of distinct sets in the database. Not synchronized: it serves only
/// the one-thread fold (see the static_assert at its use).
class SymbolSetMemo {
 public:
  explicit SymbolSetMemo(size_t m) : m_(m), index_(kSlots, 0) {}

  /// The quotients memoized for `mask`, or nullptr.
  const double* Find(uint64_t mask) const {
    const uint32_t entry = index_[Probe(mask)];
    return entry == 0 ? nullptr : &values_[(entry - 1) * m_];
  }

  /// Room for the m quotients of `mask` (not yet present), or nullptr
  /// once the memo is full.
  double* Insert(uint64_t mask) {
    if (keys_.size() == kSymbolSetMemoEntries) return nullptr;
    keys_.push_back(mask);
    values_.resize(keys_.size() * m_);
    index_[Probe(mask)] = static_cast<uint32_t>(keys_.size());
    return &values_[(keys_.size() - 1) * m_];
  }

 private:
  static constexpr unsigned kSlotBits = 13;
  static constexpr size_t kSlots = size_t{1} << kSlotBits;
  static_assert(kSlots == 2 * kSymbolSetMemoEntries, "half-full at most");

  /// The slot that holds `mask`, or the empty slot where it would go.
  size_t Probe(uint64_t mask) const {
    size_t slot = static_cast<size_t>((mask * 0x9E3779B97F4A7C15ULL) >>
                                      (64 - kSlotBits));
    for (;;) {
      const uint32_t entry = index_[slot];
      if (entry == 0 || keys_[entry - 1] == mask) return slot;
      slot = (slot + 1) & (kSlots - 1);
    }
  }

  const size_t m_;
  std::vector<uint32_t> index_;  // 0 = empty, else entry number + 1
  std::vector<uint64_t> keys_;
  std::vector<double> values_;  // m_ quotients per entry
};

/// The one Phase-1 scan: draws the sample on the scanning thread while a
/// sharded reducer runs `fold` over every record, restarting both (with
/// the generator rewound) when the database retries an attempt.
SymbolScanResult RunPhase1Scan(const char* name, const SequenceDatabase& db,
                               size_t m, size_t sample_size, Rng* rng,
                               const exec::ExecPolicy& exec,
                               exec::ShardFn fold) {
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
  // O(l + m^2) per record. The max is exact, so neither the way a column
  // is folded nor the order of the columns can change acc.
  std::vector<uint8_t> dense(m);
  for (size_t d = 0; d < m; ++d) {
    dense[d] = c.ColumnNonZeros(static_cast<SymbolId>(d)).size() == m;
  }
  auto fold_column = [&c, &dense, m](size_t o, double* acc) {
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
  };
  // A fold that sweeps fewer than kMinShardedFoldAlphabet symbols costs
  // less than handing shards to workers, so each shard is folded on the
  // scanning thread, between decodes. The one-thread reducer keeps the
  // same shards and ascending merge, so the sums are bit-identical either
  // way.
  exec::ExecPolicy fold_exec = exec;
  if (m < kMinShardedFoldAlphabet) fold_exec.num_threads = 1;
  // The memo is unsynchronized: it serves only alphabets whose fold runs
  // on one thread, one shard call at a time.
  static_assert(kMaxMemoAlphabet < kMinShardedFoldAlphabet,
                "a memoized fold must run on one thread");
  std::optional<SymbolSetMemo> memo;
  if (m <= kMaxMemoAlphabet) memo.emplace(m);
  return RunPhase1Scan(
      "symbol match scan", db, m, sample_size, rng, fold_exec,
      [&memo, &fold_column, m, n](const SequenceRecord* records, size_t count,
                                  std::vector<double>* partial) {
        StampScratch st(m);
        double* acc = st.acc.data();
        double* out = partial->data();
        for (size_t r = 0; r < count; ++r) {
          if (memo) {
            // A record's acc depends only on its symbol set, so its
            // quotients are looked up by the set's bitmask; the adds into
            // out below are the direct fold's, in the same order.
            uint64_t mask = 0;
            for (SymbolId s : records[r].symbols) {
              mask |= uint64_t{1} << static_cast<unsigned>(s);
            }
            const double* q = memo->Find(mask);
            if (q == nullptr) {
              std::fill(acc, acc + m, 0.0);
              for (uint64_t bits = mask; bits != 0; bits &= bits - 1) {
                fold_column(static_cast<size_t>(std::countr_zero(bits)), acc);
              }
              double* fresh = memo->Insert(mask);
              if (fresh == nullptr) {  // full: fold directly
                for (size_t d = 0; d < m; ++d) out[d] += acc[d] / n;
                continue;
              }
              for (size_t d = 0; d < m; ++d) fresh[d] = acc[d] / n;
              q = fresh;
            }
            for (size_t d = 0; d < m; ++d) out[d] += q[d];
            continue;
          }
          // Stamp every position (no branch), then sweep the alphabet once,
          // folding each stamped symbol's column into acc.
          const uint64_t epoch = ++st.epoch;
          uint64_t* stamp = st.stamp.data();
          for (SymbolId s : records[r].symbols) {
            stamp[static_cast<size_t>(s)] = epoch;
          }
          std::fill(acc, acc + m, 0.0);
          for (size_t o = 0; o < m; ++o) {
            if (stamp[o] == epoch) fold_column(o, acc);
          }
          // Symbols no observed column reaches add 0.0 / n = +0.0, which
          // leaves a non-negative partial bit-for-bit unchanged.
          for (size_t d = 0; d < m; ++d) out[d] += acc[d] / n;
        }
      });
}

SymbolScanResult ScanSymbolSupports(const SequenceDatabase& db, size_t m,
                                    size_t sample_size, Rng* rng,
                                    const exec::ExecPolicy& exec) {
  const double n = static_cast<double>(db.NumSequences());
  // An O(l) fold never outweighs handing shards to workers: always one
  // thread.
  exec::ExecPolicy fold_exec = exec;
  fold_exec.num_threads = 1;
  return RunPhase1Scan(
      "symbol support scan", db, m, sample_size, rng, fold_exec,
      [m, n](const SequenceRecord* records, size_t count,
             std::vector<double>* partial) {
        // O(l) per record: 1/n at each symbol's first stamp.
        StampScratch st(m);
        for (size_t r = 0; r < count; ++r) {
          const uint64_t epoch = ++st.epoch;
          for (SymbolId s : records[r].symbols) {
            uint64_t& mark = st.stamp[static_cast<size_t>(s)];
            if (mark == epoch) continue;
            mark = epoch;
            (*partial)[static_cast<size_t>(s)] += 1.0 / n;
          }
        }
      });
}

}  // namespace nmine
