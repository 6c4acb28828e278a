#include "nmine/mining/depth_first_miner.h"

#include <utility>
#include <vector>

#include "nmine/exec/parallel_for.h"
#include "nmine/mining/miner_engine.h"
#include "nmine/obs/profiler.h"
#include "nmine/obs/trace.h"
#include "nmine/runtime/run_control.h"
#include "nmine/runtime/run_status.h"

namespace nmine {
namespace {

/// One surviving window of the current pattern: the sequence it lies in,
/// its start offset, and the running compatibility product.
struct WindowEntry {
  int32_t seq_index;
  int32_t start;
  double product;
};

class DepthFirstSearch {
 public:
  DepthFirstSearch(Metric metric, const MinerOptions& options,
                   const CompatibilityMatrix& c,
                   std::vector<Sequence> sequences)
      : metric_(metric),
        options_(options),
        c_(c),
        sequences_(std::move(sequences)) {}

  void Run(MiningResult* result) {
    result_ = result;
    const size_t m = c_.size();
    // Root level: every symbol, with its full projection. The projections
    // are independent per symbol, so they are built in parallel into
    // per-symbol slots; the selection pass below stays serial and in
    // symbol order, making the result identical for every thread count.
    // The recursive extension stays serial: its per-level truncation
    // counters make the traversal order-dependent.
    std::vector<std::vector<WindowEntry>> projections(m);
    std::vector<double> matches(m, 0.0);
    exec::ParallelFor(
        options_.num_threads, m,
        [&](size_t d) {
          projections[d] = RootProjection(static_cast<SymbolId>(d));
          matches[d] = AverageMax(projections[d]);
        },
        options_.run_control);
    // A stop during the root build leaves some slots unfilled; the caller
    // detects it via CheckRun and discards the result.
    if (runtime::StopRequested(options_.run_control)) return;
    std::vector<SymbolId> frequent_symbols;
    std::vector<std::pair<Pattern, std::vector<WindowEntry>>> roots;
    for (size_t d = 0; d < m; ++d) {
      SymbolId sym = static_cast<SymbolId>(d);
      CountCandidate(1);
      if (matches[d] >= options_.min_threshold && !projections[d].empty()) {
        Pattern p({sym});
        Record(p, matches[d], 1);
        frequent_symbols.push_back(sym);
        roots.emplace_back(std::move(p), std::move(projections[d]));
      }
    }
    frequent_symbols_ = std::move(frequent_symbols);
    for (auto& [pattern, projection] : roots) {
      Extend(pattern, projection, 2);
    }
    FinalizeLevelStats();
  }

 private:
  double Factor(SymbolId true_sym, SymbolId observed) const {
    if (metric_ == Metric::kMatch) {
      return c_(true_sym, observed);
    }
    return true_sym == observed ? 1.0 : 0.0;
  }

  std::vector<WindowEntry> RootProjection(SymbolId sym) const {
    std::vector<WindowEntry> out;
    for (size_t si = 0; si < sequences_.size(); ++si) {
      const Sequence& seq = sequences_[si];
      for (size_t pos = 0; pos < seq.size(); ++pos) {
        double f = Factor(sym, seq[pos]);
        if (f > 0.0) {
          out.push_back({static_cast<int32_t>(si),
                         static_cast<int32_t>(pos), f});
        }
      }
    }
    return out;
  }

  /// Definition 3.7 on a projection: per-sequence maxima averaged over the
  /// whole database (sequences without surviving windows contribute 0).
  double AverageMax(const std::vector<WindowEntry>& projection) const {
    if (sequences_.empty()) return 0.0;
    double total = 0.0;
    int32_t current = -1;
    double best = 0.0;
    for (const WindowEntry& w : projection) {
      if (w.seq_index != current) {
        total += best;
        best = 0.0;
        current = w.seq_index;
      }
      if (w.product > best) best = w.product;
    }
    total += best;
    return total / static_cast<double>(sequences_.size());
  }

  void Record(const Pattern& p, double match, size_t level) {
    result_->frequent.Insert(p);
    result_->values[p] = match;
    if (level_frequent_.size() <= level) level_frequent_.resize(level + 1);
    ++level_frequent_[level];
  }

  void CountCandidate(size_t level) {
    if (level_candidates_.size() <= level) {
      level_candidates_.resize(level + 1);
    }
    ++level_candidates_[level];
  }

  void Extend(const Pattern& p, const std::vector<WindowEntry>& projection,
              size_t level) {
    // Cooperative stop: unwind the recursion between node expansions. The
    // caller discards the partial traversal via CheckRun.
    if (runtime::StopRequested(options_.run_control)) return;
    if (level > options_.max_level) return;
    const size_t span = p.length();
    for (size_t gap = 0; gap <= options_.space.max_gap; ++gap) {
      const size_t new_span = span + gap + 1;
      if (new_span > options_.space.max_span) break;
      for (SymbolId sym : frequent_symbols_) {
        if (level_candidates_.size() > level &&
            level_candidates_[level] >= options_.max_candidates_per_level) {
          result_->truncated = true;
          return;
        }
        CountCandidate(level);
        // Incremental projection: multiply each surviving window by the
        // factor at the extension position.
        std::vector<WindowEntry> child;
        child.reserve(projection.size() / 2);
        for (const WindowEntry& w : projection) {
          const Sequence& seq =
              sequences_[static_cast<size_t>(w.seq_index)];
          size_t ext_pos = static_cast<size_t>(w.start) + new_span - 1;
          if (ext_pos >= seq.size()) continue;
          double f = Factor(sym, seq[ext_pos]);
          if (f <= 0.0) continue;
          child.push_back({w.seq_index, w.start, w.product * f});
        }
        if (child.empty()) continue;
        double match = AverageMax(child);
        if (match < options_.min_threshold) continue;
        std::vector<SymbolId> body = p.body();
        body.insert(body.end(), gap, kWildcard);
        body.push_back(sym);
        Pattern extended(std::move(body));
        Record(extended, match, level);
        Extend(extended, child, level + 1);
      }
    }
  }

  void FinalizeLevelStats() {
    for (size_t level = 1; level < level_candidates_.size(); ++level) {
      LevelStats stats;
      stats.level = level;
      stats.num_candidates = level_candidates_[level];
      stats.num_frequent =
          level < level_frequent_.size() ? level_frequent_[level] : 0;
      result_->level_stats.push_back(stats);
    }
  }

  Metric metric_;
  const MinerOptions& options_;
  const CompatibilityMatrix& c_;
  std::vector<Sequence> sequences_;
  std::vector<SymbolId> frequent_symbols_;
  std::vector<size_t> level_candidates_;
  std::vector<size_t> level_frequent_;
  MiningResult* result_ = nullptr;
};

}  // namespace

MiningResult DepthFirstMiner::Mine(const SequenceDatabase& db,
                                   const CompatibilityMatrix& c) const {
  RunScope scope("mine.depthfirst", "depthfirst", db, options_);
  const runtime::RunControl* run = options_.run_control;

  // Refuse to charge the load scan for a stopped run.
  Status rs = runtime::CheckRun(run);
  if (!rs.ok()) return scope.Fail(rs);

  // Single accounted pass: the data is memory-resident from here on. The
  // resident database is this miner's dominant allocation, so it is
  // charged against the memory budget; depth-first has no sample to
  // shrink, so a budget too small for the database fails outright.
  std::vector<Sequence> sequences;
  sequences.reserve(db.NumSequences());
  {
    obs::TraceSpan load_span("depthfirst.load", "depthfirst");
    NMINE_PROFILE_SCOPE("depthfirst.load");
    runtime::PublishPhase("depthfirst.load");
    Status load_status = db.Scan(
        [&sequences](const SequenceRecord& r) {
          sequences.push_back(r.symbols);
        },
        /*restart=*/[&sequences] { sequences.clear(); });
    if (load_status.ok()) load_status = runtime::CheckRun(run);
    if (!load_status.ok()) return scope.Fail(std::move(load_status));
  }
  if (!scope.governor()->unlimited()) {
    size_t resident_bytes = 0;
    for (const Sequence& s : sequences) {
      resident_bytes += s.size() * sizeof(SymbolId) + sizeof(Sequence);
    }
    Status charge = scope.governor()->Charge("resident-database",
                                             resident_bytes);
    if (!charge.ok()) return scope.Fail(std::move(charge));
  }

  DepthFirstSearch search(metric_, options_, c, std::move(sequences));
  {
    obs::TraceSpan search_span("depthfirst.search", "depthfirst");
    NMINE_PROFILE_SCOPE("depthfirst.search");
    runtime::PublishPhase("depthfirst.search");
    search.Run(&scope.result());
  }
  // A cancel/deadline mid-search leaves a partial traversal in the result;
  // discard it and surface the typed status.
  rs = runtime::CheckRun(run);
  if (!rs.ok()) return scope.Fail(rs);
  return scope.Finish();
}

}  // namespace nmine
