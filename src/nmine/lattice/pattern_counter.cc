#include "nmine/lattice/pattern_counter.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "nmine/core/check.h"
#include "nmine/core/match_kernel.h"
#include "nmine/exec/sharded_reduce.h"
#include "nmine/obs/profiler.h"
#include "nmine/runtime/run_control.h"

namespace nmine {

PatternTrie::PatternTrie(const std::vector<Pattern>& patterns,
                         const CompatibilityMatrix* c)
    : c_(c), num_patterns_(patterns.size()) {
  // Lexicographic order (the wildcard, -1, sorts first) lists the trie in
  // DFS preorder: each pattern adds nodes for the positions past its
  // common prefix with the previous one, and duplicates are adjacent, so
  // the patterns ending at one node form one contiguous run.
  std::vector<uint32_t> order(patterns.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return patterns[a].body() < patterns[b].body();
  });
  std::vector<int32_t> row_of_symbol;
  std::vector<uint32_t> path;  // path[d] = open node at depth d + 1
  const std::vector<SymbolId>* prev = nullptr;
  for (uint32_t pi : order) {
    const std::vector<SymbolId>& body = patterns[pi].body();
    NMINE_CHECK(!body.empty(), "PatternTrie needs non-empty patterns");
    size_t common = 0;
    if (prev != nullptr) {
      while (common < body.size() && common < prev->size() &&
             body[common] == (*prev)[common]) {
        ++common;
      }
    }
    for (; path.size() > common; path.pop_back()) {
      nodes_[path.back()].end = static_cast<uint32_t>(nodes_.size());
    }
    for (size_t d = common; d < body.size(); ++d) {
      Node node;
      node.depth = static_cast<uint32_t>(d + 1);
      const SymbolId sym = body[d];
      if (!IsWildcard(sym)) {
        const size_t s = static_cast<size_t>(sym);
        if (s >= row_of_symbol.size()) row_of_symbol.resize(s + 1, -1);
        if (row_of_symbol[s] < 0) {
          row_of_symbol[s] = static_cast<int32_t>(row_syms_.size());
          row_syms_.push_back(sym);
        }
        node.row = row_of_symbol[s];
      }
      path.push_back(static_cast<uint32_t>(nodes_.size()));
      nodes_.push_back(node);
    }
    Node& last = nodes_[path.back()];
    if (last.num_patterns == 0) {
      last.first_pattern = static_cast<uint32_t>(pattern_ids_.size());
    }
    pattern_ids_.push_back(pi);
    ++last.num_patterns;
    max_depth_ = std::max(max_depth_, body.size());
    prev = &body;
  }
  for (uint32_t open : path) {
    nodes_[open].end = static_cast<uint32_t>(nodes_.size());
  }
  ones_.assign(kTileWindows, 1.0);
}

PatternTrie::Scratch PatternTrie::MakeScratch() const {
  Scratch scratch;
  scratch.factors.resize(row_syms_.size() * (kTileWindows + max_depth_));
  scratch.rows.resize(max_depth_ * kTileWindows);
  scratch.path_rows.resize(max_depth_ + 1);
  return scratch;
}

// FillFactors and Best are aligned to a cache line so that where their hot
// loops fall, and with it the trie's speed, does not move with the size of
// unrelated code linked before this file: shifting them by 20 KB cost
// sample_deep and disk_scan 8-12% of their mining CPU.
__attribute__((aligned(64))) void PatternTrie::FillFactors(
    const SymbolId* seq, size_t len, double* factors) const {
  const size_t stride = kTileWindows + max_depth_;
  if (c_ == nullptr) {
    for (size_t r = 0; r < row_syms_.size(); ++r) {
      double* row = factors + r * stride;
      for (size_t j = 0; j < len; ++j) {
        row[j] = seq[j] == row_syms_[r] ? 1.0 : 0.0;
      }
    }
    return;
  }
  // Position-major: one matrix column per observed symbol, read once.
  for (size_t j = 0; j < len; ++j) {
    const double* col = c_->Column(seq[j]);
    for (size_t r = 0; r < row_syms_.size(); ++r) {
      factors[r * stride + j] = col[static_cast<size_t>(row_syms_[r])];
    }
  }
}

__attribute__((aligned(64))) void PatternTrie::Best(const Sequence& seq,
                                                    Scratch* scratch,
                                                    double* best) const {
  std::fill(best, best + num_patterns_, 0.0);
  const MatchKernel& kernel = ActiveMatchKernel();
  const size_t n = seq.size();
  const size_t stride = kTileWindows + max_depth_;
  // rows[d] is the depth-d row of the current root path; a wildcard edge
  // aliases its parent's row, so a write never hits a row still read.
  const double** rows = scratch->path_rows.data();
  rows[0] = ones_.data();
  for (size_t t0 = 0; t0 < n; t0 += kTileWindows) {
    // A depth-d window starting at t0 + w reads positions up to
    // t0 + w + d - 1, so the tile needs kTileWindows + max_depth_ - 1
    // positions at most.
    FillFactors(seq.data() + t0, std::min(stride - 1, n - t0),
                scratch->factors.data());
    for (size_t i = 0; i < nodes_.size();) {
      const Node& node = nodes_[i];
      const size_t d = node.depth;
      if (t0 + d > n) {  // no window of this depth starts in the tile
        i = node.end;
        continue;
      }
      if (node.row < 0) {
        // Patterns never end on `*`, so nothing is recorded here.
        rows[d] = rows[d - 1];
        ++i;
        continue;
      }
      double* out = scratch->rows.data() + (d - 1) * kTileWindows;
      const double peak = kernel.ProductMax(
          rows[d - 1],
          scratch->factors.data() + static_cast<size_t>(node.row) * stride +
              d - 1,
          std::min(kTileWindows, n - d + 1 - t0), out);
      if (peak == 0.0) {  // every window is dead: skip the subtree
        i = node.end;
        continue;
      }
      rows[d] = out;
      for (uint32_t k = 0; k < node.num_patterns; ++k) {
        double& slot = best[pattern_ids_[node.first_pattern + k]];
        if (peak > slot) slot = peak;
      }
      ++i;
    }
  }
}

std::vector<double> PatternTrie::Best(const Sequence& seq) const {
  std::vector<double> best(num_patterns_);
  Scratch scratch = MakeScratch();
  Best(seq, &scratch, best.data());
  return best;
}

namespace {

/// Per-shard kernel over a shared trie: the trie is immutable and shared
/// across scan workers, all mutable state lives in the shard's scratch.
/// The window-sliding section is recorded from whichever thread runs the
/// shard (Section recording is atomic), so profiler totals stay truthful
/// under concurrency.
exec::RecordFnFactory MakeCountKernelFactory(
    const PatternTrie& trie, obs::Profiler::Section* window_section) {
  return [&trie, window_section]() -> exec::RecordFn {
    struct ShardScratch {
      PatternTrie::Scratch trie;
      std::vector<double> best;
    };
    auto scratch = std::make_shared<ShardScratch>(
        ShardScratch{trie.MakeScratch(),
                     std::vector<double>(trie.num_patterns())});
    return [&trie, window_section, scratch](const SequenceRecord& r,
                                            std::vector<double>* partial) {
      obs::SectionTimer timer(window_section);
      trie.Best(r.symbols, &scratch->trie, scratch->best.data());
      for (size_t i = 0; i < scratch->best.size(); ++i) {
        (*partial)[i] += scratch->best[i];
      }
    };
  };
}

Status AverageOverDb(const SequenceDatabase& db,
                     const std::vector<Pattern>& patterns,
                     const CompatibilityMatrix* c, std::vector<double>* totals,
                     const exec::ExecPolicy& exec) {
  NMINE_PROFILE_SCOPE("count.db_batch");
  // Refuse to start (and charge) a scan for an already-stopped run.
  Status rs = runtime::CheckRun(exec.run);
  if (!rs.ok()) return rs;
  // Flat pre-resolved section so the per-sequence M(P,s) window-sliding
  // cost is attributed without any per-record path lookup (and without any
  // cost at all while the profiler is disabled).
  obs::Profiler::Section* window_section =
      obs::ResolveSection("count.window_slide");
  PatternTrie trie(patterns, c);
  exec::ShardedScanReducer reducer(
      patterns.size(), exec, MakeCountKernelFactory(trie, window_section));
  Status s = db.Scan(
      [&reducer](const SequenceRecord& r) { reducer.Consume(r); },
      /*restart=*/[&reducer] { reducer.Restart(); });
  if (!s.ok()) return s;
  // A run stopped mid-scan skipped kernel work: the totals are garbage.
  // Surface the typed stop status instead (the aborted scan stays charged
  // on the failed run; a resumed run repeats it).
  rs = runtime::CheckRun(exec.run);
  if (!rs.ok()) return rs;
  *totals = reducer.Finish();
  const double n = static_cast<double>(db.NumSequences());
  if (n > 0) {
    for (double& t : *totals) t /= n;
  }
  return Status::Ok();
}

std::vector<double> AverageOverRecords(
    const std::vector<SequenceRecord>& records,
    const std::vector<Pattern>& patterns, const CompatibilityMatrix* c,
    const exec::ExecPolicy& exec) {
  NMINE_PROFILE_SCOPE("count.records_batch");
  obs::Profiler::Section* window_section =
      obs::ResolveSection("count.window_slide");
  PatternTrie trie(patterns, c);
  std::vector<double> totals = exec::ReduceRecords(
      records, patterns.size(), exec,
      MakeCountKernelFactory(trie, window_section));
  const double n = static_cast<double>(records.size());
  if (n > 0) {
    for (double& t : totals) t /= n;
  }
  return totals;
}

}  // namespace

struct BatchCountKernel::Impl {
  Impl(const std::vector<Pattern>& patterns, const CompatibilityMatrix* c)
      : trie(patterns, c),
        window_section(obs::ResolveSection("count.window_slide")) {}

  PatternTrie trie;
  obs::Profiler::Section* window_section;
};

BatchCountKernel::BatchCountKernel(const std::vector<Pattern>& patterns,
                                   const CompatibilityMatrix* c)
    : impl_(std::make_unique<Impl>(patterns, c)),
      num_patterns_(patterns.size()) {}

BatchCountKernel::~BatchCountKernel() = default;

exec::RecordFn BatchCountKernel::MakeRecordFn() const {
  return MakeCountKernelFactory(impl_->trie, impl_->window_section)();
}

Status TryCountMatches(const SequenceDatabase& db,
                       const CompatibilityMatrix& c,
                       const std::vector<Pattern>& patterns,
                       std::vector<double>* values,
                       const exec::ExecPolicy& exec) {
  return AverageOverDb(db, patterns, &c, values, exec);
}

Status TryCountSupports(const SequenceDatabase& db,
                        const std::vector<Pattern>& patterns,
                        std::vector<double>* values,
                        const exec::ExecPolicy& exec) {
  return AverageOverDb(db, patterns, nullptr, values, exec);
}

std::vector<double> CountMatches(const SequenceDatabase& db,
                                 const CompatibilityMatrix& c,
                                 const std::vector<Pattern>& patterns,
                                 const exec::ExecPolicy& exec) {
  std::vector<double> values;
  Status s = AverageOverDb(db, patterns, &c, &values, exec);
  NMINE_CHECK(s.ok(), "CountMatches on a fallible database failed; use "
                      "TryCountMatches to handle scan errors");
  return values;
}

std::vector<double> CountSupports(const SequenceDatabase& db,
                                  const std::vector<Pattern>& patterns,
                                  const exec::ExecPolicy& exec) {
  std::vector<double> values;
  Status s = AverageOverDb(db, patterns, nullptr, &values, exec);
  NMINE_CHECK(s.ok(), "CountSupports on a fallible database failed; use "
                      "TryCountSupports to handle scan errors");
  return values;
}

std::vector<double> CountMatchesInRecords(
    const std::vector<SequenceRecord>& records, const CompatibilityMatrix& c,
    const std::vector<Pattern>& patterns, const exec::ExecPolicy& exec) {
  return AverageOverRecords(records, patterns, &c, exec);
}

std::vector<double> CountSupportsInRecords(
    const std::vector<SequenceRecord>& records,
    const std::vector<Pattern>& patterns, const exec::ExecPolicy& exec) {
  return AverageOverRecords(records, patterns, nullptr, exec);
}

}  // namespace nmine
