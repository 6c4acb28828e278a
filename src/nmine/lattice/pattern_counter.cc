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
    : num_patterns_(patterns.size()) {
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
      WindowTrie::Node node;
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
    WindowTrie::Node& last = nodes_[path.back()];
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
  if (c != nullptr) {
    for (SymbolId sym : row_syms_) matrix_rows_.push_back(c->Row(sym));
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

void PatternTrie::Best(const Sequence& seq, Scratch* scratch,
                       double* best) const {
  WindowTrie trie;
  trie.nodes = nodes_.data();
  trie.num_nodes = nodes_.size();
  trie.pattern_ids = pattern_ids_.data();
  trie.num_patterns = num_patterns_;
  trie.row_syms = row_syms_.data();
  trie.matrix_rows = matrix_rows_.empty() ? nullptr : matrix_rows_.data();
  trie.num_rows = row_syms_.size();
  trie.ones = ones_.data();
  trie.max_depth = max_depth_;
  ActiveMatchKernel().WalkTrie(
      trie, seq.data(), seq.size(),
      {scratch->factors.data(), scratch->rows.data(),
       scratch->path_rows.data()},
      best);
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
