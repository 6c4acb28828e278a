#include "nmine/lattice/pattern_counter.h"

#include <algorithm>
#include <memory>
#include <mutex>
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
  ones_ = AlignedBuffer<double>(WindowTrie::RowStride(max_depth_));
  std::fill(ones_.data(), ones_.data() + ones_.size(), 1.0);
}

WindowTrieBuffers PatternTrie::Scratch::buffers() {
  return {symbols.data(), factors.data(), rows.data(), path_rows.data(),
          steps.data()};
}

PatternTrie::Scratch PatternTrie::MakeScratch() const {
  const size_t stride = WindowTrie::RowStride(max_depth_);
  Scratch scratch;
  scratch.symbols = AlignedBuffer<int32_t>(stride);
  scratch.factors = AlignedBuffer<double>(row_syms_.size() * stride);
  scratch.rows = AlignedBuffer<double>(max_depth_ * stride);
  scratch.lane_best =
      AlignedBuffer<double>(num_patterns_ * WindowTrie::kMaxLanes);
  scratch.path_rows.resize(max_depth_ + 1);
  scratch.steps.resize(max_depth_ + 1);
  scratch.open.assign(num_patterns_, 0.0);
  return scratch;
}

template <class SequenceAt>
void PatternTrie::SumSequences(size_t count, SequenceAt sequence_at,
                               Scratch* scratch, double* sums) const {
  const MatchKernel& kernel = ActiveMatchKernel();
  const size_t lanes = kernel.lanes();
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
  const WindowTrieBuffers buffers = scratch->buffers();
  double* lane_best = scratch->lane_best.data();
  double* open = scratch->open.data();

  // Walks the filled lanes, then folds each lane into its record's
  // running max, in lane (= record) order; a lane holding its record's
  // last piece adds the max into sums and reopens it at +0.0.
  WindowLanes group;
  bool closes[WindowTrie::kMaxLanes] = {};
  auto walk = [&] {
    kernel.WalkTrie(trie, group, buffers, lane_best);
    for (size_t i = 0; i < num_patterns_; ++i) {
      const double* lane = lane_best + i * lanes;
      double best = open[i];
      for (size_t l = 0; l < group.count; ++l) {
        if (lane[l] > best) best = lane[l];
        if (closes[l]) {
          sums[i] += best;
          best = 0.0;
        }
      }
      open[i] = best;
    }
    group.count = 0;
  };

  // A record's windows are cut into the fewest pieces of at most
  // kTileWindows window starts, of equal size but for the last. A piece
  // carries the max_depth - 1 symbols its deepest windows reach; the last
  // piece runs to the record's end and so also holds the shallower windows
  // past the deepest one's last start. A lone record is cut into at least
  // lanes pieces (one per window if it has fewer), so that it fills a
  // group by itself.
  const size_t reach = max_depth_ - 1;
  const size_t least = count == 1 ? lanes : 1;
  for (size_t r = 0; r < count; ++r) {
    const Sequence& seq = sequence_at(r);
    const size_t n = seq.size();
    if (n == 0) continue;  // every value is +0.0, which adds nothing
    const size_t windows = n > reach ? n - reach : 1;
    const size_t pieces = std::max((windows + kTileWindows - 1) / kTileWindows,
                                   std::min(least, windows));
    const size_t piece = (windows + pieces - 1) / pieces;
    for (size_t start = 0;; start += piece) {
      const bool last = start + piece >= windows;
      const size_t len = last ? n - start : piece + reach;
      group.seqs[group.count] = seq.data() + start;
      group.lens[group.count] = static_cast<uint32_t>(len);
      group.owned[group.count] = static_cast<uint32_t>(last ? len : piece);
      closes[group.count] = last;
      if (++group.count == lanes) walk();
      if (last) break;
    }
  }
  if (group.count > 0) walk();
}

void PatternTrie::Sum(const SequenceRecord* records, size_t count,
                      Scratch* scratch, double* sums) const {
  SumSequences(
      count,
      [records](size_t r) -> const Sequence& { return records[r].symbols; },
      scratch, sums);
}

void PatternTrie::Best(const Sequence& seq, Scratch* scratch,
                       double* best) const {
  std::fill(best, best + num_patterns_, 0.0);
  SumSequences(
      1, [&seq](size_t) -> const Sequence& { return seq; }, scratch, best);
}

std::vector<double> PatternTrie::Best(const Sequence& seq) const {
  std::vector<double> best(num_patterns_);
  Scratch scratch = MakeScratch();
  Best(seq, &scratch, best.data());
  return best;
}

namespace {

/// Counts shards over a shared trie. The trie is immutable and shared
/// across scan workers; each call borrows a scratch from a pool and gives
/// it back, so a count allocates one scratch per concurrent worker, not
/// one per shard. The window-sliding section is recorded from whichever
/// thread runs the shard (Section recording is atomic), so profiler
/// totals stay truthful under concurrency.
class ShardCounter {
 public:
  explicit ShardCounter(const PatternTrie& trie)
      : trie_(trie),
        window_section_(obs::ResolveSection("count.window_slide")) {}

  void Count(const SequenceRecord* records, size_t count,
             std::vector<double>* partial) {
    obs::SectionTimer timer(window_section_);
    PatternTrie::Scratch scratch = Borrow();
    trie_.Sum(records, count, &scratch, partial->data());
    std::lock_guard<std::mutex> lock(mutex_);
    pool_.push_back(std::move(scratch));
  }

  /// A ShardFn over this counter, which must outlive the reduction.
  exec::ShardFn Fn() {
    return [this](const SequenceRecord* records, size_t count,
                  std::vector<double>* partial) {
      Count(records, count, partial);
    };
  }

  obs::Profiler::Section* window_section() const { return window_section_; }

 private:
  PatternTrie::Scratch Borrow() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!pool_.empty()) {
        PatternTrie::Scratch scratch = std::move(pool_.back());
        pool_.pop_back();
        return scratch;
      }
    }
    return trie_.MakeScratch();
  }

  const PatternTrie& trie_;
  obs::Profiler::Section* const window_section_;
  std::mutex mutex_;
  std::vector<PatternTrie::Scratch> pool_;
};

Status AverageOverDb(const SequenceDatabase& db,
                     const std::vector<Pattern>& patterns,
                     const CompatibilityMatrix* c, std::vector<double>* totals,
                     const exec::ExecPolicy& exec) {
  NMINE_PROFILE_SCOPE("count.db_batch");
  // Refuse to start (and charge) a scan for an already-stopped run.
  Status rs = runtime::CheckRun(exec.run);
  if (!rs.ok()) return rs;
  const PatternTrie trie(patterns, c);
  ShardCounter counter(trie);
  exec::ShardedScanReducer reducer(patterns.size(), exec, counter.Fn());
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
  const PatternTrie trie(patterns, c);
  ShardCounter counter(trie);
  std::vector<double> totals =
      exec::ReduceRecords(records, patterns.size(), exec, counter.Fn());
  const double n = static_cast<double>(records.size());
  if (n > 0) {
    for (double& t : totals) t /= n;
  }
  return totals;
}

}  // namespace

struct BatchCountKernel::Impl {
  Impl(const std::vector<Pattern>& patterns, const CompatibilityMatrix* c)
      : trie(patterns, c), counter(trie) {}

  const PatternTrie trie;
  ShardCounter counter;
};

BatchCountKernel::BatchCountKernel(const std::vector<Pattern>& patterns,
                                   const CompatibilityMatrix* c)
    : impl_(std::make_unique<Impl>(patterns, c)),
      num_patterns_(patterns.size()) {}

BatchCountKernel::~BatchCountKernel() = default;

void BatchCountKernel::CountShard(const SequenceRecord* records, size_t count,
                                  std::vector<double>* partial) const {
  impl_->counter.Count(records, count, partial);
}

exec::RecordFn BatchCountKernel::MakeRecordFn() const {
  const PatternTrie& trie = impl_->trie;
  obs::Profiler::Section* window_section = impl_->counter.window_section();
  auto scratch = std::make_shared<PatternTrie::Scratch>(trie.MakeScratch());
  return [&trie, window_section, scratch](const SequenceRecord& r,
                                          std::vector<double>* partial) {
    obs::SectionTimer timer(window_section);
    trie.Sum(&r, 1, scratch.get(), partial->data());
  };
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
