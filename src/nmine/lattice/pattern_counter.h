#ifndef NMINE_LATTICE_PATTERN_COUNTER_H_
#define NMINE_LATTICE_PATTERN_COUNTER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "nmine/core/aligned_buffer.h"
#include "nmine/core/compatibility_matrix.h"
#include "nmine/core/match.h"
#include "nmine/core/match_kernel.h"
#include "nmine/core/pattern.h"
#include "nmine/db/sequence_database.h"
#include "nmine/exec/policy.h"
#include "nmine/exec/sharded_reduce.h"

namespace nmine {

/// Lane-vectorized, prefix-sharing counter for batches of candidate
/// patterns: Definition 3.6 for every pattern of a batch (one Apriori
/// level, or one border-collapsing probe set) over a span of records.
///
/// The batch is a trie keyed by pattern positions (the eternal symbol is
/// an ordinary edge label), flattened in DFS preorder. Records are cut
/// into pieces of at most kTileWindows window starts, each carrying the
/// max_depth - 1 symbols its deepest windows reach, and the pieces are
/// dealt to the active kernel's vector lanes in record order: one vector
/// step covers one window offset of lanes() pieces. For each batch
/// symbol s a factor row holds C(s, piece[j]) (0/1 for exact supports) in
/// every lane; each node's row then holds the partial product of every
/// window of every lane,
///   row[w] = parent_row[w] * C(sym, piece[w + depth - 1]),
/// which is SegmentMatch's factor order, so values are bit-identical to
/// calling SequenceMatch per pattern (the naive oracle used in tests).
/// Wildcard edges reuse the parent row; the patterns ending at a node
/// keep a per-lane max of its row, and a node whose row is all zero in
/// every lane skips its subtree for the group. A record's value is the
/// max over its pieces' lanes, exact because a max is unchanged by
/// windows two pieces share. The walk is MatchKernel::WalkTrie of the
/// active kernel, read once per call.
class PatternTrie {
 public:
  static constexpr size_t kTileWindows = WindowTrie::kTileWindows;

  /// Builds the trie over `patterns` (non-empty; duplicates allowed —
  /// they share a node and all receive results). `c` == nullptr counts
  /// binary supports, otherwise matches under `c`, which must outlive the
  /// trie unmodified (the trie keeps pointers to its rows).
  PatternTrie(const std::vector<Pattern>& patterns,
              const CompatibilityMatrix* c);

  size_t num_patterns() const { return num_patterns_; }

  /// Per-worker buffers, sized once from the trie by MakeScratch() for
  /// the widest kernel and 64-byte aligned; evaluation allocates nothing.
  class Scratch {
   public:
    /// The walk's view of the buffers (for alignment checks).
    WindowTrieBuffers buffers();

   private:
    friend class PatternTrie;
    AlignedBuffer<int32_t> symbols;  // position x lane
    AlignedBuffer<double> factors;   // batch symbol x position x lane
    AlignedBuffer<double> rows;      // depth x window step x lane
    AlignedBuffer<double> lane_best;  // pattern x lane
    std::vector<const double*> path_rows;  // row per depth of the path
    std::vector<uint32_t> steps;           // window steps per depth
    std::vector<double> open;  // running max of a record across groups
  };
  Scratch MakeScratch() const;

  /// Adds, for each of records[0, count) in order, the match — or, for a
  /// support trie, the 0/1 support — of every pattern into sums[i]
  /// (num_patterns() entries). A one-record call cuts its record into at
  /// least lanes() pieces, so the per-record API keeps the vector width.
  void Sum(const SequenceRecord* records, size_t count, Scratch* scratch,
           double* sums) const;

  /// Sets best[i] (num_patterns() entries, all overwritten) to the match —
  /// or, for a support trie, the 0/1 support — of pattern i in `seq`.
  void Best(const Sequence& seq, Scratch* scratch, double* best) const;

  /// Allocating convenience for tests and one-off calls.
  std::vector<double> Best(const Sequence& seq) const;

 private:
  template <class SequenceAt>
  void SumSequences(size_t count, SequenceAt sequence_at, Scratch* scratch,
                    double* sums) const;

  std::vector<WindowTrie::Node> nodes_;
  std::vector<uint32_t> pattern_ids_;  // grouped by ending node
  std::vector<SymbolId> row_syms_;     // batch symbol of each factor row
  // c->Row(row_syms_[r]) per factor row; empty for a support trie.
  std::vector<const double*> matrix_rows_;
  AlignedBuffer<double> ones_;  // the root row
  size_t max_depth_ = 0;
  size_t num_patterns_ = 0;
};

/// Match of every pattern in `patterns` over the whole database
/// (Definition 3.7), computed in ONE scan. On failure `*values` is
/// meaningless; miners must surface the status instead of consuming the
/// partial counts. Retried scan attempts reset the accumulators via the
/// database's restart callback, so retries never double-count.
///
/// All counters take an exec::ExecPolicy: sequences are sharded across
/// worker threads and per-shard partial sums are merged in fixed shard
/// order, so results are bit-identical for every num_threads (including
/// the default serial policy) and the number of charged scans never
/// changes — only wall-clock time does.
///
/// When exec.run is set, the TryCount* variants refuse to start a scan for
/// an already-stopped run (kCancelled/kDeadlineExceeded, no scan charged)
/// and discard the accumulation of a scan stopped midway (the scan stays
/// charged; a resumed run repeats it).
Status TryCountMatches(const SequenceDatabase& db,
                       const CompatibilityMatrix& c,
                       const std::vector<Pattern>& patterns,
                       std::vector<double>* values,
                       const exec::ExecPolicy& exec = {});

/// Support of every pattern over the whole database, in one scan.
Status TryCountSupports(const SequenceDatabase& db,
                        const std::vector<Pattern>& patterns,
                        std::vector<double>* values,
                        const exec::ExecPolicy& exec = {});

/// Convenience wrappers for infallible (in-memory) databases: tests,
/// examples, and benches. Scan errors are impossible there; fallible
/// databases must go through the TryCount* variants.
std::vector<double> CountMatches(const SequenceDatabase& db,
                                 const CompatibilityMatrix& c,
                                 const std::vector<Pattern>& patterns,
                                 const exec::ExecPolicy& exec = {});

/// Support of every pattern over the whole database, in one scan.
std::vector<double> CountSupports(const SequenceDatabase& db,
                                  const std::vector<Pattern>& patterns,
                                  const exec::ExecPolicy& exec = {});

/// The counting kernel behind TryCountMatches/TryCountSupports, exported
/// for out-of-process scan sharding (distributed workers). A kernel is
/// built once per candidate batch (it owns the batch's PatternTrie) and
/// folds one exec shard's records, in order, into a zeroed partial of
/// num_patterns() doubles, exactly as ShardedScanReducer does. A worker
/// that merges those partials in ascending shard order reproduces the
/// in-process counters bit for bit.
class BatchCountKernel {
 public:
  /// `c` == nullptr counts binary supports; otherwise matches under `c`.
  /// Both `patterns` and `c` must outlive the kernel.
  BatchCountKernel(const std::vector<Pattern>& patterns,
                   const CompatibilityMatrix* c);
  ~BatchCountKernel();
  BatchCountKernel(const BatchCountKernel&) = delete;
  BatchCountKernel& operator=(const BatchCountKernel&) = delete;

  /// Folds one exec shard's records[0, count) into `partial`, all lanes
  /// full; safe to call concurrently.
  void CountShard(const SequenceRecord* records, size_t count,
                  std::vector<double>* partial) const;

  /// A fresh per-record fold with fresh scratch, for callers that see one
  /// record at a time; safe to call concurrently.
  exec::RecordFn MakeRecordFn() const;

  size_t num_patterns() const { return num_patterns_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  size_t num_patterns_ = 0;
};

/// In-memory variants used for the sample (no scan is charged).
std::vector<double> CountMatchesInRecords(
    const std::vector<SequenceRecord>& records, const CompatibilityMatrix& c,
    const std::vector<Pattern>& patterns, const exec::ExecPolicy& exec = {});
std::vector<double> CountSupportsInRecords(
    const std::vector<SequenceRecord>& records,
    const std::vector<Pattern>& patterns, const exec::ExecPolicy& exec = {});

}  // namespace nmine

#endif  // NMINE_LATTICE_PATTERN_COUNTER_H_
