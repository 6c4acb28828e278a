#ifndef NMINE_CORE_MATCH_KERNEL_H_
#define NMINE_CORE_MATCH_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "nmine/core/symbol.h"

namespace nmine {

/// The instruction-set tiers a match kernel can be built for. kScalar is
/// always available; every wider kernel must write bit-identical window
/// trie rows, so mined results never depend on the level.
enum class SimdLevel {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
  kAvx512 = 3,
};

/// "scalar", "avx2", "neon", "avx512" — static storage (safe for
/// RunStatusBoard).
const char* SimdLevelName(SimdLevel level);

/// Vector features of a host, as probed (DetectCpuFeatures) or mocked
/// (dispatch unit tests).
struct CpuFeatures {
  bool avx2 = false;
  bool avx512 = false;  // both AVX-512F and AVX-512VL
  bool neon = false;
};

/// Probes the running CPU: CPUID-backed __builtin_cpu_supports on x86,
/// HWCAP on AArch64 Linux.
CpuFeatures DetectCpuFeatures();

/// True if this build contains a kernel for `level` (per-ISA translation
/// units are only compiled on matching architectures).
bool KernelCompiled(SimdLevel level);

/// Resolves a --simd flag value ("auto", "scalar", "avx2", "avx512",
/// "neon") against `features`: "auto" picks the widest kernel that is both
/// compiled in and supported by `features` (avx512 > avx2 > neon > scalar;
/// never an ISA the host lacks); an explicit ISA request fails with a
/// diagnostic when unavailable.
/// Returns false and sets *error on an unknown value or an unsatisfiable
/// request.
bool ResolveSimdLevel(const std::string& flag, const CpuFeatures& features,
                      SimdLevel* out, std::string* error);

/// The window trie (lattice/pattern_counter.h) as a kernel walks it: flat
/// arrays owned by PatternTrie, nodes in DFS preorder. Per sequence the
/// windows are processed in tiles of kTileWindows; per tile every factor
/// row holds C(s, seq[j]) for its batch symbol s (0/1 for supports), and
/// each node's row is its parent's row times the factor row of its edge
/// symbol, shifted by depth - 1 (SegmentMatch's factor order).
struct WindowTrie {
  /// Windows per tile: node rows and factor rows stay cache-resident
  /// however long the sequence is.
  static constexpr size_t kTileWindows = 128;

  /// One node; its subtree is [self, end).
  struct Node {
    uint32_t depth = 0;          // pattern positions on the root path
    int32_t row = -1;            // factor row of the edge symbol; -1 = `*`
    uint32_t end = 0;            // one past the last node of the subtree
    uint32_t first_pattern = 0;  // into pattern_ids
    uint32_t num_patterns = 0;   // patterns ending at this node
  };

  const Node* nodes = nullptr;
  size_t num_nodes = 0;
  const uint32_t* pattern_ids = nullptr;  // grouped by ending node
  size_t num_patterns = 0;
  const SymbolId* row_syms = nullptr;  // batch symbol of each factor row
  /// CompatibilityMatrix::Row(row_syms[r]) for every factor row r, or
  /// nullptr for a support trie (factor 1 where seq[j] == row_syms[r]).
  const double* const* matrix_rows = nullptr;
  size_t num_rows = 0;
  const double* ones = nullptr;  // the root row: kTileWindows ones
  size_t max_depth = 0;
};

/// One worker's buffers for a walk (PatternTrie::Scratch), sized from the
/// trie: the walk allocates nothing.
struct WindowTrieBuffers {
  double* factors = nullptr;  // num_rows x (kTileWindows + max_depth)
  double* rows = nullptr;     // max_depth x kTileWindows
  const double** path_rows = nullptr;  // the row of each depth of the path
};

/// One instruction set's window-trie walk, selected once per process
/// (runtime ISA dispatch) and called once per sequence. Each kernel runs
/// the same walk (match_kernel_detail.h) with its own two steps inlined,
/// and both steps copy or multiply single IEEE doubles, so mined pattern
/// sets and match values are bit-identical across kernels at any thread
/// count. SegmentMatch/SequenceMatch (core/match.h) are the scalar
/// reference the trie is tested against; they do not dispatch.
class MatchKernel {
 public:
  virtual ~MatchKernel() = default;

  virtual SimdLevel level() const = 0;
  const char* name() const { return SimdLevelName(level()); }

  /// Sets best[i] (trie.num_patterns entries, all overwritten) to the max
  /// over the windows of seq[0, n) of every pattern ending in the trie.
  virtual void WalkTrie(const WindowTrie& trie, const SymbolId* seq, size_t n,
                        const WindowTrieBuffers& buffers,
                        double* best) const = 0;

  /// The walk's two steps, exposed so that every kernel can be checked
  /// against the scalar one. GatherRow fills a factor row:
  /// out[j] = row[seq[j]] for j < n, a copy of each entry.
  virtual void GatherRow(const double* row, const SymbolId* seq, size_t n,
                         double* out) const = 0;

  /// The node step: out[i] = a[i] * b[i] for i < n, returning the max of 0
  /// and every out[i]. One IEEE multiply per element.
  virtual double ProductMax(const double* a, const double* b, size_t n,
                            double* out) const = 0;
};

/// The kernel for `level`, or nullptr when this build lacks it.
const MatchKernel* GetMatchKernel(SimdLevel level);

/// Installs the process-wide kernel used by the batch counters. Verifies
/// the level is compiled in AND supported by the real host (mock features
/// never reach this); returns false with *error otherwise. Call once at
/// startup, before mining threads exist.
bool SetActiveMatchKernel(SimdLevel level, std::string* error);

/// The process-wide kernel: the widest supported one until
/// SetActiveMatchKernel overrides it.
const MatchKernel& ActiveMatchKernel();
const char* ActiveMatchKernelName();

}  // namespace nmine

#endif  // NMINE_CORE_MATCH_KERNEL_H_
