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
/// arrays owned by PatternTrie, nodes in DFS preorder. A walk covers one
/// lane group (WindowLanes): every vector lane holds a piece of a
/// different record, and the node loop runs along window offsets. Per
/// group every factor row holds C(s, seq[j]) (0/1 for supports) for its
/// batch symbol s at each position j of each lane, and each node's row is
/// its parent's row times the factor row of its edge symbol, shifted by
/// depth - 1 positions (SegmentMatch's factor order).
///
/// Buffers are lane-interleaved: position (or window offset) p of lane l
/// is entry p * lanes + l, so one window step of every lane is one
/// aligned vector.
struct WindowTrie {
  /// Window starts a lane owns within a record piece, and so the window
  /// steps of a node: a piece is at most kTileWindows windows plus the
  /// max_depth - 1 symbols its deepest windows reach, so a group's node
  /// and factor rows stay cache-resident however long its records are.
  static constexpr size_t kTileWindows = 32;
  /// The widest kernel's lane count (AVX-512); buffers are sized for it,
  /// so one PatternTrie::Scratch serves every kernel.
  static constexpr size_t kMaxLanes = 8;

  /// One node; its subtree is [self, end).
  struct Node {
    uint32_t depth = 0;          // pattern positions on the root path
    int32_t row = -1;            // factor row of the edge symbol; -1 = `*`
    uint32_t end = 0;            // one past the last node of the subtree
    uint32_t first_pattern = 0;  // into pattern_ids
    uint32_t num_patterns = 0;   // patterns ending at this node
  };

  /// Entries per node or factor row: every position a lane can hold,
  /// for kMaxLanes lanes.
  static size_t RowStride(size_t max_depth) {
    return (kTileWindows + max_depth - 1) * kMaxLanes;
  }

  const Node* nodes = nullptr;
  size_t num_nodes = 0;
  const uint32_t* pattern_ids = nullptr;  // grouped by ending node
  size_t num_patterns = 0;
  const SymbolId* row_syms = nullptr;  // batch symbol of each factor row
  /// CompatibilityMatrix::Row(row_syms[r]) for every factor row r, or
  /// nullptr for a support trie (factor 1 where seq[j] == row_syms[r]).
  const double* const* matrix_rows = nullptr;
  size_t num_rows = 0;
  const double* ones = nullptr;  // the root row: RowStride ones
  size_t max_depth = 0;
};

/// One lane group of a walk. Lane l holds lens[l] symbols from seqs[l]
/// (at most kTileWindows + max_depth - 1, so a lane always fits its row
/// of RowStride entries) and must yield every window that starts at one
/// of its first owned[l] positions and fits in it; lanes past `count` are
/// empty. Windows beyond a lane's end read factor +0.0, so they are 0 and
/// never raise a max.
struct WindowLanes {
  const SymbolId* seqs[WindowTrie::kMaxLanes] = {};
  uint32_t lens[WindowTrie::kMaxLanes] = {};
  uint32_t owned[WindowTrie::kMaxLanes] = {};
  size_t count = 0;
};

/// One worker's buffers for a walk (PatternTrie::Scratch), sized from the
/// trie and 64-byte aligned: the walk allocates nothing, and every vector
/// load and store of a lane step is aligned.
struct WindowTrieBuffers {
  int32_t* symbols = nullptr;  // RowStride lane-interleaved symbols; -1 = pad
  double* factors = nullptr;   // num_rows x RowStride
  double* rows = nullptr;      // max_depth x RowStride
  const double** path_rows = nullptr;  // the row of each depth of the path
  uint32_t* steps = nullptr;   // window steps of each depth, max_depth + 1
};

/// One instruction set's window-trie walk, selected once per process
/// (runtime ISA dispatch) and called once per lane group. Each kernel
/// runs the same walk (match_kernel_detail.h) with its own two steps
/// inlined, and both steps copy or multiply single IEEE doubles lane by
/// lane, so mined pattern sets and match values are bit-identical across
/// kernels at any thread count. SegmentMatch/SequenceMatch (core/match.h)
/// are the scalar reference the trie is tested against; they do not
/// dispatch.
class MatchKernel {
 public:
  virtual ~MatchKernel() = default;

  virtual SimdLevel level() const = 0;
  const char* name() const { return SimdLevelName(level()); }

  /// Records per vector step: 8 on AVX-512, 4 on AVX2, 2 on NEON, 1 on
  /// scalar.
  virtual size_t lanes() const = 0;

  /// Sets best[i * lanes() + l] (trie.num_patterns x lanes() entries, all
  /// overwritten) to the max over lane l's windows of pattern i.
  virtual void WalkTrie(const WindowTrie& trie, const WindowLanes& group,
                        const WindowTrieBuffers& buffers,
                        double* best) const = 0;

  /// The walk's two steps, exposed so that every kernel can be checked
  /// against the scalar one. Both take lane-interleaved buffers
  /// (positions x lanes() entries) aligned to 64 bytes. GatherRow fills a
  /// factor row, a copy of each entry: out[k] = row[symbols[k]], or +0.0
  /// where symbols[k] < 0 (a lane past its end).
  virtual void GatherRow(const double* row, const int32_t* symbols,
                         size_t positions, double* out) const = 0;

  /// The node step over `steps` window steps: out[k] = a[k] * b[k], one
  /// IEEE multiply per entry, and peak[l] = the max of 0 and lane l's
  /// products. Returns whether any lane's peak is above 0.
  virtual bool ProductMax(const double* a, const double* b, size_t steps,
                          double* out, double* peak) const = 0;
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
