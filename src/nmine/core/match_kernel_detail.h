#ifndef NMINE_CORE_MATCH_KERNEL_DETAIL_H_
#define NMINE_CORE_MATCH_KERNEL_DETAIL_H_

#include <cstddef>

#include "nmine/core/match_kernel.h"

namespace nmine {
namespace detail {

// The window-trie walk shared by the kernel dispatcher (match_kernel.cc,
// the scalar kernel) and the per-ISA translation units
// (match_kernel_avx2.cc / _avx512.cc / _neon.cc).
//
// The per-ISA files are compiled with wider instruction sets enabled
// (-mavx2, -mavx512f -mavx512vl), so they must not instantiate anything
// with external linkage from the wider library: the linker could pick the
// ISA-flagged copy for the whole binary and leak vector encodings into the
// portable build. The walk is therefore a template with internal linkage
// (anonymous namespace) that calls nothing out of line but its Steps, and
// each per-ISA file exports only the free functions declared below.

/// MatchKernel::WalkTrie, GatherRow and ProductMax of each ISA. Defined
/// only in their translation units; the dispatcher gates on
/// NMINE_HAVE_AVX2 / NMINE_HAVE_AVX512 / NMINE_HAVE_NEON.
void WalkTrieAvx2(const WindowTrie& trie, const SymbolId* seq, size_t n,
                  const WindowTrieBuffers& buffers, double* best);
void GatherRowAvx2(const double* row, const SymbolId* seq, size_t n,
                   double* out);
double ProductMaxAvx2(const double* a, const double* b, size_t n,
                      double* out);
void WalkTrieAvx512(const WindowTrie& trie, const SymbolId* seq, size_t n,
                    const WindowTrieBuffers& buffers, double* best);
void GatherRowAvx512(const double* row, const SymbolId* seq, size_t n,
                     double* out);
double ProductMaxAvx512(const double* a, const double* b, size_t n,
                        double* out);
void WalkTrieNeon(const WindowTrie& trie, const SymbolId* seq, size_t n,
                  const WindowTrieBuffers& buffers, double* best);
void GatherRowNeon(const double* row, const SymbolId* seq, size_t n,
                   double* out);
double ProductMaxNeon(const double* a, const double* b, size_t n,
                      double* out);

// Cache-line alignment for the exported walk functions; noinline keeps a
// walk that is only called through a kernel's virtual method from being
// inlined there, which would drop the alignment.
#define NMINE_WALK_ALIGNED __attribute__((aligned(64), noinline))

namespace {

/// The tile loop of the window trie, written once. `Steps` supplies the
/// ISA's two steps as static functions, inlined here:
///   GatherRow(row, seq, n, out):     out[j] = row[seq[j]]
///   ProductMax(a, b, n, out) -> max: out[i] = a[i] * b[i]
/// Each kernel's exported walk function inlines this template and is
/// declared NMINE_WALK_ALIGNED, so that where the hot loop falls, and with
/// it the walk's speed, does not move with the size of unrelated code
/// linked before it: shifting the loop by 20 KB once cost the trie 8-12%.
template <class Steps>
void WalkTrie(const WindowTrie& trie, const SymbolId* seq, size_t n,
              const WindowTrieBuffers& buffers, double* best) {
  constexpr size_t kTile = WindowTrie::kTileWindows;
  for (size_t i = 0; i < trie.num_patterns; ++i) best[i] = 0.0;
  const size_t stride = kTile + trie.max_depth;
  // rows[d] is the depth-d row of the current root path; a wildcard edge
  // aliases its parent's row, so a write never hits a row still read.
  const double** rows = buffers.path_rows;
  rows[0] = trie.ones;
  for (size_t t0 = 0; t0 < n; t0 += kTile) {
    // A depth-d window starting at t0 + w reads positions up to
    // t0 + w + d - 1, so the tile needs kTile + max_depth - 1 positions
    // at most.
    const SymbolId* tile = seq + t0;
    const size_t len = n - t0 < stride - 1 ? n - t0 : stride - 1;
    for (size_t r = 0; r < trie.num_rows; ++r) {
      double* factor = buffers.factors + r * stride;
      if (trie.matrix_rows != nullptr) {
        Steps::GatherRow(trie.matrix_rows[r], tile, len, factor);
      } else {
        const SymbolId sym = trie.row_syms[r];
        for (size_t j = 0; j < len; ++j) {
          factor[j] = tile[j] == sym ? 1.0 : 0.0;
        }
      }
    }
    for (size_t i = 0; i < trie.num_nodes;) {
      const WindowTrie::Node& node = trie.nodes[i];
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
      double* out = buffers.rows + (d - 1) * kTile;
      const size_t windows = n - d + 1 - t0 < kTile ? n - d + 1 - t0 : kTile;
      const double peak = Steps::ProductMax(
          rows[d - 1],
          buffers.factors + static_cast<size_t>(node.row) * stride + d - 1,
          windows, out);
      if (peak == 0.0) {  // every window is dead: skip the subtree
        i = node.end;
        continue;
      }
      rows[d] = out;
      for (uint32_t k = 0; k < node.num_patterns; ++k) {
        double& slot = best[trie.pattern_ids[node.first_pattern + k]];
        if (peak > slot) slot = peak;
      }
      ++i;
    }
  }
}

}  // namespace
}  // namespace detail
}  // namespace nmine

#endif  // NMINE_CORE_MATCH_KERNEL_DETAIL_H_
