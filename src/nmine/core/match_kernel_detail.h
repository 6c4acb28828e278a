#ifndef NMINE_CORE_MATCH_KERNEL_DETAIL_H_
#define NMINE_CORE_MATCH_KERNEL_DETAIL_H_

#include <cstddef>
#include <cstdint>

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

/// Each vector ISA's lane count: its Steps::kLanes and its
/// MatchKernel::lanes().
inline constexpr size_t kAvx2Lanes = 4;
inline constexpr size_t kAvx512Lanes = 8;
inline constexpr size_t kNeonLanes = 2;

/// MatchKernel::WalkTrie, GatherRow and ProductMax of each ISA. Defined
/// only in their translation units; the dispatcher gates on
/// NMINE_HAVE_AVX2 / NMINE_HAVE_AVX512 / NMINE_HAVE_NEON.
void WalkTrieAvx2(const WindowTrie& trie, const WindowLanes& group,
                  const WindowTrieBuffers& buffers, double* best);
void GatherRowAvx2(const double* row, const int32_t* symbols,
                   size_t positions, double* out);
bool ProductMaxAvx2(const double* a, const double* b, size_t steps,
                    double* out, double* peak);
void WalkTrieAvx512(const WindowTrie& trie, const WindowLanes& group,
                    const WindowTrieBuffers& buffers, double* best);
void GatherRowAvx512(const double* row, const int32_t* symbols,
                     size_t positions, double* out);
bool ProductMaxAvx512(const double* a, const double* b, size_t steps,
                      double* out, double* peak);
void WalkTrieNeon(const WindowTrie& trie, const WindowLanes& group,
                  const WindowTrieBuffers& buffers, double* best);
void GatherRowNeon(const double* row, const int32_t* symbols,
                   size_t positions, double* out);
bool ProductMaxNeon(const double* a, const double* b, size_t steps,
                    double* out, double* peak);

// Cache-line alignment for the exported walk functions; noinline keeps a
// walk that is only called through a kernel's virtual method from being
// inlined there, which would drop the alignment.
#define NMINE_WALK_ALIGNED __attribute__((aligned(64), noinline))

namespace {

/// The lane-group walk of the window trie, written once. `Steps` supplies
/// the ISA's lane count and two steps as static members, inlined here:
///   kLanes
///   GatherRow(row, symbols, positions, out): out[k] = row[symbols[k]]
///   ProductMax(a, b, steps, out, peak) -> any: out[k] = a[k] * b[k]
/// Each kernel's exported walk function inlines this template and is
/// declared NMINE_WALK_ALIGNED, so that where the hot loop falls, and with
/// it the walk's speed, does not move with the size of unrelated code
/// linked before it: shifting the loop by 20 KB once cost the trie 8-12%.
///
/// A node at depth d runs steps[d] window steps: the most any lane needs,
/// min(owned, len - d + 1) windows. Lanes with fewer compute windows that
/// another lane of the record also computes (a max is unchanged by a
/// repeat) or windows past their end, which are 0. There are no tails: a
/// step covers every lane, and a node's children need no more steps than
/// it does, so they never read a stale entry of its row. A lane holds at
/// most kTileWindows + max_depth - 1 positions, so every gather, factor
/// read and node row stays inside its RowStride entries.
template <class Steps>
void WalkTrie(const WindowTrie& trie, const WindowLanes& group,
              const WindowTrieBuffers& buffers, double* best) {
  constexpr size_t kLanes = Steps::kLanes;
  const size_t stride = WindowTrie::RowStride(trie.max_depth);
  int32_t* symbols = buffers.symbols;
  uint32_t* steps = buffers.steps;
  size_t positions = 0;  // symbol vectors to gather
  for (size_t l = 0; l < group.count; ++l) {
    if (group.lens[l] > positions) positions = group.lens[l];
  }
  for (size_t l = 0; l < kLanes; ++l) {
    const size_t len = l < group.count ? group.lens[l] : 0;
    for (size_t p = 0; p < len; ++p) {
      symbols[p * kLanes + l] = group.seqs[l][p];
    }
    for (size_t p = len; p < positions; ++p) symbols[p * kLanes + l] = -1;
  }
  for (size_t d = 1; d <= trie.max_depth; ++d) {
    uint32_t most = 0;
    for (size_t l = 0; l < group.count; ++l) {
      const uint32_t len = group.lens[l];
      if (len < d) continue;
      const uint32_t fit = len - static_cast<uint32_t>(d) + 1;
      const uint32_t need = fit < group.owned[l] ? fit : group.owned[l];
      if (need > most) most = need;
    }
    steps[d] = most;
  }
  for (size_t i = 0; i < trie.num_patterns * kLanes; ++i) best[i] = 0.0;
  for (size_t r = 0; r < trie.num_rows; ++r) {
    double* factor = buffers.factors + r * stride;
    if (trie.matrix_rows != nullptr) {
      Steps::GatherRow(trie.matrix_rows[r], symbols, positions, factor);
    } else {
      const SymbolId sym = trie.row_syms[r];
      for (size_t k = 0; k < positions * kLanes; ++k) {
        factor[k] = symbols[k] == sym ? 1.0 : 0.0;
      }
    }
  }
  // rows[d] is the depth-d row of the current root path; a wildcard edge
  // aliases its parent's row, so a write never hits a row still read.
  const double** rows = buffers.path_rows;
  rows[0] = trie.ones;
  alignas(64) double peak[WindowTrie::kMaxLanes];
  for (size_t i = 0; i < trie.num_nodes;) {
    const WindowTrie::Node& node = trie.nodes[i];
    const size_t d = node.depth;
    if (steps[d] == 0) {  // no lane holds a depth-d window
      i = node.end;
      continue;
    }
    if (node.row < 0) {
      // Patterns never end on `*`, so nothing is recorded here.
      rows[d] = rows[d - 1];
      ++i;
      continue;
    }
    double* factor = buffers.factors + static_cast<size_t>(node.row) * stride;
    if (d == 1 && node.num_patterns == 0) {
      // A depth-1 row is 1.0 times the factor row, which is the factor row
      // itself; with no pattern to record, its children read that row
      // directly and prune for it if it is dead.
      rows[1] = factor;
      ++i;
      continue;
    }
    double* out = buffers.rows + (d - 1) * stride;
    if (!Steps::ProductMax(rows[d - 1], factor + (d - 1) * kLanes, steps[d],
                           out, peak)) {
      i = node.end;  // every window of every lane is dead: skip the subtree
      continue;
    }
    rows[d] = out;
    for (uint32_t k = 0; k < node.num_patterns; ++k) {
      double* slot =
          best + trie.pattern_ids[node.first_pattern + k] * kLanes;
      for (size_t l = 0; l < kLanes; ++l) {
        if (peak[l] > slot[l]) slot[l] = peak[l];
      }
    }
    ++i;
  }
}

}  // namespace
}  // namespace detail
}  // namespace nmine

#endif  // NMINE_CORE_MATCH_KERNEL_DETAIL_H_
