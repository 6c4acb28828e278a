// NEON window-trie kernel. Compiled only on AArch64 (AdvSIMD is baseline
// there, so no special flags are needed), and kept to free functions for
// symmetry with the AVX2 translation unit — see match_kernel_detail.h.
#if defined(NMINE_HAVE_NEON)

#include <arm_neon.h>

#include <cstddef>

#include "nmine/core/match_kernel_detail.h"

namespace nmine {
namespace detail {
namespace {

struct NeonSteps {
  // AdvSIMD has no gather: a plain loop of copies.
  __attribute__((always_inline)) static void GatherRow(const double* row,
                                                       const SymbolId* seq,
                                                       size_t n, double* out) {
    for (size_t j = 0; j < n; ++j) out[j] = row[seq[j]];
  }

  __attribute__((always_inline)) static double ProductMax(const double* a,
                                                          const double* b,
                                                          size_t n,
                                                          double* out) {
    float64x2_t best2 = vdupq_n_f64(0.0);
    size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      const float64x2_t v = vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i));
      vst1q_f64(out + i, v);
      best2 = vmaxq_f64(best2, v);
    }
    double best = vmaxvq_f64(best2);
    for (; i < n; ++i) {
      const double v = a[i] * b[i];
      out[i] = v;
      if (v > best) best = v;
    }
    return best;
  }
};

}  // namespace

NMINE_WALK_ALIGNED void WalkTrieNeon(const WindowTrie& trie,
                                     const SymbolId* seq, size_t n,
                                     const WindowTrieBuffers& buffers,
                                     double* best) {
  WalkTrie<NeonSteps>(trie, seq, n, buffers, best);
}

void GatherRowNeon(const double* row, const SymbolId* seq, size_t n,
                   double* out) {
  NeonSteps::GatherRow(row, seq, n, out);
}

double ProductMaxNeon(const double* a, const double* b, size_t n,
                      double* out) {
  return NeonSteps::ProductMax(a, b, n, out);
}

}  // namespace detail
}  // namespace nmine

#endif  // NMINE_HAVE_NEON
