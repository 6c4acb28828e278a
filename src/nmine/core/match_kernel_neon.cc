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
  static constexpr size_t kLanes = kNeonLanes;

  // AdvSIMD has no gather: a plain loop of copies.
  __attribute__((always_inline)) static void GatherRow(const double* row,
                                                       const int32_t* symbols,
                                                       size_t positions,
                                                       double* out) {
    for (size_t k = 0; k < positions * kLanes; ++k) {
      out[k] = symbols[k] < 0 ? 0.0 : row[symbols[k]];
    }
  }

  // One vector per window step of two lanes.
  __attribute__((always_inline)) static bool ProductMax(const double* a,
                                                        const double* b,
                                                        size_t steps,
                                                        double* out,
                                                        double* peak) {
    float64x2_t best = vdupq_n_f64(0.0);
    for (size_t s = 0; s < steps; ++s) {
      const float64x2_t v =
          vmulq_f64(vld1q_f64(a + s * kLanes), vld1q_f64(b + s * kLanes));
      vst1q_f64(out + s * kLanes, v);
      best = vmaxq_f64(best, v);
    }
    vst1q_f64(peak, best);
    return vmaxvq_f64(best) > 0.0;
  }
};

}  // namespace

NMINE_WALK_ALIGNED void WalkTrieNeon(const WindowTrie& trie,
                                     const WindowLanes& group,
                                     const WindowTrieBuffers& buffers,
                                     double* best) {
  WalkTrie<NeonSteps>(trie, group, buffers, best);
}

void GatherRowNeon(const double* row, const int32_t* symbols,
                   size_t positions, double* out) {
  NeonSteps::GatherRow(row, symbols, positions, out);
}

bool ProductMaxNeon(const double* a, const double* b, size_t steps,
                    double* out, double* peak) {
  return NeonSteps::ProductMax(a, b, steps, out, peak);
}

}  // namespace detail
}  // namespace nmine

#endif  // NMINE_HAVE_NEON
