// NEON window-trie product step. Compiled only on AArch64 (AdvSIMD is
// baseline there, so no special flags are needed), and kept to free
// functions for symmetry with the AVX2 translation unit — see
// match_kernel_detail.h.
#if defined(NMINE_HAVE_NEON)

#include <arm_neon.h>

#include <cstddef>

#include "nmine/core/match_kernel_detail.h"

namespace nmine {
namespace detail {

double ProductMaxNeon(const double* a, const double* b, size_t n,
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

}  // namespace detail
}  // namespace nmine

#endif  // NMINE_HAVE_NEON
