// NEON single-pattern window screen and window-trie product step.
// Compiled only on AArch64 (AdvSIMD is baseline there, so no special flags
// are needed), and kept to free functions for symmetry with the AVX2
// translation unit — see match_kernel_detail.h.
#if defined(NMINE_HAVE_NEON)

#include <arm_neon.h>

#include <cstddef>
#include <cstdint>

#include "nmine/core/match_kernel_detail.h"

namespace nmine {
namespace detail {

double BestWindowsNeon(const WindowPlan& p, size_t windows) {
  double best = 0.0;
  float thr = ScreenThreshold(best, p.guard);
  size_t wb = 0;
  for (; wb + 4 <= windows; wb += 4) {
    // Screening sums for 4 consecutive windows. NEON has no gather, so
    // each term's 4 log factors are read from the log table row for the
    // term's symbol with scalar loads and summed as one vector.
    const float32x4_t thrv = vdupq_n_f32(thr);
    float32x4_t sum = vdupq_n_f32(0.0f);
    bool alive = true;
    for (size_t t = 0; t < p.num_terms; ++t) {
      const float* lrow =
          p.log_rows + static_cast<size_t>(p.term_syms[t]) * p.m;
      const SymbolId* s = p.seq + wb + static_cast<size_t>(p.term_offsets[t]);
      const float terms[4] = {lrow[static_cast<size_t>(s[0])],
                              lrow[static_cast<size_t>(s[1])],
                              lrow[static_cast<size_t>(s[2])],
                              lrow[static_cast<size_t>(s[3])]};
      sum = vaddq_f32(sum, vld1q_f32(terms));
      // Early abandon: entries are probabilities <= 1, so the sums are
      // monotone non-increasing. Test every 4th term.
      if ((t & 3u) == 3u && vmaxvq_u32(vcgtq_f32(sum, thrv)) == 0) {
        alive = false;
        break;
      }
    }
    if (!alive) continue;
    uint32x4_t gt = vcgtq_f32(sum, thrv);
    uint32_t lanes[4];
    vst1q_u32(lanes, gt);
    // Ascending window order keeps the running-best trajectory (and all
    // screening decisions) identical to the scalar kernel.
    for (size_t lane = 0; lane < 4; ++lane) {
      if (lanes[lane] == 0) continue;
      double match = ExactWindowProduct(p, wb + lane);
      if (match > best) {
        best = match;
        thr = ScreenThreshold(best, p.guard);
      }
    }
  }
  for (; wb < windows; ++wb) {
    double match = ExactWindowProduct(p, wb);
    if (match > best) best = match;
  }
  return best;
}

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
