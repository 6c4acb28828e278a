// AVX2 single-pattern window screen and window-trie product step. This
// translation unit is compiled with -mavx2 (see src/CMakeLists.txt) and
// must therefore define ONLY these free functions — no inline library
// instantiations that the linker could pick for the portable build (see
// match_kernel_detail.h).
#if defined(NMINE_HAVE_AVX2)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "nmine/core/match_kernel_detail.h"

namespace nmine {
namespace detail {
namespace {

// Full-mask gather with a zeroed source. The plain _mm256_i32gather_ps
// intrinsic routes through _mm256_undefined_*, which GCC flags with a
// maybe-uninitialized warning on every build; the masked forms encode to
// the same vgatherdps instruction.
inline __m256 GatherPs(const float* base, __m256i idx) {
  return _mm256_mask_i32gather_ps(
      _mm256_setzero_ps(), base, idx,
      _mm256_castsi256_ps(_mm256_set1_epi32(-1)), 4);
}

}  // namespace

double BestWindowsFusedAvx2(const WindowPlan& p, size_t windows) {
  static_assert(sizeof(SymbolId) == sizeof(int32_t),
                "fused screening gathers assume 32-bit symbol ids");
  double best = 0.0;
  float thr = ScreenThreshold(best, p.guard);
  size_t wb = 0;
  for (; wb + 8 <= windows; wb += 8) {
    // No plane: gather each term's 8 log factors straight from the log
    // table row for that term's symbol. Gathers cost more than the plane
    // loop's plain loads, but a single pattern would pay one full table
    // pass per plane row first — strictly more memory traffic. The
    // early-abandon check runs every 2nd term because each skipped term
    // saves a whole gather.
    const __m256 thrv = _mm256_set1_ps(thr);
    __m256 sum = _mm256_setzero_ps();
    bool alive = true;
    for (size_t t = 0; t < p.num_terms; ++t) {
      const float* lrow =
          p.log_rows + static_cast<size_t>(p.term_syms[t]) * p.m;
      const __m256i vsym = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
          p.seq + wb + static_cast<size_t>(p.term_offsets[t])));
      sum = _mm256_add_ps(sum, GatherPs(lrow, vsym));
      if ((t & 1u) == 1u &&
          _mm256_movemask_ps(_mm256_cmp_ps(sum, thrv, _CMP_GT_OQ)) == 0) {
        alive = false;
        break;
      }
    }
    if (!alive) continue;
    int mask = _mm256_movemask_ps(_mm256_cmp_ps(sum, thrv, _CMP_GT_OQ));
    while (mask != 0) {
      int lane = __builtin_ctz(static_cast<unsigned>(mask));
      mask &= mask - 1;
      double match = ExactWindowProduct(p, wb + static_cast<size_t>(lane));
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

double ProductMaxAvx2(const double* a, const double* b, size_t n,
                      double* out) {
  // Two independent max chains keep the multiply and max ports busy; the
  // reduction order of a max never changes its value.
  __m256d best0 = _mm256_setzero_pd();
  __m256d best1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d v0 =
        _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    const __m256d v1 =
        _mm256_mul_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4));
    _mm256_storeu_pd(out + i, v0);
    _mm256_storeu_pd(out + i + 4, v1);
    best0 = _mm256_max_pd(best0, v0);
    best1 = _mm256_max_pd(best1, v1);
  }
  if (i + 4 <= n) {
    const __m256d v =
        _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    _mm256_storeu_pd(out + i, v);
    best0 = _mm256_max_pd(best0, v);
    i += 4;
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, _mm256_max_pd(best0, best1));
  double best = lanes[0];
  for (size_t k = 1; k < 4; ++k) {
    if (lanes[k] > best) best = lanes[k];
  }
  for (; i < n; ++i) {
    const double v = a[i] * b[i];
    out[i] = v;
    if (v > best) best = v;
  }
  return best;
}

}  // namespace detail
}  // namespace nmine

#endif  // NMINE_HAVE_AVX2
