// AVX-512 window-trie kernel. This translation unit is compiled with
// -mavx512f -mavx512vl (see src/CMakeLists.txt) and must therefore define
// ONLY free functions — no inline library instantiations that the linker
// could pick for the portable build (see match_kernel_detail.h).
#if defined(NMINE_HAVE_AVX512)

#include <immintrin.h>

#include <cstddef>

#include "nmine/core/match_kernel_detail.h"

namespace nmine {
namespace detail {
namespace {

// GCC's unmasked gather and max intrinsics pass an uninitialized source
// register and warn (-Wmaybe-uninitialized); the all-lanes masked forms
// with a defined source are the same instructions.
inline __m512d Max(__m512d a, __m512d b) {
  return _mm512_mask_max_pd(a, 0xFF, a, b);
}

struct Avx512Steps {
  static constexpr size_t kLanes = kAvx512Lanes;

  // One masked gather per position: a lane whose symbol is -1 (past its
  // piece's end) is neither loaded nor nonzero. A gather copies each
  // entry, so the row is bit-identical to the scalar loop.
  __attribute__((always_inline)) static void GatherRow(const double* row,
                                                       const int32_t* symbols,
                                                       size_t positions,
                                                       double* out) {
    const __m512d zero = _mm512_setzero_pd();
    const __m256i none = _mm256_set1_epi32(-1);
    for (size_t p = 0; p < positions; ++p) {
      const __m256i idx = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(symbols + p * kLanes));
      const __mmask8 live = _mm256_cmpgt_epi32_mask(idx, none);
      _mm512_store_pd(out + p * kLanes,
                      _mm512_mask_i32gather_pd(zero, live, idx, row, 8));
    }
  }

  // One vector per window step of eight lanes, in two independent max
  // chains; a max of the same values is the same in any order.
  __attribute__((always_inline)) static bool ProductMax(const double* a,
                                                        const double* b,
                                                        size_t steps,
                                                        double* out,
                                                        double* peak) {
    __m512d best0 = _mm512_setzero_pd();
    __m512d best1 = _mm512_setzero_pd();
    size_t s = 0;
    for (; s + 2 <= steps; s += 2) {
      const double* a0 = a + s * kLanes;
      const double* b0 = b + s * kLanes;
      const __m512d v0 = _mm512_mul_pd(_mm512_load_pd(a0), _mm512_load_pd(b0));
      const __m512d v1 = _mm512_mul_pd(_mm512_load_pd(a0 + kLanes),
                                       _mm512_load_pd(b0 + kLanes));
      _mm512_store_pd(out + s * kLanes, v0);
      _mm512_store_pd(out + s * kLanes + kLanes, v1);
      best0 = Max(best0, v0);
      best1 = Max(best1, v1);
    }
    if (s < steps) {
      const __m512d v = _mm512_mul_pd(_mm512_load_pd(a + s * kLanes),
                                      _mm512_load_pd(b + s * kLanes));
      _mm512_store_pd(out + s * kLanes, v);
      best0 = Max(best0, v);
    }
    const __m512d best = Max(best0, best1);
    _mm512_store_pd(peak, best);
    return _mm512_cmp_pd_mask(best, _mm512_setzero_pd(), _CMP_GT_OQ) != 0;
  }
};

}  // namespace

NMINE_WALK_ALIGNED void WalkTrieAvx512(const WindowTrie& trie,
                                       const WindowLanes& group,
                                       const WindowTrieBuffers& buffers,
                                       double* best) {
  WalkTrie<Avx512Steps>(trie, group, buffers, best);
}

void GatherRowAvx512(const double* row, const int32_t* symbols,
                     size_t positions, double* out) {
  Avx512Steps::GatherRow(row, symbols, positions, out);
}

bool ProductMaxAvx512(const double* a, const double* b, size_t steps,
                      double* out, double* peak) {
  return Avx512Steps::ProductMax(a, b, steps, out, peak);
}

}  // namespace detail
}  // namespace nmine

#endif  // NMINE_HAVE_AVX512
