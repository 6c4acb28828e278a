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

/// The first `n` (< 8) lanes of a vector of 8.
inline __mmask8 TailMask(size_t n) {
  return static_cast<__mmask8>((1u << n) - 1u);
}

// GCC's unmasked gather, max and reduce intrinsics pass an uninitialized
// source register and warn (-Wmaybe-uninitialized); the all-lanes masked
// forms with a defined source are the same instructions.
inline __m512d Max(__m512d a, __m512d b) {
  return _mm512_mask_max_pd(a, 0xFF, a, b);
}

inline double ReduceMax(__m512d v) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d v4 =
      _mm256_max_pd(_mm512_mask_extractf64x4_pd(zero, 0xF, v, 0),
                    _mm512_mask_extractf64x4_pd(zero, 0xF, v, 1));
  const __m128d v2 = _mm_max_pd(_mm256_castpd256_pd128(v4),
                                _mm256_extractf128_pd(v4, 1));
  return _mm_cvtsd_f64(_mm_max_sd(v2, _mm_unpackhi_pd(v2, v2)));
}

struct Avx512Steps {
  // Eight windows per gather, and the tail as one masked gather: a masked
  // lane is neither loaded nor stored. A gather copies each entry, so the
  // row is bit-identical to the scalar loop.
  __attribute__((always_inline)) static void GatherRow(const double* row,
                                                       const SymbolId* seq,
                                                       size_t n, double* out) {
    const __m512d zero = _mm512_setzero_pd();
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256i idx =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(seq + j));
      _mm512_storeu_pd(out + j,
                       _mm512_mask_i32gather_pd(zero, 0xFF, idx, row, 8));
    }
    if (j < n) {
      const __mmask8 live = TailMask(n - j);
      const __m256i idx = _mm256_maskz_loadu_epi32(live, seq + j);
      _mm512_mask_storeu_pd(out + j, live,
                            _mm512_mask_i32gather_pd(zero, live, idx, row, 8));
    }
  }

  // Two independent max chains of 8 (16 windows per iteration), one more
  // step of 8, and a masked step for the rest: its dead lanes load +0.0,
  // so their product is +0.0 and cannot raise a max that starts at 0. The
  // reduction order of a max never changes its value.
  __attribute__((always_inline)) static double ProductMax(const double* a,
                                                          const double* b,
                                                          size_t n,
                                                          double* out) {
    __m512d best0 = _mm512_setzero_pd();
    __m512d best1 = _mm512_setzero_pd();
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
      const __m512d v0 =
          _mm512_mul_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i));
      const __m512d v1 = _mm512_mul_pd(_mm512_loadu_pd(a + i + 8),
                                       _mm512_loadu_pd(b + i + 8));
      _mm512_storeu_pd(out + i, v0);
      _mm512_storeu_pd(out + i + 8, v1);
      best0 = Max(best0, v0);
      best1 = Max(best1, v1);
    }
    if (i + 8 <= n) {
      const __m512d v =
          _mm512_mul_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i));
      _mm512_storeu_pd(out + i, v);
      best0 = Max(best0, v);
      i += 8;
    }
    if (i < n) {
      const __mmask8 live = TailMask(n - i);
      const __m512d v = _mm512_mul_pd(_mm512_maskz_loadu_pd(live, a + i),
                                      _mm512_maskz_loadu_pd(live, b + i));
      _mm512_mask_storeu_pd(out + i, live, v);
      best1 = Max(best1, v);
    }
    return ReduceMax(Max(best0, best1));
  }
};

}  // namespace

NMINE_WALK_ALIGNED void WalkTrieAvx512(const WindowTrie& trie,
                                       const SymbolId* seq, size_t n,
                                       const WindowTrieBuffers& buffers,
                                       double* best) {
  WalkTrie<Avx512Steps>(trie, seq, n, buffers, best);
}

void GatherRowAvx512(const double* row, const SymbolId* seq, size_t n,
                     double* out) {
  Avx512Steps::GatherRow(row, seq, n, out);
}

double ProductMaxAvx512(const double* a, const double* b, size_t n,
                        double* out) {
  return Avx512Steps::ProductMax(a, b, n, out);
}

}  // namespace detail
}  // namespace nmine

#endif  // NMINE_HAVE_AVX512
