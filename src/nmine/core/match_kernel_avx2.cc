// AVX2 window-trie kernel. This translation unit is compiled with -mavx2
// (see src/CMakeLists.txt) and must therefore define ONLY free functions —
// no inline library instantiations that the linker could pick for the
// portable build (see match_kernel_detail.h).
#if defined(NMINE_HAVE_AVX2)

#include <immintrin.h>

#include <cstddef>

#include "nmine/core/match_kernel_detail.h"

namespace nmine {
namespace detail {
namespace {

struct Avx2Steps {
  // Four windows per gather. A gather copies each entry, so the row is
  // bit-identical to the scalar loop.
  __attribute__((always_inline)) static void GatherRow(const double* row,
                                                       const SymbolId* seq,
                                                       size_t n, double* out) {
    // The masked form with every lane enabled: the unmasked intrinsic
    // leaves its source register uninitialized, which GCC warns about.
    const __m256d zero = _mm256_setzero_pd();
    const __m256d all = _mm256_cmp_pd(zero, zero, _CMP_EQ_OQ);
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const __m128i idx =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(seq + j));
      _mm256_storeu_pd(out + j,
                       _mm256_mask_i32gather_pd(zero, row, idx, all, 8));
    }
    for (; j < n; ++j) out[j] = row[seq[j]];
  }

  // Two independent max chains keep the multiply and max ports busy; the
  // reduction order of a max never changes its value.
  __attribute__((always_inline)) static double ProductMax(const double* a,
                                                          const double* b,
                                                          size_t n,
                                                          double* out) {
    __m256d best0 = _mm256_setzero_pd();
    __m256d best1 = _mm256_setzero_pd();
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256d v0 =
          _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
      const __m256d v1 = _mm256_mul_pd(_mm256_loadu_pd(a + i + 4),
                                       _mm256_loadu_pd(b + i + 4));
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
};

}  // namespace

NMINE_WALK_ALIGNED void WalkTrieAvx2(const WindowTrie& trie,
                                     const SymbolId* seq, size_t n,
                                     const WindowTrieBuffers& buffers,
                                     double* best) {
  WalkTrie<Avx2Steps>(trie, seq, n, buffers, best);
}

void GatherRowAvx2(const double* row, const SymbolId* seq, size_t n,
                   double* out) {
  Avx2Steps::GatherRow(row, seq, n, out);
}

double ProductMaxAvx2(const double* a, const double* b, size_t n,
                      double* out) {
  return Avx2Steps::ProductMax(a, b, n, out);
}

}  // namespace detail
}  // namespace nmine

#endif  // NMINE_HAVE_AVX2
