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
  static constexpr size_t kLanes = kAvx2Lanes;

  // One masked gather per position: a lane whose symbol is -1 (past its
  // piece's end) is not loaded and reads +0.0. A gather copies each
  // entry, so the row is bit-identical to the scalar loop.
  __attribute__((always_inline)) static void GatherRow(const double* row,
                                                       const int32_t* symbols,
                                                       size_t positions,
                                                       double* out) {
    const __m256d zero = _mm256_setzero_pd();
    const __m128i none = _mm_set1_epi32(-1);
    for (size_t p = 0; p < positions; ++p) {
      const __m128i idx = _mm_load_si128(
          reinterpret_cast<const __m128i*>(symbols + p * kLanes));
      // The gather reads the sign bit of each 64-bit mask lane.
      const __m256d live = _mm256_castsi256_pd(
          _mm256_cvtepi32_epi64(_mm_cmpgt_epi32(idx, none)));
      _mm256_store_pd(out + p * kLanes,
                      _mm256_mask_i32gather_pd(zero, row, idx, live, 8));
    }
  }

  // One vector per window step of four lanes, in two independent max
  // chains; a max of the same values is the same in any order.
  __attribute__((always_inline)) static bool ProductMax(const double* a,
                                                        const double* b,
                                                        size_t steps,
                                                        double* out,
                                                        double* peak) {
    __m256d best0 = _mm256_setzero_pd();
    __m256d best1 = _mm256_setzero_pd();
    size_t s = 0;
    for (; s + 2 <= steps; s += 2) {
      const double* a0 = a + s * kLanes;
      const double* b0 = b + s * kLanes;
      const __m256d v0 = _mm256_mul_pd(_mm256_load_pd(a0), _mm256_load_pd(b0));
      const __m256d v1 = _mm256_mul_pd(_mm256_load_pd(a0 + kLanes),
                                       _mm256_load_pd(b0 + kLanes));
      _mm256_store_pd(out + s * kLanes, v0);
      _mm256_store_pd(out + s * kLanes + kLanes, v1);
      best0 = _mm256_max_pd(best0, v0);
      best1 = _mm256_max_pd(best1, v1);
    }
    if (s < steps) {
      const __m256d v = _mm256_mul_pd(_mm256_load_pd(a + s * kLanes),
                                      _mm256_load_pd(b + s * kLanes));
      _mm256_store_pd(out + s * kLanes, v);
      best0 = _mm256_max_pd(best0, v);
    }
    const __m256d best = _mm256_max_pd(best0, best1);
    _mm256_store_pd(peak, best);
    return _mm256_movemask_pd(
               _mm256_cmp_pd(best, _mm256_setzero_pd(), _CMP_GT_OQ)) != 0;
  }
};

}  // namespace

NMINE_WALK_ALIGNED void WalkTrieAvx2(const WindowTrie& trie,
                                     const WindowLanes& group,
                                     const WindowTrieBuffers& buffers,
                                     double* best) {
  WalkTrie<Avx2Steps>(trie, group, buffers, best);
}

void GatherRowAvx2(const double* row, const int32_t* symbols,
                   size_t positions, double* out) {
  Avx2Steps::GatherRow(row, symbols, positions, out);
}

bool ProductMaxAvx2(const double* a, const double* b, size_t steps,
                    double* out, double* peak) {
  return Avx2Steps::ProductMax(a, b, steps, out, peak);
}

}  // namespace detail
}  // namespace nmine

#endif  // NMINE_HAVE_AVX2
