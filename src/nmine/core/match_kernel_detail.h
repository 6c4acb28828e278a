#ifndef NMINE_CORE_MATCH_KERNEL_DETAIL_H_
#define NMINE_CORE_MATCH_KERNEL_DETAIL_H_

#include <cstddef>

namespace nmine {
namespace detail {

// The per-ISA steps shared between the kernel dispatcher (match_kernel.cc)
// and the per-ISA translation units (match_kernel_avx2.cc / _neon.cc).
//
// The per-ISA files are compiled with wider instruction sets enabled
// (-mavx2), so they must not instantiate inline functions from the wider
// library: the linker could pick the ISA-flagged copy for the whole
// binary and leak vector encodings into the portable build. This header
// therefore carries raw pointers only; everything with a body lives in
// match_kernel.cc, which is compiled with baseline flags.

/// MatchKernel::ProductMax: out[i] = a[i] * b[i], returning max(0, out).
/// Lane products are single IEEE multiplies and max only selects, so
/// results are bit-identical to the scalar loop. Defined only in their
/// translation units — the dispatcher gates on NMINE_HAVE_AVX2 /
/// NMINE_HAVE_NEON.
double ProductMaxAvx2(const double* a, const double* b, size_t n,
                      double* out);
double ProductMaxNeon(const double* a, const double* b, size_t n,
                      double* out);

}  // namespace detail
}  // namespace nmine

#endif  // NMINE_CORE_MATCH_KERNEL_DETAIL_H_
