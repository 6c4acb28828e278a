#ifndef NMINE_CORE_MATCH_KERNEL_DETAIL_H_
#define NMINE_CORE_MATCH_KERNEL_DETAIL_H_

#include <cstddef>
#include <cstdint>

#include "nmine/core/symbol.h"

namespace nmine {
namespace detail {

// Plain-data views shared between the kernel dispatcher (match_kernel.cc)
// and the per-ISA translation units (match_kernel_avx2.cc / _neon.cc).
//
// The per-ISA files are compiled with wider instruction sets enabled
// (-mavx2), so they must not instantiate inline functions from the wider
// library: the linker could pick the ISA-flagged copy for the whole
// binary and leak vector encodings into the portable build. This header
// therefore carries raw pointers only; everything with a body lives in
// match_kernel.cc, which is compiled with baseline flags.

/// One pattern's sliding-window evaluation, prepared against one sequence.
///
/// Log-space screen: window w's screening score is
///   sum_t log_rows[term_syms[t] * m + seq[w + term_offsets[t]]]
/// (float adds of cached log-compatibility entries; -inf marks a zero
/// factor). Any window whose exact double product can exceed the running
/// best scores above ScreenThreshold(best, guard) — see the guard-band
/// derivation in DESIGN.md section 16 — so survivors are re-derived with
/// ExactWindowProduct and results stay bit-identical to the scalar oracle.
struct WindowPlan {
  const int32_t* term_offsets = nullptr; // window offset per non-wildcard
  const SymbolId* term_syms = nullptr;   // true symbol per such position
  size_t num_terms = 0;
  float guard = 0.0f;                    // screening guard band (log space)
  const SymbolId* seq = nullptr;         // the sequence (observed symbols)
  // Column bases: column s of the double matrix is cols_base + s*m, row s
  // of the float log table is log_rows + s*m. Columns resolve lazily from
  // `seq` — screening leaves so few exact re-derivations that hoisting a
  // per-position column array costs more than it saves.
  const double* cols_base = nullptr;
  const float* log_rows = nullptr;
  size_t m = 0;                          // alphabet size (row/col stride)
};

/// The exact double product of window `w` — the same factors, in the same
/// order, with the same zero short-circuit as SegmentMatch (the semantics
/// reference). Every kernel funnels accepted windows through this.
double ExactWindowProduct(const WindowPlan& p, size_t w);

/// Float screening threshold for the current best: conservatively below
/// log(best) by `guard`, and -inf (screen nothing with a finite score)
/// when best is small enough that the exact product could be subnormal.
float ScreenThreshold(double best, float guard);

/// Max-over-windows exact match; the scalar reference loop.
double BestWindowsScalar(const WindowPlan& p, size_t windows);

/// Per-ISA window loops: 8 (AVX2) / 4 (NEON) windows advance per step
/// with a per-lane early-abandon test, screening terms read straight from
/// the log table; candidates re-derive through ExactWindowProduct.
/// Defined only in their translation units — the dispatcher gates on
/// NMINE_HAVE_AVX2 / NMINE_HAVE_NEON.
double BestWindowsFusedAvx2(const WindowPlan& p, size_t windows);
double BestWindowsNeon(const WindowPlan& p, size_t windows);

/// MatchKernel::ProductMax: out[i] = a[i] * b[i], returning max(0, out).
/// Lane products are single IEEE multiplies and max only selects, so
/// results are bit-identical to the scalar loop.
double ProductMaxAvx2(const double* a, const double* b, size_t n,
                      double* out);
double ProductMaxNeon(const double* a, const double* b, size_t n,
                      double* out);

}  // namespace detail
}  // namespace nmine

#endif  // NMINE_CORE_MATCH_KERNEL_DETAIL_H_
