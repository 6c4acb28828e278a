#include "nmine/core/match.h"

#include <cassert>

#include "nmine/core/match_kernel.h"

namespace nmine {

// SegmentMatch is the semantics reference for the whole kernel stack: the
// SIMD kernels' exact re-evaluation path (detail::ExactWindowProduct) is
// this loop — same factor order, same zero short-circuit — which is what
// makes mined pattern sets bit-identical across --simd levels. Keep the
// two in lockstep; MatchKernelTest.SegmentMatchIsTheExactReference pins it.
double SegmentMatch(const CompatibilityMatrix& c, const Pattern& p,
                    const Sequence& seq, size_t offset) {
  assert(offset + p.length() <= seq.size());
  double match = 1.0;
  for (size_t i = 0; i < p.length(); ++i) {
    SymbolId true_sym = p[i];
    if (IsWildcard(true_sym)) continue;
    // Column(observed)[true] is the same entry as c(true, observed); the
    // column pointer keeps the inner load a single index.
    match *= c.Column(seq[offset + i])[static_cast<size_t>(true_sym)];
    if (match == 0.0) return 0.0;
  }
  return match;
}

double SequenceMatch(const CompatibilityMatrix& c, const Pattern& p,
                     const Sequence& seq) {
  if (seq.size() < p.length()) return 0.0;
  // Single-pattern entry to the process-wide match kernel (scalar or SIMD,
  // chosen by --simd / runtime dispatch). The prepared pattern's buffers
  // are reused per thread so steady-state calls allocate nothing.
  thread_local PreparedPattern prep;
  prep.Prepare(c, p);
  return ActiveMatchKernel().BestMatch(prep, seq);
}

double SequenceSupport(const Pattern& p, const Sequence& seq) {
  if (seq.size() < p.length()) return 0.0;
  const size_t windows = seq.size() - p.length() + 1;
  for (size_t offset = 0; offset < windows; ++offset) {
    bool hit = true;
    for (size_t i = 0; i < p.length(); ++i) {
      SymbolId s = p[i];
      if (!IsWildcard(s) && s != seq[offset + i]) {
        hit = false;
        break;
      }
    }
    if (hit) return 1.0;
  }
  return 0.0;
}

}  // namespace nmine
