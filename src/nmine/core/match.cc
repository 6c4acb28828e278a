#include "nmine/core/match.h"

#include <cassert>

namespace nmine {

// The window trie (lattice/pattern_counter.cc) multiplies in this loop's
// factor order; keep the two in lockstep.
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
  double best = 0.0;
  for (size_t offset = 0; offset + p.length() <= seq.size(); ++offset) {
    const double match = SegmentMatch(c, p, seq, offset);
    if (match > best) best = match;
  }
  return best;
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
