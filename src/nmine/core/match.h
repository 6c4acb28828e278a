#ifndef NMINE_CORE_MATCH_H_
#define NMINE_CORE_MATCH_H_

#include <cstddef>

#include "nmine/core/compatibility_matrix.h"
#include "nmine/core/pattern.h"
#include "nmine/core/sequence.h"

namespace nmine {

/// Match of pattern `p` in the length-l segment of `seq` starting at
/// `offset` (Definition 3.5): the product of C(p[i], seq[offset + i]) in
/// pattern order, returning 0 at the first zero factor.
/// Precondition: offset + p.length() <= seq.size().
///
/// SegmentMatch and SequenceMatch are the scalar reference: miners count
/// through the window trie (lattice/pattern_counter.h), which multiplies
/// in this factor order on every SIMD kernel, and the tests check the
/// trie against these two functions. They do not depend on the active
/// match kernel.
double SegmentMatch(const CompatibilityMatrix& c, const Pattern& p,
                    const Sequence& seq, size_t offset);

/// Match of pattern `p` in sequence `seq` (Definition 3.6): the maximum
/// of SegmentMatch over all sliding-window positions. Returns 0 when the
/// sequence is shorter than the pattern. Each window's product
/// short-circuits on a zero factor (Algorithm 4.2 behaviour), which makes
/// the common sparse-matrix case run in near-linear time.
double SequenceMatch(const CompatibilityMatrix& c, const Pattern& p,
                     const Sequence& seq);

/// Classical (binary) support of `p` in `seq`: 1.0 if some window of `seq`
/// matches `p` exactly (wildcards match anything), else 0.0. Identical to
/// SequenceMatch under the identity matrix; provided separately so the
/// support model does not pay for probability arithmetic.
double SequenceSupport(const Pattern& p, const Sequence& seq);

}  // namespace nmine

#endif  // NMINE_CORE_MATCH_H_
