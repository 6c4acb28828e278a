#ifndef NMINE_TESTS_TEST_UTIL_H_
#define NMINE_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "nmine/core/compatibility_matrix.h"
#include "nmine/core/match_kernel.h"
#include "nmine/lattice/candidate_gen.h"
#include "nmine/core/pattern.h"
#include "nmine/db/in_memory_database.h"

namespace nmine {
namespace testutil {

/// The 5-symbol compatibility matrix of the paper's Figure 2.
CompatibilityMatrix Figure2Matrix();

/// The 4-sequence database of the paper's Figure 4(a):
///   1: d1 d2 d3 d1
///   2: d4 d2 d1
///   3: d3 d4 d2 d1
///   4: d2 d2
/// (Symbols are 0-based ids: d1 = 0, ..., d5 = 4.)
InMemorySequenceDatabase Figure4Database();

/// Shorthand for building a pattern from 0-based ids; -1 is the wildcard.
Pattern P(std::vector<int> ids);

/// Naive per-pattern match counter: the test oracle for PatternTrie.
/// Returns the Definition-3.7 average of SequenceMatch over the records.
std::vector<double> NaiveMatches(const std::vector<SequenceRecord>& records,
                                 const CompatibilityMatrix& c,
                                 const std::vector<Pattern>& patterns);

/// Enumerates every valid pattern in the bounded space (all bodies over
/// the m-symbol alphabet with non-wildcard endpoints, span <= max_span,
/// wildcard runs <= max_gap). For exhaustive brute-force verification.
std::vector<Pattern> EnumeratePatterns(size_t m,
                                       const PatternSpaceOptions& opts);

/// Naive support counter oracle.
std::vector<double> NaiveSupports(const std::vector<SequenceRecord>& records,
                                  const std::vector<Pattern>& patterns);

/// Kernels this build compiled and this host can run; scalar first.
std::vector<SimdLevel> RunnableKernels();

/// The `Threads:` count of /proc/self/status, or -1 where it is missing.
int ProcessThreadCount();

/// ProcessThreadCount() once it is at most `target`, polling for up to
/// two seconds: a thread can stay counted for a moment after its join
/// returns, because the kernel drops it from the count only after waking
/// the joiner.
int SettledThreadCount(int target);

struct HttpResult {
  int status = 0;
  std::string content_type;
  std::string body;
};

/// Raw-socket GET against 127.0.0.1:port — the same thing the CI smoke
/// drill does with curl, without depending on curl. nullopt when the
/// connection or the reply fails.
std::optional<HttpResult> HttpGet(uint16_t port, const std::string& path,
                                  const std::string& method = "GET");

}  // namespace testutil
}  // namespace nmine

#endif  // NMINE_TESTS_TEST_UTIL_H_
