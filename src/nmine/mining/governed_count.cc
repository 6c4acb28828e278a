#include "nmine/mining/governed_count.h"

#include <algorithm>

namespace nmine {

size_t CounterBytes(const Pattern& p) {
  // Trie share (nodes + child edges) plus four accumulator slots: the
  // totals and a few per-shard partials. A sharded reduction holds up to
  // 4 x threads partials (exec/sharded_reduce.cc), so past one thread
  // this under-counts them: by 13 doubles a pattern at 4 threads.
  return runtime::PatternBytes(p) + 4 * sizeof(double);
}

Status GovernedCount(const std::vector<Pattern>& patterns,
                     runtime::ResourceGovernor* governor,
                     const runtime::RunControl* run,
                     const BatchCountFn& count, std::vector<double>* values) {
  values->clear();
  if (patterns.empty()) return Status::Ok();
  if (governor == nullptr || governor->unlimited()) {
    Status s = runtime::CheckRun(run);
    if (!s.ok()) return s;
    return count(patterns, values);
  }
  values->reserve(patterns.size());
  size_t pos = 0;
  while (pos < patterns.size()) {
    Status s = runtime::CheckRun(run);
    if (!s.ok()) return s;
    const size_t want = patterns.size() - pos;
    const size_t admitted =
        governor->AdmitBatch(want, CounterBytes(patterns[pos]));
    if (admitted == 0) {
      return Status::ResourceExhausted(
          "memory budget cannot hold a single pattern counter");
    }
    std::vector<Pattern> batch(
        patterns.begin() + static_cast<long>(pos),
        patterns.begin() + static_cast<long>(pos + admitted));
    std::vector<double> batch_values;
    s = count(batch, &batch_values);
    if (!s.ok()) return s;
    values->insert(values->end(), batch_values.begin(), batch_values.end());
    pos += admitted;
  }
  return Status::Ok();
}

}  // namespace nmine
