#ifndef NMINE_MINING_MINERS_H_
#define NMINE_MINING_MINERS_H_

#include <string>

#include "nmine/core/compatibility_matrix.h"
#include "nmine/db/sequence_database.h"
#include "nmine/mining/miner_options.h"
#include "nmine/mining/mining_result.h"

namespace nmine {

/// One miner, under the name job specs and `nmine_cli mine --algorithm`
/// select it by.
struct MinerEntry {
  const char* name;
  MiningResult (*mine)(Metric metric, const MinerOptions& options,
                       const SequenceDatabase& db,
                       const CompatibilityMatrix& c);
};

/// Every miner, the default (border collapsing) first.
extern const MinerEntry kMiners[5];

/// The miner called `name`, or nullptr when there is none.
const MinerEntry* FindMiner(const std::string& name);

}  // namespace nmine

#endif  // NMINE_MINING_MINERS_H_
