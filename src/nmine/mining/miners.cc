#include "nmine/mining/miners.h"

#include "nmine/mining/border_collapse_miner.h"
#include "nmine/mining/depth_first_miner.h"
#include "nmine/mining/levelwise_miner.h"
#include "nmine/mining/max_miner.h"
#include "nmine/mining/toivonen_miner.h"

namespace nmine {
namespace {

template <typename Miner>
MiningResult Mine(Metric metric, const MinerOptions& options,
                  const SequenceDatabase& db, const CompatibilityMatrix& c) {
  return Miner(metric, options).Mine(db, c);
}

}  // namespace

const MinerEntry kMiners[5] = {
    {"collapse", Mine<BorderCollapseMiner>},
    {"levelwise", Mine<LevelwiseMiner>},
    {"maxminer", Mine<MaxMiner>},
    {"toivonen", Mine<ToivonenMiner>},
    {"depthfirst", Mine<DepthFirstMiner>},
};

const MinerEntry* FindMiner(const std::string& name) {
  for (const MinerEntry& miner : kMiners) {
    if (name == miner.name) return &miner;
  }
  return nullptr;
}

}  // namespace nmine
