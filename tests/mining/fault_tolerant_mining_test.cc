// End-to-end fault tolerance: every miner either absorbs a transient scan
// fault (producing results bit-identical to the fault-free run) or fails
// closed with a typed error and an empty pattern set. Border collapsing
// additionally retries failed probe scans at the miner level and resumes
// an interrupted Phase 3 from its checkpoint.
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nmine/core/status.h"
#include "nmine/db/fault_injecting_database.h"
#include "nmine/db/retry.h"
#include "nmine/db/retrying_database.h"
#include "nmine/gen/workload.h"
#include "nmine/mining/border_collapse_miner.h"
#include "nmine/mining/miners.h"
#include "nmine/obs/metrics.h"
#include "nmine/runtime/run_checkpoint.h"

namespace nmine {
namespace {

using MineFn = std::function<MiningResult(const SequenceDatabase&)>;

class FaultTolerantMiningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WorkloadSpec spec;
    spec.num_sequences = 80;
    spec.min_length = 20;
    spec.max_length = 40;
    spec.num_planted = 2;
    spec.planted_symbols_min = 4;
    spec.planted_symbols_max = 6;
    spec.seed = 77;
    workload_ = MakeUniformNoiseWorkload(spec, 0.1);
  }

  MinerOptions Options() const {
    MinerOptions o;
    o.min_threshold = 0.25;
    o.space.max_span = 6;
    o.sample_size = 30;  // well under N: leaves a real ambiguous region
    o.delta = 0.05;
    o.seed = 3;
    o.max_counters_per_scan = 4;  // forces several Phase-3 probe scans
    return o;
  }

  /// Every miner under test, by name.
  std::vector<std::pair<std::string, MineFn>> Miners() const {
    MinerOptions o = Options();
    const CompatibilityMatrix& c = workload_.matrix;
    std::vector<std::pair<std::string, MineFn>> miners;
    for (const MinerEntry& miner : kMiners) {
      miners.emplace_back(miner.name,
                          [o, &c, &miner](const SequenceDatabase& db) {
                            return miner.mine(Metric::kMatch, o, db, c);
                          });
    }
    return miners;
  }

  NoisyWorkload workload_;
};

TEST_F(FaultTolerantMiningTest, TransientFaultsAreInvisibleWithRetry) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.jitter = 0.0;
  for (const auto& [name, mine] : Miners()) {
    MiningResult clean = mine(workload_.test);
    ASSERT_TRUE(clean.ok()) << name;

    // First attempt of the first scan fails, plus one mid-run transient.
    FaultPlan plan;
    plan.open_fail_scans = 1;
    plan.fail_scan_indices = {3};
    FaultInjectingDatabase injector(&workload_.test, plan);
    FakeSleeper sleeper;
    RetryingDatabase db(&injector, policy, &sleeper);

    MiningResult faulted = mine(db);
    EXPECT_TRUE(faulted.ok()) << name << ": " << faulted.status.ToString();
    EXPECT_EQ(clean.frequent.ToSortedVector(),
              faulted.frequent.ToSortedVector())
        << name;
    EXPECT_EQ(clean.border.ToSortedVector(), faulted.border.ToSortedVector())
        << name;
    // The retrying decorator counts logical scans, so the paper's cost
    // metric is unchanged by the absorbed faults.
    EXPECT_EQ(clean.scans, faulted.scans) << name;
    EXPECT_FALSE(sleeper.slept_ms().empty()) << name;
  }
}

TEST_F(FaultTolerantMiningTest, PermanentFaultFailsClosed) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const int64_t failed_before = reg.CounterValue("mining.failed_runs");
  int miners = 0;
  for (const auto& [name, mine] : Miners()) {
    FaultPlan plan;
    plan.corrupt_from_scan = 0;
    FaultInjectingDatabase injector(&workload_.test, plan);
    RetryPolicy policy;
    policy.max_attempts = 4;
    policy.jitter = 0.0;
    FakeSleeper sleeper;
    RetryingDatabase db(&injector, policy, &sleeper);

    MiningResult r = mine(db);
    EXPECT_FALSE(r.ok()) << name;
    EXPECT_EQ(r.status.code(), StatusCode::kDataLoss) << name;
    // A partial answer is indistinguishable from a complete one, so a
    // failed run must return an empty pattern set.
    EXPECT_TRUE(r.frequent.ToSortedVector().empty()) << name;
    EXPECT_TRUE(r.border.ToSortedVector().empty()) << name;
    // Permanent faults are never retried.
    EXPECT_TRUE(sleeper.slept_ms().empty()) << name;
    ++miners;
  }
  EXPECT_EQ(reg.CounterValue("mining.failed_runs") - failed_before, miners);
}

TEST_F(FaultTolerantMiningTest, Phase3MinerLevelRetryMatchesCleanRun) {
  MinerOptions options = Options();
  options.phase3_scan_retries = 1;
  BorderCollapseMiner miner(Metric::kMatch, options);
  MiningResult clean = miner.Mine(workload_.test, workload_.matrix);
  ASSERT_TRUE(clean.ok());
  // Needs at least one Phase-3 probe scan for the fault below to hit one.
  ASSERT_GE(clean.scans, 2) << "workload leaves no ambiguous region";

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const int64_t retries_before = reg.CounterValue("phase3.scan_retries");

  // Attempt 0 is the Phase-1 scan; attempt 1 is the first probe scan. No
  // retrying decorator here: the retry under test is the miner's own.
  FaultPlan plan;
  plan.fail_scan_indices = {1};
  FaultInjectingDatabase db(&workload_.test, plan);
  MiningResult faulted = miner.Mine(db, workload_.matrix);
  EXPECT_TRUE(faulted.ok()) << faulted.status.ToString();
  EXPECT_EQ(clean.frequent.ToSortedVector(),
            faulted.frequent.ToSortedVector());
  EXPECT_EQ(clean.border.ToSortedVector(), faulted.border.ToSortedVector());
  EXPECT_GE(reg.CounterValue("phase3.scan_retries") - retries_before, 1);
}

TEST_F(FaultTolerantMiningTest, CheckpointResumeMatchesCleanRun) {
  BorderCollapseMiner reference(Metric::kMatch, Options());
  MiningResult clean = reference.Mine(workload_.test, workload_.matrix);
  ASSERT_TRUE(clean.ok());
  // Needs >= 2 probe scans so a checkpoint exists when the fault hits.
  ASSERT_GE(clean.scans, 3) << "workload collapses in a single probe scan";

  const std::string ckpt =
      std::string(::testing::TempDir()) + "/phase3_resume.ckpt";
  runtime::RemoveRunCheckpoint(ckpt);
  MinerOptions options = Options();
  options.run_checkpoint_path = ckpt;
  BorderCollapseMiner miner(Metric::kMatch, options);

  // Run 1: permanent fault on the last probe scan. Fails closed, leaving
  // the checkpoint of the previous good probe on disk.
  FaultPlan plan;
  plan.corrupt_from_scan = static_cast<int>(clean.scans) - 1;
  FaultInjectingDatabase faulty(&workload_.test, plan);
  MiningResult interrupted = miner.Mine(faulty, workload_.matrix);
  ASSERT_FALSE(interrupted.ok());
  EXPECT_TRUE(interrupted.frequent.ToSortedVector().empty());
  EXPECT_TRUE(std::ifstream(ckpt).good()) << "checkpoint missing after fault";

  // Run 2: same configuration against the healthy database resumes from
  // the checkpoint instead of redoing Phases 1-3 from scratch.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const int64_t resumes_before = reg.CounterValue("phase3.resumes");
  MiningResult resumed = miner.Mine(workload_.test, workload_.matrix);
  EXPECT_TRUE(resumed.ok()) << resumed.status.ToString();
  EXPECT_EQ(clean.frequent.ToSortedVector(),
            resumed.frequent.ToSortedVector());
  EXPECT_EQ(clean.border.ToSortedVector(), resumed.border.ToSortedVector());
  // Scan accounting spans the interrupted and resumed runs: checkpointed
  // scans plus this run's remaining probes equal the fault-free total.
  EXPECT_EQ(resumed.scans, clean.scans);
  EXPECT_EQ(reg.CounterValue("phase3.resumes") - resumes_before, 1);
  // Success removes the checkpoint.
  EXPECT_FALSE(std::ifstream(ckpt).good());
}

}  // namespace
}  // namespace nmine
