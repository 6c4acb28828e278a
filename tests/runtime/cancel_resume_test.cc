// Cancellation / deadline determinism: a run cancelled in the middle of
// any phase fails closed with kCancelled, flushes its whole-run checkpoint,
// and a resumed run produces bit-identical frequent patterns, match values,
// and border — with the cumulative charged scans equal to an uninterrupted
// run's, at one and at four threads. Cancelled scans are never recorded in
// a checkpoint (their accumulation was discarded), so the resumed run
// replays them and the paper's cost metric stays honest.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nmine/core/status.h"
#include "nmine/db/sequence_database.h"
#include "nmine/gen/workload.h"
#include "nmine/mining/border_collapse_miner.h"
#include "nmine/mining/miners.h"
#include "nmine/runtime/run_control.h"
#include "test_util.h"

namespace nmine {
namespace {

/// Decorator that requests cooperative cancellation when a chosen scan
/// starts (after_records == 0) or after delivering `after_records` records
/// of that scan — simulating a SIGINT/SIGTERM arriving mid-pass.
class CancellingDatabase : public SequenceDatabase {
 public:
  CancellingDatabase(const SequenceDatabase* inner, runtime::RunControl* run,
                     int cancel_at_scan, int after_records)
      : inner_(inner),
        run_(run),
        cancel_at_scan_(cancel_at_scan),
        after_records_(after_records) {}

  size_t NumSequences() const override { return inner_->NumSequences(); }
  uint64_t TotalSymbols() const override { return inner_->TotalSymbols(); }

  Status Scan(const Visitor& visitor,
              const RestartFn& restart) const override {
    CountScan();
    const int scan = scans_started_++;
    if (scan == cancel_at_scan_ && after_records_ == 0) {
      run_->RequestCancel();
    }
    int delivered = 0;
    return inner_->Scan(
        [&](const SequenceRecord& rec) {
          if (scan == cancel_at_scan_ && after_records_ > 0 &&
              ++delivered == after_records_) {
            run_->RequestCancel();
          }
          visitor(rec);
        },
        restart);
  }

 private:
  const SequenceDatabase* inner_;
  runtime::RunControl* run_;
  int cancel_at_scan_;
  int after_records_;
  mutable int scans_started_ = 0;
};

class CancelResumeTest : public ::testing::Test {
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
    o.sample_size = 30;
    o.delta = 0.05;
    o.seed = 3;
    o.max_counters_per_scan = 4;  // forces several Phase-3 probe scans
    return o;
  }

  NoisyWorkload workload_;
};

TEST_F(CancelResumeTest, CancelDuringEachPhaseResumesBitIdentical) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    MinerOptions base = Options();
    base.num_threads = threads;
    MiningResult clean =
        BorderCollapseMiner(Metric::kMatch, base)
            .Mine(workload_.test, workload_.matrix);
    ASSERT_TRUE(clean.ok()) << clean.status.ToString();
    // Scan 0 is Phase 1; scans 1.. are Phase-3 probes. We need at least
    // two probe scans so the mid-Phase-3 cancel finds a checkpoint.
    ASSERT_GE(clean.scans, 3) << "workload collapses in a single probe scan";

    struct CancelPoint {
      const char* phase;
      int scan;           // which scan triggers the cancel
      int after_records;  // 0 = at scan start, else mid-scan
    };
    const std::vector<CancelPoint> points = {
        {"phase1", 0, 10},                             // mid Phase-1 scan
        {"phase2", 1, 0},                              // right after Phase 2
        {"phase3", static_cast<int>(clean.scans) - 1, 5},  // deep in Phase 3
    };

    for (const CancelPoint& pt : points) {
      SCOPED_TRACE(std::string(pt.phase) + " threads=" +
                   std::to_string(threads));
      const std::string ckpt = std::string(::testing::TempDir()) +
                               "/cancel_" + pt.phase + "_t" +
                               std::to_string(threads) + ".ckpt";
      std::remove(ckpt.c_str());

      runtime::RunControl run;
      MinerOptions options = base;
      options.run_checkpoint_path = ckpt;
      options.run_control = &run;
      BorderCollapseMiner miner(Metric::kMatch, options);

      CancellingDatabase db(&workload_.test, &run, pt.scan,
                            pt.after_records);
      MiningResult interrupted = miner.Mine(db, workload_.matrix);
      ASSERT_FALSE(interrupted.ok());
      EXPECT_EQ(interrupted.status.code(), StatusCode::kCancelled);
      // Fail-closed: never a silently-partial pattern set.
      EXPECT_TRUE(interrupted.frequent.ToSortedVector().empty());
      EXPECT_TRUE(interrupted.border.ToSortedVector().empty());

      // Resume with the same options against the healthy database.
      run.Reset();
      MiningResult resumed = miner.Mine(workload_.test, workload_.matrix);
      ASSERT_TRUE(resumed.ok()) << resumed.status.ToString();
      EXPECT_EQ(clean.frequent.ToSortedVector(),
                resumed.frequent.ToSortedVector());
      EXPECT_EQ(clean.border.ToSortedVector(),
                resumed.border.ToSortedVector());
      // Match values are bit-identical (the checkpoint stores %.17g
      // doubles; sample-accepted estimates replay from the same sample).
      EXPECT_EQ(clean.values, resumed.values);
      // Cumulative charged scans: checkpointed scans plus the resumed
      // run's remaining work equal the uninterrupted total — a cancelled
      // scan is discarded, not checkpointed, and replayed on resume.
      EXPECT_EQ(resumed.scans, clean.scans);
      // Success removes the checkpoint.
      EXPECT_FALSE(std::ifstream(ckpt).good());
    }
  }
}

TEST_F(CancelResumeTest, ExpiredDeadlineFailsBeforeChargingAnyScan) {
  runtime::RunControl run;
  run.SetDeadlineAfter(-1.0);
  MinerOptions options = Options();
  options.run_control = &run;
  const int64_t scans_before = workload_.test.scan_count();
  MiningResult r = BorderCollapseMiner(Metric::kMatch, options)
                       .Mine(workload_.test, workload_.matrix);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(r.frequent.ToSortedVector().empty());
  EXPECT_EQ(workload_.test.scan_count(), scans_before);
}

TEST_F(CancelResumeTest, EveryMinerFailsClosedWhenPreCancelled) {
  runtime::RunControl run;
  run.RequestCancel();
  MinerOptions options = Options();
  options.run_control = &run;
  const CompatibilityMatrix& c = workload_.matrix;

  std::vector<std::pair<std::string, MiningResult>> runs;
  for (const MinerEntry& miner : kMiners) {
    runs.emplace_back(miner.name,
                      miner.mine(Metric::kMatch, options, workload_.test, c));
  }
  for (const auto& [name, r] : runs) {
    EXPECT_EQ(r.status.code(), StatusCode::kCancelled) << name;
    EXPECT_TRUE(r.frequent.ToSortedVector().empty()) << name;
    EXPECT_TRUE(r.border.ToSortedVector().empty()) << name;
    EXPECT_TRUE(r.values.empty()) << name;
  }
}

}  // namespace
}  // namespace nmine
