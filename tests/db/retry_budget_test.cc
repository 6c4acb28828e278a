// RetryBudget: the per-run cap on cumulative retries across all scans.
// Covers the counting contract, the published gauge, thread-safety of the
// shared pool, and the RunScanWithRetry integration (exhaustion surfaces
// the failure with a typed message instead of retrying forever).
#include <atomic>
#include <climits>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nmine/core/status.h"
#include "nmine/db/format.h"
#include "nmine/db/retry.h"
#include "nmine/db/sequence_database.h"
#include "nmine/obs/metrics.h"
#include "nmine/serve/job.h"

namespace nmine {
namespace {

TEST(RetryBudgetTest, UnlimitedBudgetNeverBlocks) {
  RetryBudget budget(-1);
  EXPECT_TRUE(budget.unlimited());
  EXPECT_EQ(budget.remaining(), INT64_MAX);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(budget.TryConsume());
  EXPECT_EQ(budget.used(), 0);  // unlimited pools track nothing
}

TEST(RetryBudgetTest, CountsDownAndPublishesTheGauge) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  RetryBudget budget(3);
  EXPECT_EQ(budget.remaining(), 3);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("db.scan.retry_budget_remaining"), 3.0);

  EXPECT_TRUE(budget.TryConsume());
  EXPECT_TRUE(budget.TryConsume());
  EXPECT_DOUBLE_EQ(reg.GaugeValue("db.scan.retry_budget_remaining"), 1.0);
  EXPECT_TRUE(budget.TryConsume());
  EXPECT_FALSE(budget.TryConsume());  // spent
  EXPECT_FALSE(budget.TryConsume());  // stays spent
  EXPECT_EQ(budget.remaining(), 0);
  EXPECT_EQ(budget.used(), 3);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("db.scan.retry_budget_remaining"), 0.0);
}

TEST(RetryBudgetTest, ConcurrentConsumersNeverOverspend) {
  constexpr int64_t kTotal = 100;
  RetryBudget budget(kTotal);
  std::atomic<int64_t> granted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&budget, &granted] {
      for (int i = 0; i < 50; ++i) {
        if (budget.TryConsume()) granted.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(granted.load(), kTotal);  // 400 asked, exactly 100 granted
  EXPECT_EQ(budget.remaining(), 0);
}

TEST(RetryBudgetTest, ExhaustionStopsRunScanWithRetry) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const int64_t exhausted_before =
      reg.CounterValue("db.scan.retry_budget_exhausted");

  RetryPolicy policy;
  policy.max_attempts = 5;
  RetryBudget budget(1);
  FakeSleeper sleeper;
  int attempts = 0;
  Status status = RunScanWithRetry(
      policy, &sleeper, /*can_replay=*/true, "test scan",
      [&attempts](int) {
        ++attempts;
        ScanAttempt outcome;
        outcome.status = Status::Unavailable("disk flapping");
        return outcome;
      },
      &budget);

  // First attempt + the single budgeted retry; the per-scan limit of 5
  // never gets a say.
  EXPECT_EQ(attempts, 2);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(status.message().find("run retry budget of 1 exhausted"),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ(reg.CounterValue("db.scan.retry_budget_exhausted"),
            exhausted_before + 1);
}

TEST(RetryBudgetTest, BudgetIsSharedAcrossScansOfOneRun) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  RetryBudget budget(2);
  FakeSleeper sleeper;

  // Two scans that each fail once then recover: each spends one retry.
  for (int scan = 0; scan < 2; ++scan) {
    Status status = RunScanWithRetry(
        policy, &sleeper, /*can_replay=*/true, "test scan",
        [](int attempt) {
          ScanAttempt outcome;
          if (attempt == 0) {
            outcome.status = Status::Unavailable("hiccup");
          }
          return outcome;
        },
        &budget);
    EXPECT_TRUE(status.ok()) << "scan " << scan;
  }
  EXPECT_EQ(budget.remaining(), 0);

  // The third scan's transient failure can no longer be retried.
  int attempts = 0;
  Status status = RunScanWithRetry(
      policy, &sleeper, /*can_replay=*/true, "test scan",
      [&attempts](int) {
        ++attempts;
        ScanAttempt outcome;
        outcome.status = Status::Unavailable("hiccup");
        return outcome;
      },
      &budget);
  EXPECT_EQ(attempts, 1);
  EXPECT_FALSE(status.ok());
}

TEST(RetryBudgetTest, AJobRetriesAFaultInOneLayerWithOrWithoutAFaultPlan) {
  // A file cut after the job opened it fails every scan attempt. Under a
  // fault plan that never fires, the RetryingDatabase above the injector
  // retries it; the reader below must not retry each of those attempts
  // again.
  const std::string path =
      std::string(::testing::TempDir()) + "/retry_layers.nmsq";
  std::vector<SequenceRecord> records(40);
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].id = static_cast<SequenceId>(i);
    records[i].symbols = {0, 1, static_cast<SymbolId>(i % 5)};
  }
  for (const char* plan : {"", "fail-scan:99"}) {
    ASSERT_TRUE(dbformat::WriteDatabaseFile(path, records).ok);
    serve::JobSpec spec;
    spec.db_path = path;
    spec.fault_plan = plan;
    spec.scan_retries = 2;
    spec.retry_backoff_ms = 0.0;
    spec.retry_budget = 100;
    Status error;
    std::unique_ptr<serve::JobInputs> inputs =
        serve::OpenJobInputs(spec, &error);
    ASSERT_NE(inputs, nullptr) << error.ToString();
    std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
    Status scan = inputs->mining_db().Scan([](const SequenceRecord&) {});
    EXPECT_EQ(scan.code(), StatusCode::kUnavailable) << "plan '" << plan << "'";
    EXPECT_EQ(inputs->retry_budget->used(), spec.scan_retries)
        << "plan '" << plan << "'";
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace nmine
