#include "nmine/net/status_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "nmine/obs/json_parse.h"
#include "nmine/obs/metrics.h"
#include "nmine/runtime/run_status.h"
#include "test_util.h"

namespace nmine {
namespace net {
namespace {

using testutil::HttpGet;
using testutil::HttpResult;

class StatusServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Health signals read process-wide state that earlier tests (or an
    // earlier --gtest_repeat round) leave behind: clear the sticky budget
    // counter and the governor board, and take a fresh retry baseline.
    obs::MetricsRegistry::Global()
        .GetCounter("db.scan.retry_budget_exhausted")
        .Reset();
    runtime::RunStatusBoard::Global().Reset();
    (void)StatusServer::HealthzBody();
    std::string error;
    StatusServer::Options options;  // port 0: ephemeral
    ASSERT_TRUE(server_.Start(options, &error)) << error;
    ASSERT_NE(server_.port(), 0);
  }
  void TearDown() override { server_.Stop(); }

  StatusServer server_;
};

TEST_F(StatusServerTest, HealthzReportsOk) {
  std::optional<HttpResult> r = HttpGet(server_.port(), "/healthz");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 200);
  std::optional<obs::JsonValue> doc = obs::ParseJson(r->body);
  ASSERT_TRUE(doc.has_value()) << r->body;
  const obs::JsonValue* status = doc->Get("status");
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->string_value, "ok");
  EXPECT_GE(doc->GetNumber("uptime_s", -1.0), 0.0);
}

/// True when the /healthz "reasons" array contains `reason`.
bool HasReason(const obs::JsonValue& doc, const std::string& reason) {
  const obs::JsonValue* reasons = doc.Get("reasons");
  if (reasons == nullptr || !reasons->is_array()) return false;
  for (const obs::JsonValue& r : reasons->array) {
    if (r.string_value == reason) return true;
  }
  return false;
}

std::optional<obs::JsonValue> PollHealthz(uint16_t port) {
  std::optional<HttpResult> r = HttpGet(port, "/healthz");
  if (!r.has_value() || r->status != 200) return std::nullopt;
  return obs::ParseJson(r->body);
}

TEST_F(StatusServerTest, HealthzDegradesWhenGovernorLadderEngaged) {
  runtime::RunStatusBoard::Global().PublishGovernor(1 << 20, 3 << 20, 2);
  std::optional<obs::JsonValue> doc = PollHealthz(server_.port());
  ASSERT_TRUE(doc.has_value());
  // Degraded, not dead: liveness stays 200 (PollHealthz checked it) and
  // the body names the cause so a balancer can route around this node.
  EXPECT_EQ(doc->Get("status")->string_value, "degraded");
  EXPECT_TRUE(HasReason(*doc, "governor_ladder_engaged"));

  runtime::RunStatusBoard::Global().Reset();
  doc = PollHealthz(server_.port());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->Get("status")->string_value, "ok");  // recovers
}

TEST_F(StatusServerTest, HealthzDegradesWhileScanRetriesClimb) {
  // First poll records the retry-counter baseline.
  std::optional<obs::JsonValue> doc = PollHealthz(server_.port());
  ASSERT_TRUE(doc.has_value());
  EXPECT_FALSE(HasReason(*doc, "scan_retries_climbing"));

  obs::MetricsRegistry::Global().GetCounter("db.scan.retries").Add(3);
  doc = PollHealthz(server_.port());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->Get("status")->string_value, "degraded");
  EXPECT_TRUE(HasReason(*doc, "scan_retries_climbing"));

  // No further retries between polls: the signal clears on its own.
  doc = PollHealthz(server_.port());
  ASSERT_TRUE(doc.has_value());
  EXPECT_FALSE(HasReason(*doc, "scan_retries_climbing"));
}

// The exhausted-budget signal is deliberately sticky for the life of the
// process; the fixture clears it between tests.
TEST_F(StatusServerTest, HealthzDegradesAfterRetryBudgetExhaustion) {
  obs::MetricsRegistry::Global()
      .GetCounter("db.scan.retry_budget_exhausted")
      .Increment();
  std::optional<obs::JsonValue> doc = PollHealthz(server_.port());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->Get("status")->string_value, "degraded");
  EXPECT_TRUE(HasReason(*doc, "retry_budget_exhausted"));
}

TEST_F(StatusServerTest, StatuszServesTheRunBoard) {
  runtime::RunStatusBoard::Global().BeginRun("mine", "collapse");
  runtime::RunStatusBoard::Global().SetPhase("phase2");
  std::optional<HttpResult> r = HttpGet(server_.port(), "/statusz");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 200);
  std::optional<obs::JsonValue> doc = obs::ParseJson(r->body);
  ASSERT_TRUE(doc.has_value()) << r->body;
  const obs::JsonValue* schema = doc->Get("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string_value, "nmine.statusz.v1");
  const obs::JsonValue* phase = doc->Get("phase");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->string_value, "phase2");
  EXPECT_NE(doc->Get("governor"), nullptr);
  runtime::RunStatusBoard::Global().Reset();
}

TEST_F(StatusServerTest, MetricszServesOpenMetricsText) {
  obs::MetricsRegistry::Global().GetCounter("statusz.test.metric").Add(3);
  std::optional<HttpResult> r = HttpGet(server_.port(), "/metricsz");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 200);
  EXPECT_NE(r->content_type.find("openmetrics-text"), std::string::npos);
  EXPECT_NE(r->body.find("nmine_statusz_test_metric_total"),
            std::string::npos);
  ASSERT_GE(r->body.size(), 6u);
  EXPECT_EQ(r->body.substr(r->body.size() - 6), "# EOF\n");
}

TEST_F(StatusServerTest, ProfilezAndFlightzReturnJson) {
  std::optional<HttpResult> profile = HttpGet(server_.port(), "/profilez");
  ASSERT_TRUE(profile.has_value());
  EXPECT_EQ(profile->status, 200);
  EXPECT_TRUE(obs::ParseJson(profile->body).has_value()) << profile->body;

  std::optional<HttpResult> flight = HttpGet(server_.port(), "/flightz");
  ASSERT_TRUE(flight.has_value());
  EXPECT_EQ(flight->status, 200);
  std::optional<obs::JsonValue> doc = obs::ParseJson(flight->body);
  ASSERT_TRUE(doc.has_value()) << flight->body;
  const obs::JsonValue* schema = doc->Get("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string_value, "nmine.flight.v1");
}

TEST_F(StatusServerTest, UnknownPathIs404AndNonGetIs405) {
  std::optional<HttpResult> missing = HttpGet(server_.port(), "/nope");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, 404);
  EXPECT_TRUE(obs::ParseJson(missing->body).has_value());

  std::optional<HttpResult> post = HttpGet(server_.port(), "/statusz", "POST");
  ASSERT_TRUE(post.has_value());
  EXPECT_EQ(post->status, 405);
}

TEST_F(StatusServerTest, CountsRequestsAndIgnoresQueryStrings) {
  const uint64_t before = server_.requests_served();
  std::optional<HttpResult> r = HttpGet(server_.port(), "/healthz?probe=1");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 200);  // query string stripped before dispatch
  EXPECT_GT(server_.requests_served(), before);
}

TEST_F(StatusServerTest, QueryEndpointReceivesQueryString) {
  // Registrations are process-permanent, so use a test-scoped path.
  StatusServer::RegisterQueryEndpoint(
      "/test_queryz", [](const std::string& query) {
        return "{\"query\": \"" + query + "\"}\n";
      });
  std::optional<HttpResult> r = HttpGet(server_.port(), "/test_queryz?id=7");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 200);
  std::optional<obs::JsonValue> doc = obs::ParseJson(r->body);
  ASSERT_TRUE(doc.has_value()) << r->body;
  EXPECT_EQ(doc->Get("query")->string_value, "id=7");

  r = HttpGet(server_.port(), "/test_queryz");
  ASSERT_TRUE(r.has_value());
  doc = obs::ParseJson(r->body);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->Get("query")->string_value, "");  // no '?': empty query
}

TEST_F(StatusServerTest, HealthSignalContributesReasonAndMember) {
  bool degrade = true;
  StatusServer::RegisterHealthSignal(
      "test.signal", [&degrade](std::vector<std::string>* reasons) {
        if (degrade) reasons->push_back("test_signal_tripped");
        return std::string("\"test_member\": {\"value\": 42}");
      });
  std::optional<obs::JsonValue> doc = PollHealthz(server_.port());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->Get("status")->string_value, "degraded");
  EXPECT_TRUE(HasReason(*doc, "test_signal_tripped"));
  const obs::JsonValue* member = doc->Get("test_member");
  ASSERT_NE(member, nullptr);
  EXPECT_DOUBLE_EQ(member->GetNumber("value", -1.0), 42.0);

  // The signal clears -> healthz recovers, the member stays informational.
  degrade = false;
  doc = PollHealthz(server_.port());
  ASSERT_TRUE(doc.has_value());
  EXPECT_FALSE(HasReason(*doc, "test_signal_tripped"));
  EXPECT_NE(doc->Get("test_member"), nullptr);

  // Keyed registration: replacing the contributor takes effect (and
  // neutralizes this test's signal for later tests in the process).
  StatusServer::RegisterHealthSignal(
      "test.signal",
      [](std::vector<std::string>*) { return std::string(); });
  doc = PollHealthz(server_.port());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->Get("test_member"), nullptr);
}

TEST_F(StatusServerTest, UnregisterRemovesOnlyItsOwnRegistration) {
  const uint64_t first = StatusServer::RegisterEndpoint(
      "/test_ownz", [] { return std::string("{\"owner\": 1}\n"); });
  const uint64_t second = StatusServer::RegisterEndpoint(
      "/test_ownz", [] { return std::string("{\"owner\": 2}\n"); });
  // The replaced registration's owner stops: the path keeps the newer one.
  StatusServer::Unregister(first);
  std::optional<HttpResult> r = HttpGet(server_.port(), "/test_ownz");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 200);
  EXPECT_EQ(r->body, "{\"owner\": 2}\n");

  StatusServer::Unregister(second);
  r = HttpGet(server_.port(), "/test_ownz");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 404);

  const uint64_t signal = StatusServer::RegisterHealthSignal(
      "test.owned", [](std::vector<std::string>* reasons) {
        reasons->push_back("test_owned_tripped");
        return std::string();
      });
  std::optional<obs::JsonValue> doc = PollHealthz(server_.port());
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(HasReason(*doc, "test_owned_tripped"));
  StatusServer::Unregister(signal);
  doc = PollHealthz(server_.port());
  ASSERT_TRUE(doc.has_value());
  EXPECT_FALSE(HasReason(*doc, "test_owned_tripped"));
}

TEST_F(StatusServerTest, UnregisterWaitsForARunningHandler) {
  // A component unregisters in Stop and then tears down what its handler
  // reads, so Unregister must not return while the handler still runs.
  std::atomic<bool> entered{false};
  std::atomic<bool> finished{false};
  const uint64_t id = StatusServer::RegisterEndpoint("/test_slowz", [&] {
    entered.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    finished.store(true);
    return std::string("{}\n");
  });
  std::thread client([this] { (void)HttpGet(server_.port(), "/test_slowz"); });
  while (!entered.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  StatusServer::Unregister(id);
  EXPECT_TRUE(finished.load());
  client.join();
}

TEST(StatusServerLifecycleTest, StopIsIdempotentAndRestartable) {
  StatusServer server;
  std::string error;
  StatusServer::Options options;
  ASSERT_TRUE(server.Start(options, &error)) << error;
  EXPECT_FALSE(server.Start(options, &error));  // already running
  server.Stop();
  server.Stop();  // second stop is a no-op
  EXPECT_FALSE(server.running());

  ASSERT_TRUE(server.Start(options, &error)) << error;
  std::optional<HttpResult> r = HttpGet(server.port(), "/healthz");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 200);
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(StatusServerLifecycleTest, RejectsBadBindAddress) {
  StatusServer server;
  std::string error;
  StatusServer::Options options;
  options.bind_address = "not-an-address";
  EXPECT_FALSE(server.Start(options, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace net
}  // namespace nmine
