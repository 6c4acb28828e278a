// MiningServer integration: the in-process half of the chaos drill.
// Exercises the full robustness spine deterministically — typed shedding
// under an undersized queue, idempotent resubmits, per-job fault
// isolation, graceful drain re-queueing an in-flight job, and crash
// recovery (abrupt stop + restart on the same state dir) finishing every
// admitted job with results identical to a solo run. The CI drill repeats
// this across real processes with SIGKILL.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nmine/db/format.h"
#include "nmine/exec/thread_pool.h"
#include "nmine/gen/workload.h"
#include "nmine/net/status_server.h"
#include "nmine/obs/json_parse.h"
#include "nmine/obs/metrics.h"
#include "nmine/obs/trace.h"
#include "nmine/serve/job.h"
#include "nmine/serve/server.h"
#include "test_util.h"

namespace nmine {
namespace serve {
namespace {

/// One request -> one response over a fresh connection (the protocol is
/// stateless per line, so this is all a test needs; `wait` simply keeps
/// the connection open until the job is terminal).
std::optional<std::string> LineRequest(uint16_t port,
                                       const std::string& line) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  size_t done = 0;
  while (done < line.size()) {
    ssize_t w = ::send(fd, line.data() + done, line.size() - done, 0);
    if (w <= 0) {
      ::close(fd);
      return std::nullopt;
    }
    done += static_cast<size_t>(w);
  }
  std::string buffer;
  char chunk[4096];
  while (buffer.find('\n') == std::string::npos) {
    ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
    if (r <= 0) break;
    buffer.append(chunk, static_cast<size_t>(r));
  }
  ::close(fd);
  size_t nl = buffer.find('\n');
  if (nl == std::string::npos) return std::nullopt;
  return buffer.substr(0, nl);
}

std::optional<obs::JsonValue> Ask(uint16_t port, const std::string& line) {
  std::optional<std::string> response = LineRequest(port, line);
  if (!response.has_value()) return std::nullopt;
  return obs::ParseJson(*response);
}

std::string SubmitLine(const std::string& client, const std::string& tag,
                       const JobSpec& spec) {
  std::string line =
      "{\"op\": \"submit\", \"client\": \"" + client + "\", \"tag\": \"" +
      tag + "\", \"spec\": ";
  spec.AppendJson(&line);
  line.append("}\n");
  return line;
}

/// Bytes of this process mapped as thread stacks: read-write mappings of
/// exactly the default pthread stack size (0 when unknown). This is the
/// part of VmSize a leaked thread keeps; VmSize itself also jumps by
/// 64 MiB whenever malloc reserves a new arena, which is not per thread.
int64_t ThreadStackBytes() {
  pthread_attr_t attr;
  if (pthread_getattr_default_np(&attr) != 0) return 0;
  size_t stack = 0;
  pthread_attr_getstacksize(&attr, &stack);
  pthread_attr_destroy(&attr);
  std::ifstream in("/proc/self/maps");
  int64_t total = 0;
  std::string line;
  while (std::getline(in, line)) {
    unsigned long lo = 0;
    unsigned long hi = 0;
    char perms[5] = {};
    if (std::sscanf(line.c_str(), "%lx-%lx %4s", &lo, &hi, perms) == 3 &&
        hi - lo == stack && perms[0] == 'r' && perms[1] == 'w') {
      total += static_cast<int64_t>(hi - lo);
    }
  }
  return total;
}

class MiningServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string(::testing::TempDir()) + "/serve_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);

    WorkloadSpec wspec;
    wspec.num_sequences = 60;
    wspec.min_length = 15;
    wspec.max_length = 30;
    wspec.num_planted = 2;
    wspec.planted_symbols_min = 3;
    wspec.planted_symbols_max = 4;
    wspec.seed = 11;
    NoisyWorkload workload = MakeUniformNoiseWorkload(wspec, 0.1);
    db_path_ = dir_ + "/db.nmsq";
    ASSERT_TRUE(
        dbformat::WriteDatabaseFile(db_path_, workload.test.records()).ok);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  JobSpec QuickSpec() const {
    JobSpec spec;
    spec.db_path = db_path_;
    spec.uniform_alpha = 0.1;
    spec.threshold = 0.3;
    spec.max_span = 4;
    spec.sample_size = 60;
    spec.delta = 0.05;
    return spec;
  }

  MiningServer::Options ServerOptions() const {
    MiningServer::Options options;
    options.state_dir = dir_ + "/state";
    return options;
  }

  /// Waits for job `id` on `port` and returns the parsed response.
  std::optional<obs::JsonValue> Wait(uint16_t port, uint64_t id) {
    return Ask(port,
               "{\"op\": \"wait\", \"id\": " + std::to_string(id) + "}\n");
  }

  static JobResult ResultOf(const obs::JsonValue& response) {
    const obs::JsonValue* payload = response.Get("result");
    EXPECT_NE(payload, nullptr);
    std::optional<JobResult> result = JobResult::FromJson(*payload);
    EXPECT_TRUE(result.has_value());
    return result.value_or(JobResult{});
  }

  std::string dir_;
  std::string db_path_;
};

TEST_F(MiningServerTest, SubmitWaitMatchesASoloRunBitForBit) {
  MiningServer server;
  std::string error;
  ASSERT_TRUE(server.Start(ServerOptions(), &error)) << error;

  std::optional<obs::JsonValue> ack =
      Ask(server.port(), SubmitLine("alice", "t1", QuickSpec()));
  ASSERT_TRUE(ack.has_value());
  ASSERT_TRUE(ack->Get("ok")->bool_value);
  const uint64_t id = static_cast<uint64_t>(ack->GetNumber("id", 0.0));
  ASSERT_GT(id, 0u);

  std::optional<obs::JsonValue> done = Wait(server.port(), id);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->Get("state")->string_value, "done");
  JobResult via_server = ResultOf(*done);
  ASSERT_TRUE(via_server.ok);

  JobResult solo = RunJob(QuickSpec(), "", nullptr);
  ASSERT_TRUE(solo.ok);
  EXPECT_EQ(via_server.rows, solo.rows);  // preformatted: bit-identity
  EXPECT_EQ(via_server.scans, solo.scans);
  server.Drain();
}

TEST_F(MiningServerTest, FullQueueShedsWithTypedRetryHint) {
  MiningServer::Options options = ServerOptions();
  options.max_running = 0;  // admit-only: the queue fills deterministically
  options.queue_capacity = 2;
  options.shed_retry_after_s = 2.5;
  MiningServer server;
  std::string error;
  ASSERT_TRUE(server.Start(options, &error)) << error;

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const int64_t shed_before = reg.CounterValue("serve.jobs.shed");

  for (int i = 0; i < 2; ++i) {
    std::optional<obs::JsonValue> ack = Ask(
        server.port(),
        SubmitLine("alice", "tag-" + std::to_string(i), QuickSpec()));
    ASSERT_TRUE(ack.has_value());
    EXPECT_TRUE(ack->Get("ok")->bool_value) << "submit " << i;
  }
  std::optional<obs::JsonValue> shed =
      Ask(server.port(), SubmitLine("alice", "tag-over", QuickSpec()));
  ASSERT_TRUE(shed.has_value());
  EXPECT_FALSE(shed->Get("ok")->bool_value);
  EXPECT_EQ(shed->Get("error")->string_value, "RESOURCE_EXHAUSTED");
  EXPECT_DOUBLE_EQ(shed->GetNumber("retry_after_s", -1.0), 2.5);
  EXPECT_EQ(reg.CounterValue("serve.jobs.shed"), shed_before + 1);

  // A shed job was never journaled: it does not haunt the next restart.
  server.Stop();
  MiningServer reborn;
  ASSERT_TRUE(reborn.Start(options, &error)) << error;
  std::optional<obs::JsonValue> board =
      Ask(reborn.port(), "{\"op\": \"jobs\"}\n");
  ASSERT_TRUE(board.has_value());
  EXPECT_DOUBLE_EQ(
      board->Get("board")->Get("counts")->GetNumber("queued", -1.0), 2.0);
  reborn.Stop();
}

TEST_F(MiningServerTest, ResubmitWithSameTagReattachesToTheSameJob) {
  MiningServer server;
  std::string error;
  ASSERT_TRUE(server.Start(ServerOptions(), &error)) << error;

  std::optional<obs::JsonValue> first =
      Ask(server.port(), SubmitLine("alice", "once", QuickSpec()));
  ASSERT_TRUE(first.has_value());
  const double id = first->GetNumber("id", 0.0);
  std::optional<obs::JsonValue> second =
      Ask(server.port(), SubmitLine("alice", "once", QuickSpec()));
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->Get("ok")->bool_value);
  EXPECT_DOUBLE_EQ(second->GetNumber("id", -1.0), id);
  EXPECT_NE(second->Get("deduped"), nullptr);

  // A different client reusing the tag text is NOT deduped.
  std::optional<obs::JsonValue> other =
      Ask(server.port(), SubmitLine("bob", "once", QuickSpec()));
  ASSERT_TRUE(other.has_value());
  EXPECT_NE(other->GetNumber("id", -1.0), id);
  server.Drain();
}

TEST_F(MiningServerTest, JobFaultsAreIsolatedAndTyped) {
  MiningServer server;
  std::string error;
  ASSERT_TRUE(server.Start(ServerOptions(), &error)) << error;

  // Unrecoverable corruption: typed DATA_LOSS failure for this job only.
  JobSpec corrupt = QuickSpec();
  corrupt.fault_plan = "corrupt-from:0";
  corrupt.scan_retries = 1;
  std::optional<obs::JsonValue> ack =
      Ask(server.port(), SubmitLine("alice", "bad", corrupt));
  ASSERT_TRUE(ack.has_value());
  const uint64_t bad_id = static_cast<uint64_t>(ack->GetNumber("id", 0.0));
  std::optional<obs::JsonValue> failed = Wait(server.port(), bad_id);
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->Get("state")->string_value, "failed");
  JobResult bad = ResultOf(*failed);
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error_code, "DATA_LOSS");

  // An unparseable spec is refused before admission, also typed.
  std::optional<obs::JsonValue> refused = Ask(
      server.port(),
      "{\"op\": \"submit\", \"spec\": {\"db\": \"x\", "
      "\"algorithm\": \"quantum\"}}\n");
  ASSERT_TRUE(refused.has_value());
  EXPECT_FALSE(refused->Get("ok")->bool_value);
  EXPECT_EQ(refused->Get("error")->string_value, "INVALID_ARGUMENT");

  // The server keeps serving healthy jobs afterwards.
  ack = Ask(server.port(), SubmitLine("alice", "good", QuickSpec()));
  ASSERT_TRUE(ack.has_value());
  std::optional<obs::JsonValue> done = Wait(
      server.port(), static_cast<uint64_t>(ack->GetNumber("id", 0.0)));
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->Get("state")->string_value, "done");
  server.Drain();
}

TEST_F(MiningServerTest, AlphaAboveOneFailsTypedAndRecoveryDoesNotAbort) {
  // An alpha above 1 reached UniformNoiseMatrix's check and aborted the
  // whole server; a restart re-admitted the job and aborted again. It must
  // fail alone, with a typed error, in a server that keeps serving.
  JobSpec bad = QuickSpec();
  bad.uniform_alpha = 2.0;
  MiningServer::Options admit_only = ServerOptions();
  admit_only.max_running = 0;
  uint64_t id = 0;
  {
    MiningServer server;
    std::string error;
    ASSERT_TRUE(server.Start(admit_only, &error)) << error;
    std::optional<obs::JsonValue> ack =
        Ask(server.port(), SubmitLine("alice", "alpha2", bad));
    ASSERT_TRUE(ack.has_value());
    ASSERT_TRUE(ack->Get("ok")->bool_value);
    id = static_cast<uint64_t>(ack->GetNumber("id", 0.0));
    server.Stop();
  }
  // The restart re-admits the journaled job and runs it.
  for (int life = 0; life < 2; ++life) {
    MiningServer server;
    std::string error;
    ASSERT_TRUE(server.Start(ServerOptions(), &error)) << error;
    std::optional<obs::JsonValue> done = Wait(server.port(), id);
    ASSERT_TRUE(done.has_value()) << "life " << life;
    EXPECT_EQ(done->Get("state")->string_value, "failed");
    JobResult result = ResultOf(*done);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.error_code, "INVALID_ARGUMENT");
    EXPECT_NE(result.message.find("outside [0, 1]"), std::string::npos)
        << result.message;
    std::optional<obs::JsonValue> ping =
        Ask(server.port(), "{\"op\": \"ping\"}\n");
    ASSERT_TRUE(ping.has_value());
    EXPECT_TRUE(ping->Get("ok")->bool_value);
    server.Stop();
  }
}

TEST_F(MiningServerTest, EndpointsAnswer404AfterStopButKeepAnotherServers) {
  net::StatusServer statusz;
  std::string error;
  ASSERT_TRUE(statusz.Start(net::StatusServer::Options(), &error)) << error;
  MiningServer first;
  ASSERT_TRUE(first.Start(ServerOptions(), &error)) << error;
  MiningServer::Options second_options = ServerOptions();
  second_options.state_dir = dir_ + "/state2";
  MiningServer second;
  ASSERT_TRUE(second.Start(second_options, &error)) << error;

  // The later Start serves /jobsz; stopping the earlier server leaves it.
  first.Stop();
  std::optional<testutil::HttpResult> r =
      testutil::HttpGet(statusz.port(), "/jobsz");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 200);
  std::optional<obs::JsonValue> board = obs::ParseJson(r->body);
  ASSERT_TRUE(board.has_value()) << r->body;
  EXPECT_EQ(board->Get("version")->string_value, "nmine.jobsz.v1");

  second.Stop();
  for (const char* path : {"/jobsz", "/tracez"}) {
    r = testutil::HttpGet(statusz.port(), path);
    ASSERT_TRUE(r.has_value()) << path;
    EXPECT_EQ(r->status, 404) << path;
  }
  // Its /healthz contributor is gone with it.
  std::optional<obs::JsonValue> healthz =
      obs::ParseJson(net::StatusServer::HealthzBody());
  ASSERT_TRUE(healthz.has_value());
  EXPECT_EQ(healthz->Get("queue"), nullptr);
  statusz.Stop();
}

TEST_F(MiningServerTest, FinishedConnectionsReleaseTheirThreads) {
  // Every connection runs on its own thread. A long-lived server that
  // scripts poll must release each finished connection's thread — and its
  // stack mapping — when the connection ends, not at shutdown.
  MiningServer server;
  std::string error;
  ASSERT_TRUE(server.Start(ServerOptions(), &error)) << error;
  auto ping = [&] {
    std::optional<obs::JsonValue> pong =
        Ask(server.port(), "{\"op\": \"ping\"}\n");
    return pong.has_value() && pong->Get("ok") != nullptr &&
           pong->Get("ok")->bool_value;
  };
  const int64_t before = ThreadStackBytes();
  if (before == 0) GTEST_SKIP() << "no thread stacks visible in /proc";
  for (int i = 0; i < 300; ++i) ASSERT_TRUE(ping()) << "cycle " << i;
  // Live connections plus the C library's small cache of freed stacks
  // stay mapped; a leaked thread per connection would add ~2.4 GiB.
  const int64_t growth = ThreadStackBytes() - before;
  EXPECT_LT(growth, int64_t{64} << 20)
      << "thread stacks grew " << growth << " bytes";
  server.Stop();
}

TEST_F(MiningServerTest, StartStopLeavesNoThreadBehind) {
  // Executors and the accept loop run on threads the server owns and
  // joins: restarts leave neither a process thread nor a pool worker.
  MiningServer::Options options = ServerOptions();
  options.max_running = 2;
  auto cycle = [&options] {
    MiningServer server;
    std::string error;
    ASSERT_TRUE(server.Start(options, &error)) << error;
    server.Drain();
  };
  // The baseline follows one warm-up cycle, which may start process-wide
  // helpers that outlive it (such as a sanitizer's background thread).
  const int threads_at_start = testutil::ProcessThreadCount();
  ASSERT_GT(threads_at_start, 0);
  cycle();
  const int threads_before = testutil::SettledThreadCount(threads_at_start);
  const size_t pool_before = exec::ThreadPool::Shared().num_workers();
  for (int i = 0; i < 20; ++i) cycle();
  EXPECT_EQ(exec::ThreadPool::Shared().num_workers(), pool_before);
  EXPECT_EQ(testutil::SettledThreadCount(threads_before), threads_before);
}

TEST_F(MiningServerTest, LiveBoardKeepsWhatARestartWouldRecover) {
  // The journal keeps the newest JobJournal::kMaxTerminalKept finished
  // jobs across a restart; the live board must not hold more. Jobs on a
  // missing database fail at once, so 600 of them finish quickly.
  MiningServer::Options options = ServerOptions();
  options.queue_capacity = 1024;
  options.max_running = 2;
  JobSpec failing = QuickSpec();
  failing.db_path = dir_ + "/missing.nmsq";
  const int kJobs = 600;
  auto board_counts = [](MiningServer& server) {
    std::optional<obs::JsonValue> board = obs::ParseJson(server.JobszJson());
    EXPECT_TRUE(board.has_value());
    const obs::JsonValue* counts = board->Get("counts");
    return std::vector<double>{
        counts->GetNumber("queued", -1.0), counts->GetNumber("running", -1.0),
        counts->GetNumber("done", -1.0), counts->GetNumber("failed", -1.0)};
  };
  uint64_t first = 0;
  std::vector<double> live;
  {
    MiningServer server;
    std::string error;
    ASSERT_TRUE(server.Start(options, &error)) << error;
    uint64_t last = 0;
    for (int i = 0; i < kJobs; ++i) {
      std::string tag = "t";
      tag += std::to_string(i);
      std::optional<obs::JsonValue> ack =
          Ask(server.port(), SubmitLine("alice", tag, failing));
      ASSERT_TRUE(ack.has_value());
      ASSERT_TRUE(ack->Get("ok")->bool_value) << i;
      last = static_cast<uint64_t>(ack->GetNumber("id", 0.0));
      if (i == 0) first = last;
    }
    std::optional<obs::JsonValue> done = Wait(server.port(), last);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->Get("state")->string_value, "failed");
    live = board_counts(server);
    for (int spins = 0; live[0] + live[1] > 0 && spins < 5000; ++spins) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      live = board_counts(server);
    }
    EXPECT_EQ(live[0] + live[1], 0.0);
    EXPECT_EQ(live[2] + live[3],
              static_cast<double>(JobJournal::kMaxTerminalKept));

    // The oldest job is gone, as after a restart: NOT_FOUND, and its tag
    // no longer dedups.
    std::optional<obs::JsonValue> evicted = Ask(
        server.port(),
        "{\"op\": \"status\", \"id\": " + std::to_string(first) + "}\n");
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->Get("error")->string_value, "NOT_FOUND");
    std::optional<obs::JsonValue> again =
        Ask(server.port(), SubmitLine("alice", "t0", failing));
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->Get("deduped"), nullptr);
    const uint64_t again_id =
        static_cast<uint64_t>(again->GetNumber("id", 0.0));
    EXPECT_GT(again_id, last);
    ASSERT_TRUE(Wait(server.port(), again_id).has_value());
    live = board_counts(server);
    server.Drain();
  }

  MiningServer restarted;
  std::string error;
  ASSERT_TRUE(restarted.Start(options, &error)) << error;
  EXPECT_EQ(board_counts(restarted), live);
  std::optional<obs::JsonValue> evicted = Ask(
      restarted.port(),
      "{\"op\": \"status\", \"id\": " + std::to_string(first) + "}\n");
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->Get("error")->string_value, "NOT_FOUND");
  restarted.Drain();
}

TEST_F(MiningServerTest, JobFinishingLastIsKeptWhateverItsId) {
  // The board evicts in finish order: a low-id job that finishes after
  // more than kMaxTerminalKept later-submitted jobs is still answered,
  // live and after a restart. Its first scans fail and back off, so it
  // runs for seconds while the failing jobs finish on the other executor.
  MiningServer::Options options = ServerOptions();
  options.queue_capacity = 1024;
  options.max_running = 2;
  JobSpec slow = QuickSpec();
  slow.fault_plan = "open-fail:12";
  slow.scan_retries = 12;
  slow.retry_backoff_ms = 500.0;
  JobSpec failing = QuickSpec();
  failing.db_path = dir_ + "/missing.nmsq";
  const int kFast = static_cast<int>(JobJournal::kMaxTerminalKept) + 1;
  // The job's state, or the error code when the board does not know it.
  auto state_of = [](uint16_t port, uint64_t id) -> std::string {
    std::optional<obs::JsonValue> r = Ask(
        port, "{\"op\": \"status\", \"id\": " + std::to_string(id) + "}\n");
    if (!r.has_value()) return "no response";
    const obs::JsonValue* v = r->Get("state");
    if (v == nullptr) v = r->Get("error");
    return v != nullptr && v->is_string() ? v->string_value : "malformed";
  };

  uint64_t slow_id = 0;
  uint64_t first_fast = 0;
  {
    MiningServer server;
    std::string error;
    ASSERT_TRUE(server.Start(options, &error)) << error;
    std::optional<obs::JsonValue> ack =
        Ask(server.port(), SubmitLine("alice", "slow", slow));
    ASSERT_TRUE(ack.has_value());
    ASSERT_TRUE(ack->Get("ok")->bool_value);
    slow_id = static_cast<uint64_t>(ack->GetNumber("id", 0.0));
    uint64_t last_fast = 0;
    for (int i = 0; i < kFast; ++i) {
      std::string tag = "f";  // not "f" + ...: GCC 12 -Wrestrict misfires
      tag += std::to_string(i);
      ack = Ask(server.port(), SubmitLine("bob", tag, failing));
      ASSERT_TRUE(ack.has_value());
      ASSERT_TRUE(ack->Get("ok")->bool_value) << i;
      last_fast = static_cast<uint64_t>(ack->GetNumber("id", 0.0));
      if (i == 0) first_fast = last_fast;
    }
    ASSERT_TRUE(Wait(server.port(), last_fast).has_value());
    ASSERT_EQ(state_of(server.port(), slow_id), "running")
        << "the slow job must outlast the failing ones";

    std::optional<obs::JsonValue> done = Wait(server.port(), slow_id);
    ASSERT_TRUE(done.has_value());
    ASSERT_TRUE(done->Get("ok")->bool_value);
    EXPECT_EQ(done->Get("state")->string_value, "done");
    EXPECT_EQ(ResultOf(*done).rows, RunJob(QuickSpec(), "", nullptr).rows);
    // The job that finished first went instead.
    EXPECT_EQ(state_of(server.port(), first_fast), "NOT_FOUND");
    server.Drain();
  }

  // Restarts keep the same jobs, and each compacted journal keeps the
  // finish order: one more finished job evicts the next-earliest failing
  // job, never the slow one. The failing jobs ran one at a time on the
  // free executor, so they finished in id order.
  for (int life = 0; life < 2; ++life) {
    MiningServer restarted;
    std::string error;
    ASSERT_TRUE(restarted.Start(options, &error)) << error;
    std::optional<obs::JsonValue> ack =
        Ask(restarted.port(),
            SubmitLine("bob", "r" + std::to_string(life), failing));
    ASSERT_TRUE(ack.has_value());
    ASSERT_TRUE(ack->Get("ok")->bool_value);
    ASSERT_TRUE(
        Wait(restarted.port(), static_cast<uint64_t>(ack->GetNumber("id", 0.0)))
            .has_value());
    EXPECT_EQ(state_of(restarted.port(), slow_id), "done") << life;
    const uint64_t gone = first_fast + 2 + static_cast<uint64_t>(life);
    EXPECT_EQ(state_of(restarted.port(), gone), "NOT_FOUND") << life;
    restarted.Drain();
  }
}

TEST_F(MiningServerTest, UnknownJobIsNotFound) {
  MiningServer server;
  std::string error;
  ASSERT_TRUE(server.Start(ServerOptions(), &error)) << error;
  std::optional<obs::JsonValue> r =
      Ask(server.port(), "{\"op\": \"status\", \"id\": 424242}\n");
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->Get("ok")->bool_value);
  EXPECT_EQ(r->Get("error")->string_value, "NOT_FOUND");
  server.Drain();
}

TEST_F(MiningServerTest, AbruptStopThenRestartFinishesEveryAdmittedJob) {
  // Phase 1: admit-only server takes the jobs and "crashes" (abrupt stop
  // journals nothing extra — the journal looks exactly SIGKILL'd).
  MiningServer::Options admit_only = ServerOptions();
  admit_only.max_running = 0;
  uint64_t ids[3];
  {
    MiningServer server;
    std::string error;
    ASSERT_TRUE(server.Start(admit_only, &error)) << error;
    for (int i = 0; i < 3; ++i) {
      JobSpec spec = QuickSpec();
      spec.seed = 42 + static_cast<uint64_t>(i);
      std::optional<obs::JsonValue> ack = Ask(
          server.port(),
          SubmitLine("client-" + std::to_string(i % 2),
                     "job-" + std::to_string(i), spec));
      ASSERT_TRUE(ack.has_value());
      ASSERT_TRUE(ack->Get("ok")->bool_value);
      ids[i] = static_cast<uint64_t>(ack->GetNumber("id", 0.0));
    }
    server.Stop();
  }

  // Phase 2: restart on the same state dir; every admitted job must reach
  // done with the same rows a solo run produces.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const int64_t recovered_before = reg.CounterValue("serve.jobs.recovered");
  MiningServer::Options serving = ServerOptions();
  serving.max_running = 2;
  MiningServer server;
  std::string error;
  ASSERT_TRUE(server.Start(serving, &error)) << error;
  EXPECT_EQ(reg.CounterValue("serve.jobs.recovered"), recovered_before + 3);

  for (int i = 0; i < 3; ++i) {
    std::optional<obs::JsonValue> done = Wait(server.port(), ids[i]);
    ASSERT_TRUE(done.has_value()) << "job " << ids[i];
    ASSERT_TRUE(done->Get("ok")->bool_value);
    EXPECT_EQ(done->Get("state")->string_value, "done") << "job " << ids[i];
    JobSpec spec = QuickSpec();
    spec.seed = 42 + static_cast<uint64_t>(i);
    JobResult solo = RunJob(spec, "", nullptr);
    EXPECT_EQ(ResultOf(*done).rows, solo.rows) << "job " << ids[i];
  }

  // The idempotency index survived the crash: resubmitting an old tag
  // reattaches instead of re-running.
  std::optional<obs::JsonValue> again = Ask(
      server.port(), SubmitLine("client-0", "job-0", QuickSpec()));
  ASSERT_TRUE(again.has_value());
  EXPECT_DOUBLE_EQ(again->GetNumber("id", 0.0),
                   static_cast<double>(ids[0]));
  EXPECT_NE(again->Get("deduped"), nullptr);
  server.Drain();
}

TEST_F(MiningServerTest, DrainRequeuesInFlightJobAndRestartResumes) {
  // A seeded flaky fault plan makes the job slow (real retry backoffs)
  // without changing its result, so the drain reliably lands mid-run —
  // after the run checkpoint exists, which the test waits for.
  JobSpec slow = QuickSpec();
  slow.fault_plan = "flaky:0.7, seed:5";
  slow.scan_retries = 30;
  slow.retry_backoff_ms = 40.0;

  MiningServer::Options options = ServerOptions();
  uint64_t id;
  {
    MiningServer server;
    std::string error;
    ASSERT_TRUE(server.Start(options, &error)) << error;
    std::optional<obs::JsonValue> ack =
        Ask(server.port(), SubmitLine("alice", "slow", slow));
    ASSERT_TRUE(ack.has_value());
    ASSERT_TRUE(ack->Get("ok")->bool_value);
    id = static_cast<uint64_t>(ack->GetNumber("id", 0.0));

    // Wait until the job has flushed its first run checkpoint, then pull
    // the plug gracefully while it is still mining.
    const std::string ckpt =
        options.state_dir + "/job-" + std::to_string(id) + ".ckpt";
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!std::filesystem::exists(ckpt) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(std::filesystem::exists(ckpt))
        << "job never flushed a checkpoint";
    server.Drain();
  }

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  EXPECT_GE(reg.CounterValue("serve.jobs.interrupted"), 1);

  // Restart: the job is re-admitted and resumes from its checkpoint.
  MiningServer server;
  std::string error;
  ASSERT_TRUE(server.Start(options, &error)) << error;
  std::optional<obs::JsonValue> done = Wait(server.port(), id);
  ASSERT_TRUE(done.has_value());
  ASSERT_TRUE(done->Get("ok")->bool_value) << "wait failed";
  EXPECT_EQ(done->Get("state")->string_value, "done");
  JobResult resumed = ResultOf(*done);
  ASSERT_TRUE(resumed.ok);
  EXPECT_TRUE(resumed.resumed_from_checkpoint);

  // Bit-identical to an uninterrupted, fault-free solo run.
  JobResult solo = RunJob(QuickSpec(), "", nullptr);
  ASSERT_TRUE(solo.ok);
  EXPECT_EQ(resumed.rows, solo.rows);
  server.Drain();
}

TEST_F(MiningServerTest, TracingBindsEverySpanToTheJobsTraceId) {
  MiningServer::Options options = ServerOptions();
  options.tracing = true;
  MiningServer server;
  std::string error;
  ASSERT_TRUE(server.Start(options, &error)) << error;

  const std::string trace_id = "00c0ffee00c0ffee00c0ffee00c0ffee";
  std::string line =
      "{\"op\": \"submit\", \"client\": \"alice\", \"tag\": \"traced\", "
      "\"trace_id\": \"" +
      trace_id + "\", \"spec\": ";
  QuickSpec().AppendJson(&line);
  line.append("}\n");
  std::optional<obs::JsonValue> ack = Ask(server.port(), line);
  ASSERT_TRUE(ack.has_value());
  ASSERT_TRUE(ack->Get("ok")->bool_value);
  // The ack echoes the binding trace id.
  ASSERT_NE(ack->Get("trace_id"), nullptr);
  EXPECT_EQ(ack->Get("trace_id")->string_value, trace_id);
  const uint64_t id = static_cast<uint64_t>(ack->GetNumber("id", 0.0));

  std::optional<obs::JsonValue> done = Wait(server.port(), id);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->Get("state")->string_value, "done");
  ASSERT_NE(done->Get("trace_id"), nullptr);
  EXPECT_EQ(done->Get("trace_id")->string_value, trace_id);

  // Fetch the per-job trace over the protocol and validate it.
  std::optional<obs::JsonValue> traced = Ask(
      server.port(), "{\"op\": \"trace\", \"id\": " + std::to_string(id) +
                         "}\n");
  ASSERT_TRUE(traced.has_value());
  ASSERT_TRUE(traced->Get("ok")->bool_value);
  const obs::JsonValue* payload = traced->Get("trace_json");
  ASSERT_NE(payload, nullptr);
  ASSERT_TRUE(payload->is_string());
  std::optional<obs::JsonValue> trace = obs::ParseJson(payload->string_value);
  ASSERT_TRUE(trace.has_value()) << payload->string_value;
  const obs::JsonValue* events = trace->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->array.empty());

  bool saw_root = false;
  bool saw_queue_wait = false;
  bool saw_run = false;
  bool saw_miner_span = false;
  for (const obs::JsonValue& e : events->array) {
    ASSERT_TRUE(e.is_object());
    // Every span in the job's trace carries the job's trace id.
    ASSERT_NE(e.Get("args"), nullptr);
    ASSERT_NE(e.Get("args")->Get("trace_id"), nullptr);
    EXPECT_EQ(e.Get("args")->Get("trace_id")->string_value, trace_id);
    EXPECT_GE(e.GetNumber("dur", -1.0), 0.0);
    const std::string& name = e.Get("name")->string_value;
    if (name == "job") saw_root = true;
    if (name == "job.queue_wait") saw_queue_wait = true;
    if (name == "job.run") saw_run = true;
    const std::string& cat = e.Get("cat")->string_value;
    if (cat == "mining" || cat == "phase1" || cat == "phase2" ||
        cat == "phase3") {
      saw_miner_span = true;
    }
  }
  // The lifecycle spine: queued -> admitted (job.queue_wait), running ->
  // done (job.run), and the root span covering the whole job.
  EXPECT_TRUE(saw_root);
  EXPECT_TRUE(saw_queue_wait);
  EXPECT_TRUE(saw_run);
  // Context propagated into the miner: the run's own phase spans
  // attributed to this job.
  EXPECT_TRUE(saw_miner_span);

  // /tracez lists the completed trace with a phase breakdown.
  std::string tracez = server.TracezJson("");
  std::optional<obs::JsonValue> listing = obs::ParseJson(tracez);
  ASSERT_TRUE(listing.has_value()) << tracez;
  EXPECT_EQ(listing->Get("version")->string_value, "nmine.tracez.v1");
  const obs::JsonValue* traces = listing->Get("traces");
  ASSERT_NE(traces, nullptr);
  ASSERT_FALSE(traces->array.empty());
  const obs::JsonValue& row = traces->array[0];
  EXPECT_EQ(row.Get("trace_id")->string_value, trace_id);
  EXPECT_GE(row.GetNumber("run_ms", -1.0), 0.0);
  ASSERT_NE(row.Get("phases_ms"), nullptr);

  // /tracez?id=<hex> serves the same Chrome JSON as the trace op.
  std::optional<obs::JsonValue> by_id =
      obs::ParseJson(server.TracezJson("id=" + trace_id));
  ASSERT_TRUE(by_id.has_value());
  EXPECT_FALSE(by_id->Get("traceEvents")->array.empty());

  server.Drain();
  obs::Tracer::Global().Stop();
}

TEST_F(MiningServerTest, ServerMintsTraceIdWhenClientSendsNone) {
  MiningServer::Options options = ServerOptions();
  options.tracing = true;
  MiningServer server;
  std::string error;
  ASSERT_TRUE(server.Start(options, &error)) << error;

  std::optional<obs::JsonValue> ack =
      Ask(server.port(), SubmitLine("alice", "untraced", QuickSpec()));
  ASSERT_TRUE(ack.has_value());
  ASSERT_TRUE(ack->Get("ok")->bool_value);
  ASSERT_NE(ack->Get("trace_id"), nullptr);
  const std::string& minted = ack->Get("trace_id")->string_value;
  ASSERT_EQ(minted.size(), 32u);
  EXPECT_NE(minted, std::string(32, '0'));

  // A deduping resubmit keeps the original binding, even when the retry
  // carries a different (or no) trace id.
  std::optional<obs::JsonValue> again =
      Ask(server.port(), SubmitLine("alice", "untraced", QuickSpec()));
  ASSERT_TRUE(again.has_value());
  ASSERT_NE(again->Get("trace_id"), nullptr);
  EXPECT_EQ(again->Get("trace_id")->string_value, minted);

  server.Drain();
  obs::Tracer::Global().Stop();
}

TEST_F(MiningServerTest, TraceOpWithoutTracingIsFailedPrecondition) {
  MiningServer server;
  std::string error;
  ASSERT_TRUE(server.Start(ServerOptions(), &error)) << error;
  std::optional<obs::JsonValue> ack =
      Ask(server.port(), SubmitLine("alice", "t", QuickSpec()));
  ASSERT_TRUE(ack.has_value());
  const uint64_t id = static_cast<uint64_t>(ack->GetNumber("id", 0.0));
  ASSERT_TRUE(Wait(server.port(), id).has_value());
  std::optional<obs::JsonValue> traced = Ask(
      server.port(), "{\"op\": \"trace\", \"id\": " + std::to_string(id) +
                         "}\n");
  ASSERT_TRUE(traced.has_value());
  EXPECT_FALSE(traced->Get("ok")->bool_value);
  EXPECT_EQ(traced->Get("error")->string_value, "FAILED_PRECONDITION");
  server.Drain();
}

TEST_F(MiningServerTest, JobszReportsLatencyQuantilesAndQueueAges) {
  // Admit-only server: the submitted job stays queued, so the board must
  // report a growing oldest-queued age and count it as the current max
  // queue wait.
  MiningServer::Options options = ServerOptions();
  options.max_running = 0;
  MiningServer server;
  std::string error;
  ASSERT_TRUE(server.Start(options, &error)) << error;
  ASSERT_TRUE(
      Ask(server.port(), SubmitLine("alice", "parked", QuickSpec()))
          .has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  std::optional<obs::JsonValue> board = obs::ParseJson(server.JobszJson());
  ASSERT_TRUE(board.has_value());
  const double oldest = board->GetNumber("oldest_queued_age_ms", -1.0);
  EXPECT_GE(oldest, 25.0);
  EXPECT_GE(board->GetNumber("max_queue_wait_ms", -1.0), oldest);
  const obs::JsonValue* latency = board->Get("latency");
  ASSERT_NE(latency, nullptr);
  ASSERT_NE(latency->Get("queue_wait_ms"), nullptr);
  ASSERT_NE(latency->Get("run_ms"), nullptr);
  EXPECT_GE(latency->Get("run_ms")->GetNumber("p99", -1.0), 0.0);

  // The /healthz queue contributor reports the same staleness data.
  std::vector<std::string> reasons;
  std::optional<obs::JsonValue> queue =
      obs::ParseJson("{" + server.HealthQueueMember(&reasons) + "}");
  ASSERT_TRUE(queue.has_value());
  const obs::JsonValue* member = queue->Get("queue");
  ASSERT_NE(member, nullptr);
  EXPECT_DOUBLE_EQ(member->GetNumber("depth", -1.0), 1.0);
  EXPECT_GE(member->GetNumber("oldest_queued_age_ms", -1.0), 25.0);
  EXPECT_GE(member->GetNumber("max_queue_wait_ms", -1.0),
            member->GetNumber("oldest_queued_age_ms", -1.0));
  EXPECT_TRUE(reasons.empty());  // 30ms is nowhere near stalled
  // End-to-end: the member and ages appear in the process /healthz body.
  std::optional<obs::JsonValue> healthz =
      obs::ParseJson(net::StatusServer::HealthzBody());
  ASSERT_TRUE(healthz.has_value());
  ASSERT_NE(healthz->Get("queue"), nullptr);
  EXPECT_GE(healthz->Get("queue")->GetNumber("oldest_queued_age_ms", -1.0),
            25.0);
  server.Stop();

  // A served job moves the ages back to zero and lands in the latency
  // histograms and the slow-job exemplar table.
  MiningServer::Options serving = ServerOptions();
  serving.state_dir = dir_ + "/state2";
  MiningServer worker;
  ASSERT_TRUE(worker.Start(serving, &error)) << error;
  std::optional<obs::JsonValue> ack =
      Ask(worker.port(), SubmitLine("alice", "served", QuickSpec()));
  ASSERT_TRUE(ack.has_value());
  const uint64_t id = static_cast<uint64_t>(ack->GetNumber("id", 0.0));
  std::optional<obs::JsonValue> done = Wait(worker.port(), id);
  ASSERT_TRUE(done.has_value());
  ASSERT_EQ(done->Get("state")->string_value, "done");

  board = obs::ParseJson(worker.JobszJson());
  ASSERT_TRUE(board.has_value());
  EXPECT_DOUBLE_EQ(board->GetNumber("oldest_queued_age_ms", -1.0), 0.0);
  latency = board->Get("latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_GE(latency->Get("run_ms")->GetNumber("count", 0.0), 1.0);
  EXPECT_GE(latency->Get("queue_wait_ms")->GetNumber("count", 0.0), 1.0);
  const obs::JsonValue* slowest = board->Get("slowest");
  ASSERT_NE(slowest, nullptr);
  ASSERT_TRUE(slowest->is_array());
  ASSERT_FALSE(slowest->array.empty());
  EXPECT_DOUBLE_EQ(slowest->array[0].GetNumber("id", -1.0),
                   static_cast<double>(id));
  EXPECT_GE(slowest->array[0].GetNumber("run_ms", -1.0), 0.0);
  ASSERT_NE(slowest->array[0].Get("trace_id"), nullptr);
  // Per-job board entries carry their trace ids and terminal latencies.
  const obs::JsonValue* jobs = board->Get("jobs");
  ASSERT_NE(jobs, nullptr);
  ASSERT_FALSE(jobs->array.empty());
  ASSERT_NE(jobs->array[0].Get("trace_id"), nullptr);
  EXPECT_GE(jobs->array[0].GetNumber("run_ms", -1.0), 0.0);
  worker.Drain();
}

}  // namespace
}  // namespace serve
}  // namespace nmine
