// The distributed miner's whole contract, in process: the coordinator +
// N workers must mine the exact byte-for-byte pattern set of a solo
// serve::RunJob at any worker count, through worker death mid-task
// (lease reassignment + resume from the journaled checkpoint), a zombie
// worker firing poisoned stale-epoch results (fenced, never counted),
// and a coordinator crash mid-scan (journal adoption on restart). The CI
// chaos drill repeats the same story across real processes with SIGKILL.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nmine/db/format.h"
#include "nmine/dist/coordinator.h"
#include "nmine/dist/worker.h"
#include "nmine/exec/thread_pool.h"
#include "nmine/net/status_server.h"
#include "nmine/gen/workload.h"
#include "nmine/obs/json_parse.h"
#include "nmine/obs/metrics.h"
#include "nmine/serve/job.h"
#include "test_util.h"

namespace nmine {
namespace dist {
namespace {

using Clock = std::chrono::steady_clock;

/// One worker on its own thread with its own stop token.
struct WorkerHarness {
  runtime::RunControl run;
  DistWorker worker;
  std::thread thread;
  Status status = Status::Ok();

  void Start(uint16_t port, const std::string& name, int64_t throttle_ms) {
    thread = std::thread([this, port, name, throttle_ms] {
      DistWorker::Options options;
      options.port = port;
      options.name = name;
      options.throttle_ms = throttle_ms;
      options.run = &run;
      status = worker.Run(options);
    });
  }

  void Join() {
    if (thread.joinable()) thread.join();
  }

  ~WorkerHarness() {
    run.RequestCancel();
    Join();
  }
};

/// Raw blocking socket speaking the dist wire protocol — the "zombie"
/// below needs full manual control over what it sends and when.
class RawConnection {
 public:
  explicit RawConnection(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  std::optional<obs::JsonValue> RoundTrip(const std::string& line) {
    size_t done = 0;
    while (done < line.size()) {
      ssize_t w = ::send(fd_, line.data() + done, line.size() - done, 0);
      if (w <= 0) return std::nullopt;
      done += static_cast<size_t>(w);
    }
    char chunk[65536];
    while (buffer_.find('\n') == std::string::npos) {
      ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (r <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<size_t>(r));
    }
    size_t nl = buffer_.find('\n');
    std::string response = buffer_.substr(0, nl);
    buffer_.erase(0, nl + 1);
    return obs::ParseJson(response);
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Sends a hello every 10 ms until stopped. The coordinator counts shards
/// itself only after a lease period without a worker frame, so this holds
/// local counting off while a test sets up; a hello grants nothing.
class HelloKeepalive {
 public:
  explicit HelloKeepalive(uint16_t port)
      : thread_([this, port] {
          RawConnection connection(port);
          while (connection.ok() && !stop_.load()) {
            connection.RoundTrip(
                "{\"v\": 1, \"op\": \"hello\", \"worker\": \"keepalive\"}\n");
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
          }
        }) {}
  ~HelloKeepalive() { Stop(); }

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

class DistMiningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string(::testing::TempDir()) + "/dist_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);

    // 600 records: 3 exec shards of 256, so record-aligned dist shards
    // genuinely split the scan (records_per_task below controls how).
    WorkloadSpec wspec;
    wspec.num_sequences = 600;
    wspec.min_length = 6;
    wspec.max_length = 12;
    wspec.num_planted = 2;
    wspec.planted_symbols_min = 3;
    wspec.planted_symbols_max = 3;
    wspec.seed = 17;
    NoisyWorkload workload = MakeUniformNoiseWorkload(wspec, 0.1);
    db_path_ = dir_ + "/db.nmsq";
    ASSERT_TRUE(
        dbformat::WriteDatabaseFile(db_path_, workload.test.records()).ok);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  serve::JobSpec Spec() const {
    serve::JobSpec spec;
    spec.db_path = db_path_;
    spec.uniform_alpha = 0.1;
    spec.threshold = 0.3;
    spec.max_span = 4;
    spec.sample_size = 80;
    spec.delta = 0.05;
    return spec;
  }

  Coordinator::Options CoordinatorOptions(const std::string& state_subdir,
                                          int64_t lease_ms,
                                          uint64_t records_per_task) const {
    Coordinator::Options options;
    options.state_dir = dir_ + "/" + state_subdir;
    options.spec = Spec();
    options.lease_ms = lease_ms;
    options.records_per_task = records_per_task;
    return options;
  }

  serve::JobResult Solo() { return serve::RunJob(Spec(), "", nullptr); }

  /// Polls ShardzJson until `pred` holds or ~10 s pass.
  template <typename Pred>
  bool WaitForShardz(Coordinator& coordinator, Pred pred) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::seconds(10);
    while (Clock::now() < deadline) {
      std::optional<obs::JsonValue> shardz =
          obs::ParseJson(coordinator.ShardzJson());
      if (shardz.has_value() && pred(*shardz)) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  /// Whether a scan is in flight.
  static bool ScanActive(const obs::JsonValue& shardz) {
    const obs::JsonValue* active = shardz.Get("scan_active");
    return active != nullptr && active->bool_value;
  }

  /// Calls `tick` every 5 ms until Run() sets `finished`, for up to 30 s;
  /// past that it stops the coordinator (Run() then returns) and fails.
  template <typename Tick>
  bool AwaitRun(Coordinator& coordinator, const std::atomic<bool>& finished,
                Tick tick) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::seconds(30);
    while (!finished.load()) {
      if (Clock::now() > deadline) {
        coordinator.Stop();
        return false;
      }
      tick();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
  }

  std::string dir_;
  std::string db_path_;
};

TEST_F(DistMiningTest, BitIdenticalToSoloAtOneTwoAndFourWorkers) {
  serve::JobResult solo = Solo();
  ASSERT_TRUE(solo.ok);
  for (int num_workers : {1, 2, 4}) {
    Coordinator coordinator;
    std::string error;
    ASSERT_TRUE(coordinator.Start(
        CoordinatorOptions("state_w" + std::to_string(num_workers),
                           /*lease_ms=*/2000, /*records_per_task=*/256),
        &error))
        << error;
    std::vector<std::unique_ptr<WorkerHarness>> workers;
    for (int i = 0; i < num_workers; ++i) {
      std::string id = "w";
      id += std::to_string(i);
      workers.push_back(std::make_unique<WorkerHarness>());
      workers.back()->Start(coordinator.port(), id, /*throttle_ms=*/0);
    }
    serve::JobResult result = coordinator.Run();
    for (auto& worker : workers) {
      worker->Join();
      EXPECT_TRUE(worker->status.ok()) << worker->status.ToString();
    }
    coordinator.Stop();
    ASSERT_TRUE(result.ok) << result.message;
    EXPECT_EQ(result.rows, solo.rows) << num_workers << " workers";
    EXPECT_EQ(result.scans, solo.scans) << num_workers << " workers";
  }
}

TEST_F(DistMiningTest, DrainWorkersAnswersEveryWorkerItHasSeen) {
  // A throttled worker sleeps after its last shard, so it polls again only
  // after the result. DrainWorkers keeps the coordinator answering until
  // it was told shutdown; stopping right after Run would leave it to find
  // the coordinator gone and retry until its connect timeout.
  Coordinator coordinator;
  std::string error;
  ASSERT_TRUE(coordinator.Start(
      CoordinatorOptions("state", /*lease_ms=*/1000, /*records_per_task=*/256),
      &error))
      << error;
  // A worker that said hello and went silent is awaited for one lease at
  // most, as a dead lease holder would be.
  RawConnection ghost(coordinator.port());
  ASSERT_TRUE(ghost.ok());
  ASSERT_TRUE(ghost
                  .RoundTrip("{\"v\": 1, \"op\": \"hello\", "
                             "\"worker\": \"ghost\"}\n")
                  .has_value());
  WorkerHarness slow;
  slow.Start(coordinator.port(), "slow", /*throttle_ms=*/300);
  serve::JobResult result = coordinator.Run();
  ASSERT_TRUE(result.ok) << result.message;
  const auto drain_start = std::chrono::steady_clock::now();
  coordinator.DrainWorkers();
  EXPECT_LT(std::chrono::steady_clock::now() - drain_start,
            std::chrono::seconds(5));
  coordinator.Stop();
  slow.Join();
  EXPECT_TRUE(slow.status.ok()) << slow.status.ToString();
  EXPECT_GT(slow.worker.tasks_completed(), 0);
}

TEST_F(DistMiningTest, StartStopLeavesNoThreadBehind) {
  // A coordinator's transport runs on threads it owns and joins, so
  // twenty start/stop cycles leave neither a process thread nor a
  // shared-pool worker behind.
  auto cycle = [this](int i) {
    Coordinator coordinator;
    std::string error;
    ASSERT_TRUE(coordinator.Start(
        CoordinatorOptions("state" + std::to_string(i), /*lease_ms=*/2000,
                           /*records_per_task=*/256),
        &error))
        << error;
    coordinator.Stop();
  };
  // The baseline follows one warm-up cycle, which may start process-wide
  // helpers that outlive it (such as a sanitizer's background thread).
  const int threads_at_start = testutil::ProcessThreadCount();
  ASSERT_GT(threads_at_start, 0);
  cycle(0);
  const int threads_before = testutil::SettledThreadCount(threads_at_start);
  const size_t pool_before = exec::ThreadPool::Shared().num_workers();
  for (int i = 1; i <= 20; ++i) cycle(i);
  EXPECT_EQ(exec::ThreadPool::Shared().num_workers(), pool_before);
  EXPECT_EQ(testutil::SettledThreadCount(threads_before), threads_before);
}

TEST_F(DistMiningTest, ShardzAnswers404AfterStop) {
  net::StatusServer statusz;
  std::string error;
  ASSERT_TRUE(statusz.Start(net::StatusServer::Options(), &error)) << error;
  Coordinator coordinator;
  ASSERT_TRUE(coordinator.Start(
      CoordinatorOptions("state", /*lease_ms=*/2000, /*records_per_task=*/256),
      &error))
      << error;
  std::optional<testutil::HttpResult> r =
      testutil::HttpGet(statusz.port(), "/shardz");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 200);
  EXPECT_TRUE(obs::ParseJson(r->body).has_value()) << r->body;
  coordinator.Stop();
  r = testutil::HttpGet(statusz.port(), "/shardz");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, 404);
  statusz.Stop();
}

TEST_F(DistMiningTest, DeadWorkersShardIsReassignedAndResumed) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const int64_t reassigned_before = reg.CounterValue("dist.shards.reassigned");
  const int64_t retaken_before = reg.CounterValue("dist.shards.resumed") +
                                 reg.CounterValue("dist.shards.restarted");

  Coordinator coordinator;
  std::string error;
  // 512-record tasks = 2 exec shards each: a worker can die BETWEEN its
  // task's exec shards, leaving journaled progress to resume from.
  ASSERT_TRUE(coordinator.Start(CoordinatorOptions("state", /*lease_ms=*/300,
                                                   /*records_per_task=*/512),
                                &error))
      << error;

  serve::JobResult result;
  std::thread run_thread([&] { result = coordinator.Run(); });

  // The doomed worker crawls (400 ms per exec shard, longer than the
  // lease) and is killed as soon as it has delivered one progress frame.
  WorkerHarness doomed;
  doomed.Start(coordinator.port(), "doomed", /*throttle_ms=*/400);
  ASSERT_TRUE(WaitForShardz(coordinator, [](const obs::JsonValue& shardz) {
    const obs::JsonValue* shards = shardz.Get("shards");
    if (shards == nullptr || !shards->is_array()) return false;
    for (const obs::JsonValue& shard : shards->array) {
      if (shard.GetNumber("done", 0.0) > 0.0) return true;
    }
    return false;
  }));
  doomed.run.RequestCancel();
  doomed.Join();
  EXPECT_EQ(doomed.status.code(), StatusCode::kCancelled);

  // The survivor inherits the half-done shard once the lease lapses.
  WorkerHarness survivor;
  survivor.Start(coordinator.port(), "survivor", /*throttle_ms=*/0);
  run_thread.join();
  survivor.Join();
  coordinator.Stop();

  ASSERT_TRUE(result.ok) << result.message;
  serve::JobResult solo = Solo();
  ASSERT_TRUE(solo.ok);
  EXPECT_EQ(result.rows, solo.rows);
  EXPECT_EQ(result.scans, solo.scans);
  EXPECT_GT(reg.CounterValue("dist.shards.reassigned"), reassigned_before);
  EXPECT_GT(reg.CounterValue("dist.shards.resumed") +
                reg.CounterValue("dist.shards.restarted"),
            retaken_before);
}

TEST_F(DistMiningTest, ZombieWithStaleEpochIsFencedAndNeverCounted) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const int64_t fenced_before = reg.CounterValue("dist.results.fenced");

  Coordinator coordinator;
  std::string error;
  ASSERT_TRUE(coordinator.Start(CoordinatorOptions("state", /*lease_ms=*/250,
                                                   /*records_per_task=*/256),
                                &error))
      << error;
  serve::JobResult result;
  std::thread run_thread([&] { result = coordinator.Run(); });

  // The zombie grabs a task, then goes silent past its lease.
  RawConnection zombie(coordinator.port());
  ASSERT_TRUE(zombie.ok());
  std::optional<obs::JsonValue> hello = zombie.RoundTrip(
      "{\"v\": 1, \"op\": \"hello\", \"worker\": \"zombie\"}\n");
  ASSERT_TRUE(hello.has_value());
  uint64_t scan = 0, shard = 0, epoch = 0;
  size_t width = 0, num_exec = 0;
  {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::seconds(10);
    bool granted = false;
    while (!granted && Clock::now() < deadline) {
      std::optional<obs::JsonValue> reply = zombie.RoundTrip(
          "{\"v\": 1, \"op\": \"poll\", \"worker\": \"zombie\"}\n");
      ASSERT_TRUE(reply.has_value());
      std::optional<PollReply> parsed = ParsePollReply(*reply);
      ASSERT_TRUE(parsed.has_value());
      ASSERT_FALSE(parsed->shutdown);  // job must not finish without us
      if (parsed->task.has_value()) {
        scan = parsed->task->scan;
        shard = parsed->task->shard;
        epoch = parsed->task->epoch;
        width = parsed->task->patterns.size();
        const uint64_t records =
            parsed->task->end_record - parsed->task->begin_record;
        num_exec = static_cast<size_t>((records + 255) / 256);
        granted = true;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    ASSERT_TRUE(granted);
  }

  // A live worker picks up the slack; wait until the coordinator has
  // re-granted the zombie's shard at a higher epoch.
  WorkerHarness worker;
  worker.Start(coordinator.port(), "live", /*throttle_ms=*/0);
  ASSERT_TRUE(WaitForShardz(coordinator, [&](const obs::JsonValue& shardz) {
    const obs::JsonValue* shards = shardz.Get("shards");
    if (shards == nullptr || !shards->is_array()) return false;
    for (const obs::JsonValue& s : shards->array) {
      if (static_cast<uint64_t>(s.GetNumber("id", 0.0)) == shard &&
          static_cast<uint64_t>(s.GetNumber("epoch", 0.0)) > epoch) {
        return true;
      }
    }
    // The whole scan may already be over — that also outruns the zombie.
    const obs::JsonValue* active = shardz.Get("scan_active");
    return active != nullptr && !active->bool_value;
  }));

  // The zombie wakes up and reports a COMPLETE, POISONED count under its
  // stale epoch. The coordinator must refuse it with a typed error.
  std::string poison = "{\"v\": 1, \"op\": \"progress\", \"worker\": "
                       "\"zombie\", \"scan\": " +
                       std::to_string(scan) +
                       ", \"shard\": " + std::to_string(shard) +
                       ", \"epoch\": " + std::to_string(epoch) +
                       ", \"done\": " + std::to_string(num_exec) +
                       ", \"complete\": true, \"partials\": [";
  for (size_t k = 0; k < num_exec; ++k) {
    if (k > 0) poison.append(", ");
    poison.append("[");
    for (size_t i = 0; i < width; ++i) {
      if (i > 0) poison.append(", ");
      poison += '"';
      poison += EncodeDoubleBits(999.0);
      poison += '"';
    }
    poison.append("]");
  }
  poison.append("]}\n");
  std::optional<obs::JsonValue> verdict = zombie.RoundTrip(poison);
  ASSERT_TRUE(verdict.has_value());
  const obs::JsonValue* ok = verdict->Get("ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_FALSE(ok->bool_value);
  const obs::JsonValue* code = verdict->Get("error");
  ASSERT_NE(code, nullptr);
  EXPECT_EQ(code->string_value, "FAILED_PRECONDITION");

  run_thread.join();
  worker.Join();
  coordinator.Stop();

  EXPECT_GT(reg.CounterValue("dist.results.fenced"), fenced_before);
  ASSERT_TRUE(result.ok) << result.message;
  serve::JobResult solo = Solo();
  ASSERT_TRUE(solo.ok);
  // The poison never landed: bit-identical rows.
  EXPECT_EQ(result.rows, solo.rows);
}

TEST_F(DistMiningTest, CoordinatorRestartAdoptsTheJournaledScan) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const int64_t adopted_before = reg.CounterValue("dist.scans.adopted");
  const std::string state_subdir = "state";

  serve::JobResult first_result;
  {
    Coordinator coordinator;
    std::string error;
    // One worker that pauses 10 s after each task, and a lease long
    // enough that the coordinator does not count the rest itself in the
    // meantime: the scan stays in flight after its first progress line.
    ASSERT_TRUE(coordinator.Start(
        CoordinatorOptions(state_subdir, /*lease_ms=*/5000,
                           /*records_per_task=*/256),
        &error))
        << error;
    WorkerHarness slow_worker;
    slow_worker.Start(coordinator.port(), "slow", /*throttle_ms=*/10000);
    std::thread run_thread([&] { first_result = coordinator.Run(); });
    // Kill the first life mid-scan, right after the FIRST task's progress
    // hits the journal (the file is the durable, race-free signal — the
    // live shardz view exposes mid-scan state only for instants). The job
    // has exactly one distributed scan (phase 3 verifies all candidates
    // in a single batch) of three single-exec-shard tasks, so when the
    // first progress line lands, the worker's pause still separates the
    // scan from its scan_end — ample room for Stop() to cancel mid-scan
    // and strand an in-flight scan WITH journaled shard progress.
    const std::string journal_path = dir_ + "/" + state_subdir +
                                     "/dist.journal";
    bool mid_scan = false;
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
    while (Clock::now() < deadline) {
      std::ifstream in(journal_path);
      std::string contents((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
      if (contents.find("\"event\": \"progress\"") != std::string::npos) {
        mid_scan = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    coordinator.Stop();
    run_thread.join();
    ASSERT_TRUE(mid_scan);
    EXPECT_FALSE(first_result.ok);  // the first life died mid-run
  }

  // Second life, same state dir: resumes the run from its checkpoint and
  // adopts the in-flight scan's journaled shard progress.
  Coordinator coordinator;
  std::string error;
  ASSERT_TRUE(coordinator.Start(CoordinatorOptions(state_subdir,
                                                   /*lease_ms=*/100,
                                                   /*records_per_task=*/256),
                                &error))
      << error;
  serve::JobResult result = coordinator.Run();
  coordinator.Stop();

  ASSERT_TRUE(result.ok) << result.message;
  EXPECT_TRUE(result.resumed_from_checkpoint);
  EXPECT_GT(reg.CounterValue("dist.scans.adopted"), adopted_before);
  serve::JobResult solo = Solo();
  ASSERT_TRUE(solo.ok);
  EXPECT_EQ(result.rows, solo.rows);
  EXPECT_EQ(result.scans, solo.scans);
}

TEST_F(DistMiningTest, WorkerPollDuringLocalCountLeavesItsLeaseAlone) {
  // The coordinator counts a shard itself after a lease period of network
  // silence, with the lock released. A worker that polls meanwhile runs
  // the lease sweep; it must not expire the coordinator's own grant, or
  // the two fence each other's counts.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const int64_t reassigned_before = reg.CounterValue("dist.shards.reassigned");
  const int64_t fenced_before = reg.CounterValue("dist.results.fenced");

  // One dist shard covers the whole database.
  const int64_t lease_ms = 200;
  Coordinator coordinator;
  std::string error;
  ASSERT_TRUE(coordinator.Start(
      CoordinatorOptions("state", lease_ms, /*records_per_task=*/1024),
      &error))
      << error;
  serve::JobResult result;
  std::atomic<bool> finished{false};
  std::thread run_thread([&] {
    result = coordinator.Run();
    finished.store(true);
  });

  // Once the first scan is in flight, put a FIFO in the database's place:
  // the local count blocks opening it until the FIFO's second name is
  // opened for writing, which holds the count open past its lease.
  HelloKeepalive keepalive(coordinator.port());
  EXPECT_TRUE(WaitForShardz(coordinator, ScanActive));
  const std::string real_path = db_path_ + ".real";
  const std::string fifo_path = db_path_ + ".fifo";
  std::error_code ec;
  std::filesystem::rename(db_path_, real_path, ec);
  EXPECT_FALSE(ec) << ec.message();
  EXPECT_EQ(::mkfifo(db_path_.c_str(), 0600), 0);
  std::filesystem::create_hard_link(db_path_, fifo_path, ec);
  EXPECT_FALSE(ec) << ec.message();
  keepalive.Stop();

  // The owner and epoch of the shard the coordinator counts.
  struct LocalShard {
    double id = -1.0, epoch = 0.0;
  };
  auto local_shard = [&]() {
    LocalShard found;
    std::optional<obs::JsonValue> shardz =
        obs::ParseJson(coordinator.ShardzJson());
    const obs::JsonValue* shards =
        shardz.has_value() ? shardz->Get("shards") : nullptr;
    if (shards == nullptr || !shards->is_array()) return found;
    for (const obs::JsonValue& shard : shards->array) {
      const obs::JsonValue* owner = shard.Get("owner");
      if (owner != nullptr && owner->string_value == "coordinator") {
        found.id = shard.GetNumber("id", -1.0);
        found.epoch = shard.GetNumber("epoch", 0.0);
      }
    }
    return found;
  };
  // No ASSERT until the count is released: Run() must be able to finish.
  const bool entered = WaitForShardz(coordinator, [&](const obs::JsonValue&) {
    return local_shard().id >= 0.0;
  });
  EXPECT_TRUE(entered) << "the coordinator never counted a shard itself";
  if (entered) {
    const LocalShard before = local_shard();
    // Let a lease period lapse, then poll as a worker.
    std::this_thread::sleep_for(std::chrono::milliseconds(3 * lease_ms));
    RawConnection poller(coordinator.port());
    EXPECT_TRUE(poller.ok());
    std::optional<obs::JsonValue> reply;
    if (poller.ok()) {
      reply = poller.RoundTrip(
          "{\"v\": 1, \"op\": \"poll\", \"worker\": \"poller\"}\n");
    }
    std::optional<PollReply> parsed;
    if (reply.has_value()) parsed = ParsePollReply(*reply);
    EXPECT_TRUE(parsed.has_value());
    if (parsed.has_value()) {
      EXPECT_FALSE(parsed->task.has_value()) << "the poll took the local shard";
    }
    // Still counting locally under the same grant.
    const LocalShard after = local_shard();
    EXPECT_EQ(after.id, before.id);
    EXPECT_EQ(after.epoch, before.epoch);
  }

  // Put the database back and release the blocked open: the attempt sees
  // a changed file, and its retry reads the database.
  std::filesystem::rename(real_path, db_path_, ec);
  EXPECT_FALSE(ec) << ec.message();
  EXPECT_TRUE(AwaitRun(coordinator, finished, [&] {
    const int fd = ::open(fifo_path.c_str(), O_WRONLY | O_NONBLOCK | O_CLOEXEC);
    if (fd >= 0) ::close(fd);
  }));
  run_thread.join();
  coordinator.Stop();
  ASSERT_TRUE(result.ok) << result.message;
  serve::JobResult solo = Solo();
  ASSERT_TRUE(solo.ok);
  EXPECT_EQ(result.rows, solo.rows);
  EXPECT_EQ(result.scans, solo.scans);
  EXPECT_EQ(reg.CounterValue("dist.shards.reassigned"), reassigned_before);
  EXPECT_EQ(reg.CounterValue("dist.results.fenced"), fenced_before);
}

TEST_F(DistMiningTest, LocalCountThatFailsTransientlyGivesItsShardBack) {
  // A local count that fails transiently (here: the file changed since
  // open, on every retry) must return its shard to pending, or the scan
  // waits forever on a shard no one holds.
  Coordinator coordinator;
  std::string error;
  ASSERT_TRUE(coordinator.Start(CoordinatorOptions("state", /*lease_ms=*/100,
                                                   /*records_per_task=*/256),
                                &error))
      << error;
  serve::JobResult result;
  std::atomic<bool> finished{false};
  std::thread run_thread([&] {
    result = coordinator.Run();
    finished.store(true);
  });

  // Once the first scan is in flight, grow the file by one byte so every
  // range scan of it fails; then let the coordinator count.
  HelloKeepalive keepalive(coordinator.port());
  EXPECT_TRUE(WaitForShardz(coordinator, ScanActive));
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(db_path_, ec);
  EXPECT_FALSE(ec) << ec.message();
  { std::ofstream(db_path_, std::ios::binary | std::ios::app).put('\0'); }
  keepalive.Stop();

  // A shard granted (epoch >= 1), not complete, and owned by no one: the
  // failed local count gave it back.
  const bool given_back =
      WaitForShardz(coordinator, [](const obs::JsonValue& shardz) {
        const obs::JsonValue* shards = shardz.Get("shards");
        if (shards == nullptr || !shards->is_array()) return false;
        for (const obs::JsonValue& shard : shards->array) {
          const obs::JsonValue* owner = shard.Get("owner");
          const obs::JsonValue* complete = shard.Get("complete");
          if (shard.GetNumber("epoch", 0.0) >= 1.0 && owner != nullptr &&
              owner->string_value.empty() && complete != nullptr &&
              !complete->bool_value) {
            return true;
          }
        }
        return false;
      });
  EXPECT_TRUE(given_back) << "the failed local count kept its shard";

  std::filesystem::resize_file(db_path_, size, ec);
  EXPECT_FALSE(ec) << ec.message();
  EXPECT_TRUE(AwaitRun(coordinator, finished, [] {}));
  run_thread.join();
  coordinator.Stop();
  ASSERT_TRUE(result.ok) << result.message;
  serve::JobResult solo = Solo();
  ASSERT_TRUE(solo.ok);
  EXPECT_EQ(result.rows, solo.rows);
  EXPECT_EQ(result.scans, solo.scans);
}

TEST_F(DistMiningTest, WorkerCannotTakeTheCoordinatorsOwnerName) {
  // A poll re-grants the shards its worker name owns, so a remote worker
  // named "coordinator" would take the shard the coordinator is counting:
  // it is refused.
  Coordinator coordinator;
  std::string error;
  ASSERT_TRUE(coordinator.Start(CoordinatorOptions("state", /*lease_ms=*/2000,
                                                   /*records_per_task=*/256),
                                &error))
      << error;
  RawConnection impostor(coordinator.port());
  ASSERT_TRUE(impostor.ok());
  for (const char* op : {"hello", "poll"}) {
    std::optional<obs::JsonValue> reply = impostor.RoundTrip(
        std::string("{\"v\": 1, \"op\": \"") + op +
        "\", \"worker\": \"coordinator\"}\n");
    ASSERT_TRUE(reply.has_value()) << op;
    const obs::JsonValue* ok = reply->Get("ok");
    ASSERT_NE(ok, nullptr) << op;
    EXPECT_FALSE(ok->bool_value) << op;
    const obs::JsonValue* code = reply->Get("error");
    ASSERT_NE(code, nullptr) << op;
    EXPECT_EQ(code->string_value, "INVALID_ARGUMENT") << op;
  }
  coordinator.Stop();
}

TEST_F(DistMiningTest, ShardzExposesOwnersLeasesAndCounters) {
  Coordinator coordinator;
  std::string error;
  // 512-record tasks = 2 exec shards: after the first progress frame the
  // worker throttles 100 ms, leaving its lease visibly held (owner set,
  // done == 1) for the poll below to observe.
  ASSERT_TRUE(coordinator.Start(CoordinatorOptions("state", /*lease_ms=*/5000,
                                                   /*records_per_task=*/512),
                                &error))
      << error;
  serve::JobResult result;
  std::thread run_thread([&] { result = coordinator.Run(); });
  WorkerHarness worker;
  worker.Start(coordinator.port(), "observer-w", /*throttle_ms=*/100);

  bool saw_owner = false;
  WaitForShardz(coordinator, [&](const obs::JsonValue& shardz) {
    const obs::JsonValue* shards = shardz.Get("shards");
    if (shards == nullptr || !shards->is_array()) return false;
    for (const obs::JsonValue& shard : shards->array) {
      const obs::JsonValue* owner = shard.Get("owner");
      if (owner != nullptr && owner->string_value == "observer-w" &&
          shard.Get("lease_age_ms") != nullptr &&
          shard.Get("reassigns") != nullptr &&
          shard.Get("epoch") != nullptr) {
        saw_owner = true;
        return true;
      }
    }
    return false;
  });
  run_thread.join();
  worker.Join();
  coordinator.Stop();

  EXPECT_TRUE(saw_owner);
  ASSERT_TRUE(result.ok);
  // Run-level counters ride along on every board.
  std::optional<obs::JsonValue> shardz =
      obs::ParseJson(coordinator.ShardzJson());
  ASSERT_TRUE(shardz.has_value());
  EXPECT_NE(shardz->Get("reassigned"), nullptr);
  EXPECT_NE(shardz->Get("fenced"), nullptr);
  EXPECT_NE(shardz->Get("resumed"), nullptr);
  EXPECT_NE(shardz->Get("restarted"), nullptr);
}

}  // namespace
}  // namespace dist
}  // namespace nmine
