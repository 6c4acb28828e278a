// Passes over the database file, counted as perfbench counts them: the
// bytes this process read, from /proc/self/io. The paper's cost axis is
// full scans of a disk-resident database; border collapsing charges two
// (Phase 1 and Phase 3), and opening the file is one more, validating,
// pass. Nothing else may read the file: no alphabet scan, no second open
// per run, no worker pre-scan. Workers seek by the coordinator's offsets
// and refuse a file or a task that does not match them.
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nmine/db/disk_database.h"
#include "nmine/db/format.h"
#include "nmine/dist/coordinator.h"
#include "nmine/dist/wire.h"
#include "nmine/dist/worker.h"
#include "nmine/gen/workload.h"
#include "nmine/net/transport.h"
#include "nmine/serve/job.h"
#include "nmine/serve/protocol.h"
#include "test_util.h"

namespace nmine {
namespace dist {
namespace {

/// rchar of /proc/self/io: bytes this process passed through read(2) and
/// friends, sockets' recv(2) excluded.
uint64_t CharsRead() {
  const int fd = ::open("/proc/self/io", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return 0;
  char buf[512];
  const ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
  ::close(fd);
  if (n <= 0) return 0;
  buf[n] = '\0';
  const char* field = std::strstr(buf, "rchar:");
  return field == nullptr ? 0 : std::strtoull(field + 6, nullptr, 10);
}

/// Reading /proc/self/io itself counts; this bounds it, far below a pass.
constexpr uint64_t kProcReadSlack = 1024;
/// What a range scan or a worker's hello reads of the header: magic,
/// version and the longest count varint.
constexpr uint64_t kHeaderBytes = 4 + 1 + 10;

class FilePassesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string(::testing::TempDir()) + "/passes_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    WorkloadSpec wspec;
    wspec.num_sequences = 1500;  // six exec shards
    wspec.min_length = 6;
    wspec.max_length = 12;
    wspec.num_planted = 2;
    wspec.planted_symbols_min = 3;
    wspec.planted_symbols_max = 3;
    wspec.seed = 29;
    NoisyWorkload workload = MakeUniformNoiseWorkload(wspec, 0.1);
    db_path_ = dir_ + "/db.nmsq";
    ASSERT_TRUE(
        dbformat::WriteDatabaseFile(db_path_, workload.test.records()).ok);
    file_bytes_ = std::filesystem::file_size(db_path_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  serve::JobSpec Spec() const {
    serve::JobSpec spec;
    spec.db_path = db_path_;
    spec.uniform_alpha = 0.1;
    spec.threshold = 0.3;
    spec.max_span = 4;
    spec.sample_size = 150;
    spec.delta = 0.05;
    return spec;
  }

  std::string dir_;
  std::string db_path_;
  uint64_t file_bytes_ = 0;
};

TEST_F(FilePassesTest, RunJobReadsTheFileOnceToOpenPlusOncePerScan) {
  const uint64_t before = CharsRead();
  serve::JobResult result = serve::RunJob(Spec(), "", nullptr);
  const uint64_t read = CharsRead() - before;
  ASSERT_TRUE(result.ok) << result.message;
  EXPECT_EQ(result.scans, 2);
  const uint64_t passes = 1 + static_cast<uint64_t>(result.scans);
  EXPECT_GE(read, passes * file_bytes_);
  EXPECT_LE(read, passes * file_bytes_ + kProcReadSlack)
      << "read " << read << " bytes of a " << file_bytes_ << "-byte file";
}

TEST_F(FilePassesTest, CoordinatorRunReadsTheFileThreeTimesAtAnyWorkerCount) {
  // Open, Phase 1 and the ranges of the one distributed Phase-3 scan; each
  // range and each worker's hello adds only a header.
  const uint64_t ranges = (1500 + 255) / 256;
  for (int num_workers : {1, 2, 4}) {
    const uint64_t before = CharsRead();
    Coordinator coordinator;
    Coordinator::Options options;
    options.state_dir = dir_ + "/state_w" + std::to_string(num_workers);
    options.spec = Spec();
    options.records_per_task = 256;
    std::string error;
    ASSERT_TRUE(coordinator.Start(options, &error)) << error;
    std::vector<std::unique_ptr<DistWorker>> workers(num_workers);
    std::vector<std::thread> threads;
    for (int i = 0; i < num_workers; ++i) {
      workers[i] = std::make_unique<DistWorker>();
      threads.emplace_back([&coordinator, &workers, i] {
        DistWorker::Options wo;
        wo.port = coordinator.port();
        wo.name = "w" + std::to_string(i);
        EXPECT_TRUE(workers[i]->Run(wo).ok());
      });
    }
    serve::JobResult result = coordinator.Run();
    for (std::thread& t : threads) t.join();
    coordinator.Stop();
    const uint64_t read = CharsRead() - before;
    ASSERT_TRUE(result.ok) << result.message;
    EXPECT_EQ(result.scans, 2);
    EXPECT_GE(read, 3 * file_bytes_) << num_workers << " workers";
    EXPECT_LE(read, 3 * file_bytes_ +
                        kHeaderBytes * (ranges + num_workers) +
                        kProcReadSlack)
        << num_workers << " workers read " << read << " bytes of a "
        << file_bytes_ << "-byte file";
  }
}

/// A stand-in coordinator: a hello answers `hello`, the first poll hands
/// out `task` (when set), progress is acked, and every later poll says
/// shutdown.
class FakeCoordinator {
 public:
  FakeCoordinator(const HelloInfo& hello, std::optional<TaskAssignment> task)
      : hello_(hello), task_(std::move(task)) {
    net::LineServer::Options options;
    options.max_line_bytes = kMaxFrameBytes;
    std::string error;
    EXPECT_TRUE(server_.Start(
        options,
        [this](const std::string& line) {
          std::optional<DistRequest> request =
              ParseDistRequest(line, nullptr, nullptr);
          if (!request.has_value()) {
            return serve::ErrorResponse("INVALID_ARGUMENT", "bad frame");
          }
          if (request->op == "hello") return HelloResponse(hello_);
          if (request->op == "progress") {
            progress_frames_.fetch_add(1);
            return serve::OkResponse();
          }
          if (task_.has_value() && !task_sent_.exchange(true)) {
            return TaskResponse(*task_);
          }
          return ShutdownResponse();
        },
        &error))
        << error;
  }

  uint16_t port() const { return server_.port(); }
  int progress_frames() const { return progress_frames_.load(); }

 private:
  HelloInfo hello_;
  std::optional<TaskAssignment> task_;
  std::atomic<bool> task_sent_{false};
  std::atomic<int> progress_frames_{0};
  net::LineServer server_;
};

Status RunWorker(uint16_t port) {
  DistWorker worker;
  DistWorker::Options options;
  options.port = port;
  options.name = "w";
  options.connect_timeout_s = 5.0;
  return worker.Run(options);
}

class WorkerChecksTest : public FilePassesTest {
 protected:
  void SetUp() override {
    FilePassesTest::SetUp();
    Status error;
    db_ = DiskSequenceDatabase::Open(db_path_, &error);
    ASSERT_NE(db_, nullptr) << error.ToString();
    hello_.db_path = db_path_;
    hello_.uniform_alpha = 0.1;
    hello_.metric = "match";
    hello_.num_symbols = static_cast<uint64_t>(db_->max_symbol() + 1);
    hello_.num_sequences = db_->NumSequences();
    hello_.file_bytes = db_->file_bytes();
    hello_.exec_shard_size = 256;
    hello_.lease_ms = 2000;
  }

  /// Records [256, 768): two exec shards, with the index's offsets.
  TaskAssignment Task() const {
    TaskAssignment task;
    task.scan = 1;
    task.epoch = 1;
    task.begin_record = 256;
    task.end_record = 768;
    task.offsets = {db_->RecordOffset(256), db_->RecordOffset(512),
                    db_->RecordOffset(768)};
    task.patterns = {testutil::P({0, 1})};
    return task;
  }

  std::unique_ptr<DiskSequenceDatabase> db_;
  HelloInfo hello_;
};

TEST_F(WorkerChecksTest, WorkerRefusesAFileOfAnotherCountOrSize) {
  {
    FakeCoordinator same(hello_, std::nullopt);
    EXPECT_TRUE(RunWorker(same.port()).ok());
  }
  HelloInfo other_count = hello_;
  other_count.num_sequences += 1;
  HelloInfo other_size = hello_;
  other_size.file_bytes += 1;
  for (const HelloInfo& hello : {other_count, other_size}) {
    FakeCoordinator coordinator(hello, std::nullopt);
    Status status = RunWorker(coordinator.port());
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
        << status.ToString();
    EXPECT_NE(status.message().find("different file?"), std::string::npos)
        << status.ToString();
  }
}

TEST_F(WorkerChecksTest, WorkerRefusesATaskWhoseOffsetsMissItsRecords) {
  {
    FakeCoordinator coordinator(hello_, Task());
    Status status = RunWorker(coordinator.port());
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(coordinator.progress_frames(), 2);
  }
  // A boundary past or before the true one: the first exec shard then
  // ends off its offset (or needs bytes past it), or the second one does.
  const struct {
    size_t boundary;
    int64_t shift;
    int frames_before_refusal;
  } moves[] = {{1, 1, 0}, {1, -1, 0}, {2, 1, 1}, {2, -1, 1}};
  for (const auto& move : moves) {
    TaskAssignment task = Task();
    task.offsets[move.boundary] = static_cast<uint64_t>(
        static_cast<int64_t>(task.offsets[move.boundary]) + move.shift);
    FakeCoordinator coordinator(hello_, task);
    Status status = RunWorker(coordinator.port());
    const std::string where = "boundary " + std::to_string(move.boundary) +
                              " shifted " + std::to_string(move.shift);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss)
        << where << ": " << status.ToString();
    EXPECT_EQ(coordinator.progress_frames(), move.frames_before_refusal)
        << where;
  }
  // No offsets, or one short: refused before reading anything.
  for (size_t keep : {0, 2}) {
    TaskAssignment task = Task();
    task.offsets.resize(keep);
    FakeCoordinator coordinator(hello_, task);
    Status status = RunWorker(coordinator.port());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << keep << " offsets: " << status.ToString();
    EXPECT_EQ(coordinator.progress_frames(), 0);
  }
}

}  // namespace
}  // namespace dist
}  // namespace nmine
