// Crash-recovery coverage for the job journal beyond the happy replay the
// server test exercises: a torn trailing line (SIGKILL mid-write) must be
// skipped and compacted away, running jobs rewind to queued, the
// terminal-job cap bounds the journal, and an idempotent resubmit lands on
// the SAME recovered job across a real server restart. (A leftover
// compaction .tmp is the shared log's case: runtime/append_log_test.cc.)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "nmine/db/format.h"
#include "nmine/gen/workload.h"
#include "nmine/obs/json_parse.h"
#include "nmine/serve/job.h"
#include "nmine/serve/job_journal.h"
#include "nmine/serve/server.h"

namespace nmine {
namespace serve {
namespace {

/// One request -> one response over a fresh connection.
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

/// Job embeds a RunControl and cannot be copied or moved, so the helper
/// fills a caller-owned instance in place.
void FillJob(Job* job, uint64_t id, const std::string& tag) {
  job->id = id;
  job->client = "alice";
  job->tag = tag;
  job->spec.db_path = "/data/db.nmsq";
  job->spec.threshold = 0.3;
}

Status SubmitJob(JobJournal* journal, uint64_t id, const std::string& tag) {
  Job job;
  FillJob(&job, id, tag);
  return journal->AppendSubmit(job);
}

class JournalReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string(::testing::TempDir()) + "/journal_replay_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<JobJournal> Open(std::map<uint64_t, Job>* recovered,
                                   uint64_t* next_id) {
    std::string error;
    std::unique_ptr<JobJournal> journal =
        JobJournal::Open(dir_, recovered, next_id, &error);
    EXPECT_NE(journal, nullptr) << error;
    return journal;
  }

  std::string JournalContents(const std::string& path) {
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  std::string dir_;
};

TEST_F(JournalReplayTest, TornTailIsSkippedAndCompactedAway) {
  std::map<uint64_t, Job> recovered;
  uint64_t next_id = 0;
  std::unique_ptr<JobJournal> journal = Open(&recovered, &next_id);
  ASSERT_NE(journal, nullptr);
  const std::string path = journal->path();
  ASSERT_TRUE(SubmitJob(journal.get(), 1, "t1").ok());
  ASSERT_TRUE(SubmitJob(journal.get(), 2, "t2").ok());
  ASSERT_TRUE(journal->AppendState(1, JobState::kRunning).ok());
  journal.reset();

  // SIGKILL mid-append: half a submit line, no terminating newline.
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"event\": \"submit\", \"id\": 3, \"client\": \"zebra";
  }

  journal = Open(&recovered, &next_id);
  ASSERT_NE(journal, nullptr);
  ASSERT_EQ(recovered.size(), 2u);
  EXPECT_EQ(next_id, 3u);  // the torn job 3 was never acknowledged
  // Job 1 was running at the crash: rewound so the executor re-runs it.
  EXPECT_EQ(recovered.at(1).state, JobState::kQueued);
  EXPECT_EQ(recovered.at(2).tag, "t2");
  // Compaction rewrote the journal: the torn fragment is gone for good,
  // so the NEXT restart replays a clean file.
  EXPECT_EQ(JournalContents(path).find("zebra"), std::string::npos);
}

TEST_F(JournalReplayTest, ResultLineMakesAJobTerminalOnReplay) {
  std::map<uint64_t, Job> recovered;
  uint64_t next_id = 0;
  std::unique_ptr<JobJournal> journal = Open(&recovered, &next_id);
  ASSERT_NE(journal, nullptr);
  ASSERT_TRUE(SubmitJob(journal.get(), 1, "t1").ok());
  ASSERT_TRUE(journal->AppendState(1, JobState::kRunning).ok());
  JobResult result;
  result.ok = true;
  result.rows = {{"0 1 2", "0.53"}};
  result.scans = 7;
  ASSERT_TRUE(journal->AppendResult(1, result).ok());
  ASSERT_TRUE(journal->AppendState(1, JobState::kDone).ok());
  journal.reset();

  journal = Open(&recovered, &next_id);
  ASSERT_NE(journal, nullptr);
  ASSERT_EQ(recovered.count(1), 1u);
  const Job& job = recovered.at(1);
  // Terminal with a journaled result: NOT rewound, nothing re-runs.
  EXPECT_EQ(job.state, JobState::kDone);
  ASSERT_EQ(job.result.rows.size(), 1u);
  EXPECT_EQ(job.result.rows[0].first, "0 1 2");
  EXPECT_EQ(job.result.scans, 7);
}

TEST_F(JournalReplayTest, CompactionDropsOnlyTheOldestTerminalJobs) {
  std::map<uint64_t, Job> recovered;
  uint64_t next_id = 0;
  std::unique_ptr<JobJournal> journal = Open(&recovered, &next_id);
  ASSERT_NE(journal, nullptr);
  const size_t total = JobJournal::kMaxTerminalKept + 8;
  JobResult done_result;
  done_result.ok = true;
  for (uint64_t id = 1; id <= total; ++id) {
    std::string tag = "t";
    tag += std::to_string(id);
    ASSERT_TRUE(SubmitJob(journal.get(), id, tag).ok());
    ASSERT_TRUE(journal->AppendResult(id, done_result).ok());
    ASSERT_TRUE(journal->AppendState(id, JobState::kDone).ok());
  }
  // One live job, newer than everything: must survive regardless of cap.
  ASSERT_TRUE(SubmitJob(journal.get(), total + 1, "live").ok());
  journal.reset();

  journal = Open(&recovered, &next_id);
  ASSERT_NE(journal, nullptr);
  EXPECT_EQ(recovered.size(), JobJournal::kMaxTerminalKept + 1);
  EXPECT_EQ(recovered.count(1), 0u);  // oldest terminal: dropped
  EXPECT_EQ(recovered.count(total), 1u);  // newest terminal: kept
  EXPECT_EQ(recovered.at(total + 1).state, JobState::kQueued);
  EXPECT_EQ(next_id, total + 2);
}

// The end-to-end half: a restart replays the journal, and a client that
// never saw its submit ack resubmits the SAME client+tag — the recovered
// board must absorb it as a dedup, not run the job twice.
class ResubmitAcrossRestartTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string(::testing::TempDir()) + "/resubmit_restart_" +
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

  JobSpec Spec() const {
    JobSpec spec;
    spec.db_path = db_path_;
    spec.uniform_alpha = 0.1;
    spec.threshold = 0.3;
    spec.max_span = 4;
    spec.sample_size = 60;
    spec.delta = 0.05;
    return spec;
  }

  std::string dir_;
  std::string db_path_;
};

TEST_F(ResubmitAcrossRestartTest, SameTagReattachesToTheRecoveredJob) {
  MiningServer::Options options;
  options.state_dir = dir_ + "/state";
  options.max_running = 0;  // admit-only: the job is journaled, never run
  std::string error;

  uint64_t id = 0;
  {
    MiningServer server;
    ASSERT_TRUE(server.Start(options, &error)) << error;
    std::optional<obs::JsonValue> ack = Ask(server.port(), SubmitLine("alice", "once", Spec()));
    ASSERT_TRUE(ack.has_value());
    ASSERT_TRUE(ack->Get("ok")->bool_value);
    id = static_cast<uint64_t>(ack->GetNumber("id", 0.0));
    ASSERT_GT(id, 0u);
    server.Stop();  // abrupt: the queued job survives only in the journal
  }

  options.max_running = 1;  // the reborn server actually runs jobs
  MiningServer reborn;
  ASSERT_TRUE(reborn.Start(options, &error)) << error;
  // The client never saw a terminal state, so it resubmits the same
  // client+tag. At-most-once admission: same id, marked deduped.
  std::optional<obs::JsonValue> again = Ask(reborn.port(), SubmitLine("alice", "once", Spec()));
  ASSERT_TRUE(again.has_value());
  ASSERT_TRUE(again->Get("ok")->bool_value);
  EXPECT_DOUBLE_EQ(again->GetNumber("id", 0.0),
                   static_cast<double>(id));
  EXPECT_NE(again->Get("deduped"), nullptr);

  std::optional<obs::JsonValue> done = Ask(reborn.port(),
      "{\"op\": \"wait\", \"id\": " + std::to_string(id) + "}\n");
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->Get("state")->string_value, "done");
  // Exactly one run: the resubmit attached, it did not clone the job.
  std::optional<obs::JsonValue> board =
      Ask(reborn.port(), "{\"op\": \"jobs\"}\n");
  ASSERT_TRUE(board.has_value());
  EXPECT_DOUBLE_EQ(
      board->Get("board")->Get("counts")->GetNumber("done", -1.0), 1.0);
  reborn.Stop();
}

}  // namespace
}  // namespace serve
}  // namespace nmine
