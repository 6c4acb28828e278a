// Crash-consistency corpus of the shared append-only log — the one WAL
// under serve::JobJournal and dist::DistJournal. Their own tests cover
// event semantics; this corpus covers the file mechanics both rely on:
// torn tails at every byte offset, a leftover compaction .tmp, appends
// after a reopen, unwritable state, and concurrent appenders.
#include "nmine/runtime/append_log.h"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace nmine {
namespace runtime {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class AppendLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string(::testing::TempDir()) + "/append_log_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path() const { return dir_ + "/test.log"; }

  /// Opens the log, collecting replayed lines into *replayed and
  /// compacting to exactly those lines.
  Status OpenKeepingAll(std::vector<std::string>* replayed,
                        std::unique_ptr<AppendLog>* log) {
    replayed->clear();
    return AppendLog::Open(
        dir_, "test.log",
        [replayed](const std::string& line) { replayed->push_back(line); },
        [replayed] {
          std::string out;
          for (const std::string& line : *replayed) out += line + "\n";
          return out;
        },
        log);
  }

  std::string dir_;
};

TEST_F(AppendLogTest, FreshDirIsCreatedAndEmpty) {
  std::vector<std::string> replayed;
  std::unique_ptr<AppendLog> log;
  ASSERT_TRUE(OpenKeepingAll(&replayed, &log).ok());
  ASSERT_NE(log, nullptr);
  EXPECT_TRUE(replayed.empty());
  EXPECT_EQ(log->path(), Path());
  EXPECT_TRUE(std::filesystem::exists(Path()));
}

TEST_F(AppendLogTest, TornTailAtEveryCutReplaysTheTerminatedPrefix) {
  // Lines of the shapes both journals write: JSON objects, one holding an
  // escaped newline, plus an empty line.
  const std::vector<std::string> lines = {
      "{\"event\": \"submit\", \"id\": 1, \"client\": \"a\\nb\"}",
      "{\"event\": \"epoch\", \"shard\": 0, \"epoch\": 3}",
      "",
      "{\"event\": \"state\", \"id\": 1, \"state\": \"running\"}",
  };
  std::string full;
  {
    std::vector<std::string> replayed;
    std::unique_ptr<AppendLog> log;
    ASSERT_TRUE(OpenKeepingAll(&replayed, &log).ok());
    for (const std::string& line : lines) {
      ASSERT_TRUE(log->Append(line + "\n").ok());
    }
    full = ReadFile(Path());
  }
  ASSERT_EQ(full.size(), [&] {
    size_t n = 0;
    for (const std::string& line : lines) n += line.size() + 1;
    return n;
  }());

  for (size_t cut = 0; cut <= full.size(); ++cut) {
    const std::string prefix = full.substr(0, cut);
    WriteFile(Path(), prefix);
    // Exactly the newline-terminated lines of the prefix are replayed; a
    // fragment — even a complete JSON object missing only its newline —
    // never is.
    std::vector<std::string> want;
    size_t begin = 0;
    for (size_t nl; (nl = prefix.find('\n', begin)) != std::string::npos;
         begin = nl + 1) {
      want.push_back(prefix.substr(begin, nl - begin));
    }
    std::vector<std::string> replayed;
    std::unique_ptr<AppendLog> log;
    Status s = OpenKeepingAll(&replayed, &log);
    ASSERT_TRUE(s.ok()) << "cut at byte " << cut << ": " << s.ToString();
    EXPECT_EQ(replayed, want) << "cut at byte " << cut;
    // Compaction dropped the fragment: the file is the terminated prefix.
    EXPECT_EQ(ReadFile(Path()), prefix.substr(0, begin))
        << "cut at byte " << cut;
  }
}

TEST_F(AppendLogTest, AppendAfterReopenLandsAfterTheCompactedContent) {
  {
    std::vector<std::string> replayed;
    std::unique_ptr<AppendLog> log;
    ASSERT_TRUE(OpenKeepingAll(&replayed, &log).ok());
    ASSERT_TRUE(log->Append("first\n").ok());
    ASSERT_TRUE(log->Append("second\n").ok());
  }
  // Crash mid-append: a torn third line.
  {
    std::ofstream out(Path(), std::ios::binary | std::ios::app);
    out << "thi";
  }
  // Compact to a rewritten form (like a journal's board rewrite), then
  // append: the new line follows the compacted bytes, never the fragment.
  std::vector<std::string> replayed;
  std::unique_ptr<AppendLog> log;
  ASSERT_TRUE(AppendLog::Open(
                  dir_, "test.log",
                  [&](const std::string& line) { replayed.push_back(line); },
                  [] { return std::string("compacted\n"); }, &log)
                  .ok());
  EXPECT_EQ(replayed, (std::vector<std::string>{"first", "second"}));
  ASSERT_TRUE(log->Append("third\n").ok());
  EXPECT_EQ(ReadFile(Path()), "compacted\nthird\n");
  log.reset();

  ASSERT_TRUE(OpenKeepingAll(&replayed, &log).ok());
  EXPECT_EQ(replayed, (std::vector<std::string>{"compacted", "third"}));
}

TEST_F(AppendLogTest, LeftoverTmpIsIgnoredThenReclaimed) {
  {
    std::vector<std::string> replayed;
    std::unique_ptr<AppendLog> log;
    ASSERT_TRUE(OpenKeepingAll(&replayed, &log).ok());
    ASSERT_TRUE(log->Append("real\n").ok());
  }
  // A crash between a compaction's tmp write and its rename leaves this
  // behind. Open must never read it and must reclaim the path.
  WriteFile(Path() + ".tmp", "ghost\nghost\n");
  std::vector<std::string> replayed;
  std::unique_ptr<AppendLog> log;
  ASSERT_TRUE(OpenKeepingAll(&replayed, &log).ok());
  EXPECT_EQ(replayed, (std::vector<std::string>{"real"}));
  EXPECT_FALSE(std::filesystem::exists(Path() + ".tmp"));
  EXPECT_EQ(ReadFile(Path()), "real\n");
}

TEST_F(AppendLogTest, UnwritableDirOrPathIsATypedError) {
  std::filesystem::create_directories(dir_);
  auto keep_nothing = [](const std::string&) {};
  auto empty = [] { return std::string(); };

  // The state dir cannot be created: a regular file sits where its parent
  // should be (a permission check would not hold for every user).
  WriteFile(dir_ + "/file", "x");
  std::unique_ptr<AppendLog> log;
  Status s = AppendLog::Open(dir_ + "/file/state", "test.log", keep_nothing,
                             empty, &log);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
  EXPECT_EQ(log, nullptr);

  // The log path is taken by a directory: compaction cannot land.
  std::filesystem::create_directories(dir_ + "/state/test.log");
  s = AppendLog::Open(dir_ + "/state", "test.log", keep_nothing, empty, &log);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
  EXPECT_EQ(log, nullptr);
}

TEST_F(AppendLogTest, ConcurrentAppendsNeverInterleave) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  {
    std::vector<std::string> replayed;
    std::unique_ptr<AppendLog> log;
    ASSERT_TRUE(OpenKeepingAll(&replayed, &log).ok());
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&log, t] {
        // Lines long enough that an unserialized write could split.
        const std::string body(512, static_cast<char>('a' + t));
        for (int i = 0; i < kPerThread; ++i) {
          EXPECT_TRUE(log->Append(body + "\n").ok());
        }
      });
    }
    for (std::thread& w : writers) w.join();
  }
  std::vector<std::string> replayed;
  std::unique_ptr<AppendLog> log;
  ASSERT_TRUE(OpenKeepingAll(&replayed, &log).ok());
  ASSERT_EQ(replayed.size(), static_cast<size_t>(kThreads * kPerThread));
  for (const std::string& line : replayed) {
    ASSERT_EQ(line.size(), 512u);
    EXPECT_EQ(line.find_first_not_of(line[0]), std::string::npos);
  }
}

}  // namespace
}  // namespace runtime
}  // namespace nmine
