// DiskLayoutCache: a file validated once is reopened on its cached layout
// by reading only its header, while any change to the file's identity or
// header makes the next open validate it again.
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nmine/db/disk_database.h"
#include "nmine/db/format.h"
#include "nmine/db/retry.h"
#include "nmine/obs/metrics.h"

namespace nmine {
namespace {

/// rchar of /proc/self/io: bytes this process passed through read(2) and
/// friends.
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

/// `n` records of irregular lengths with multi-byte ids and symbols up to
/// `alphabet` - 1, varied by `salt`.
std::vector<SequenceRecord> Records(size_t n, int alphabet, int salt = 0) {
  std::vector<SequenceRecord> records(n);
  for (size_t i = 0; i < n; ++i) {
    records[i].id = static_cast<SequenceId>(7 * i + 3);
    for (size_t j = 0; j < 1 + i % 13; ++j) {
      records[i].symbols.push_back(
          static_cast<SymbolId>((31 * i + j + salt) % alphabet));
    }
  }
  return records;
}

int64_t Hits() {
  return obs::MetricsRegistry::Global().CounterValue("db.layout_cache.hits");
}

int64_t Misses() {
  return obs::MetricsRegistry::Global().CounterValue(
      "db.layout_cache.misses");
}

/// Every record a full scan of `db` delivers.
std::vector<SequenceRecord> ScanAll(const SequenceDatabase& db) {
  std::vector<SequenceRecord> out;
  Status s = db.Scan([&](const SequenceRecord& r) { out.push_back(r); });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

class DiskLayoutCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string(::testing::TempDir()) + "/layout_cache_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Write(const std::string& name,
                    const std::vector<SequenceRecord>& records) {
    const std::string path = dir_ + "/" + name;
    EXPECT_TRUE(dbformat::WriteDatabaseFile(path, records).ok);
    return path;
  }

  /// Waits until files written so far are old enough to be cached.
  static void Settle() {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(DiskLayoutCache::kSettleNs) +
        std::chrono::milliseconds(20));
  }

  std::string dir_;
};

TEST_F(DiskLayoutCacheTest, HitReadsOnlyTheHeaderAndEqualsAFreshOpen) {
  const std::string path = Write("db.nmsq", Records(700, 300));
  const uint64_t file_bytes = std::filesystem::file_size(path);
  Settle();
  DiskLayoutCache cache;
  Status error;
  const int64_t hits0 = Hits();
  const int64_t misses0 = Misses();

  uint64_t before = CharsRead();
  std::unique_ptr<DiskSequenceDatabase> first =
      cache.Open(path, DiskReadOptions(), &error);
  ASSERT_NE(first, nullptr) << error.ToString();
  EXPECT_GE(CharsRead() - before, file_bytes);
  EXPECT_EQ(Misses() - misses0, 1);

  before = CharsRead();
  std::unique_ptr<DiskSequenceDatabase> hit =
      cache.Open(path, DiskReadOptions(), &error);
  const uint64_t hit_read = CharsRead() - before;
  ASSERT_NE(hit, nullptr) << error.ToString();
  EXPECT_TRUE(error.ok());
  EXPECT_EQ(Hits() - hits0, 1);
  EXPECT_EQ(Misses() - misses0, 1);
  // The header plus this test's own read of /proc/self/io.
  EXPECT_LT(hit_read, 1024u);
  EXPECT_LT(hit_read * 20, file_bytes);

  std::unique_ptr<DiskSequenceDatabase> fresh =
      DiskSequenceDatabase::Open(path, &error);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(hit->path(), fresh->path());
  EXPECT_EQ(hit->NumSequences(), fresh->NumSequences());
  EXPECT_EQ(hit->TotalSymbols(), fresh->TotalSymbols());
  EXPECT_EQ(hit->max_symbol(), fresh->max_symbol());
  EXPECT_EQ(hit->min_length(), fresh->min_length());
  EXPECT_EQ(hit->max_length(), fresh->max_length());
  EXPECT_EQ(hit->file_bytes(), fresh->file_bytes());
  for (size_t r = 0; r < fresh->NumSequences();
       r += DiskSequenceDatabase::kIndexStride) {
    EXPECT_EQ(hit->RecordOffset(r), fresh->RecordOffset(r)) << r;
  }
  EXPECT_EQ(hit->RecordOffset(fresh->NumSequences()),
            fresh->RecordOffset(fresh->NumSequences()));

  const std::vector<SequenceRecord> want = ScanAll(*fresh);
  const std::vector<SequenceRecord> got = ScanAll(*hit);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(got[i].symbols, want[i].symbols);
  }
  std::vector<SequenceId> ids;
  ASSERT_TRUE(hit->ScanRange(300, 520, [&](const SequenceRecord& r) {
                   ids.push_back(r.id);
                 }, nullptr).ok());
  ASSERT_EQ(ids.size(), 220u);
  EXPECT_EQ(ids.front(), want[300].id);
  EXPECT_EQ(ids.back(), want[519].id);
}

TEST_F(DiskLayoutCacheTest, RewriteRenameAndTouchEachMiss) {
  const std::string path = Write("db.nmsq", Records(300, 40));
  DiskLayoutCache cache;
  Status error;
  auto expect_hit = [&] {
    Settle();
    ASSERT_NE(cache.Open(path, DiskReadOptions(), &error), nullptr);
    const int64_t hits0 = Hits();
    ASSERT_NE(cache.Open(path, DiskReadOptions(), &error), nullptr);
    ASSERT_EQ(Hits() - hits0, 1);
  };
  auto expect_miss = [&](const char* what) {
    const int64_t hits0 = Hits();
    const int64_t misses0 = Misses();
    std::unique_ptr<DiskSequenceDatabase> db =
        cache.Open(path, DiskReadOptions(), &error);
    EXPECT_NE(db, nullptr) << what << ": " << error.ToString();
    EXPECT_EQ(Hits() - hits0, 0) << what;
    EXPECT_EQ(Misses() - misses0, 1) << what;
    return db;
  };

  // In place, same size and count, one symbol changed: of the identity,
  // only the times differ.
  expect_hit();
  const uint64_t file_bytes = std::filesystem::file_size(path);
  std::vector<SequenceRecord> rewritten = Records(300, 40);
  rewritten[6].symbols[0] = 41;
  Write("db.nmsq", rewritten);
  ASSERT_EQ(std::filesystem::file_size(path), file_bytes);
  std::unique_ptr<DiskSequenceDatabase> db = expect_miss("rewrite");
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->max_symbol(), 41);

  // Another file renamed over the path: a new inode.
  expect_hit();
  const std::string other = Write("other.nmsq", Records(512, 60));
  std::filesystem::rename(other, path);
  db = expect_miss("rename");
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->NumSequences(), 512u);

  // touch: the bytes stay, the times move.
  expect_hit();
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), nullptr, 0), 0);
  expect_miss("touch");
}

TEST_F(DiskLayoutCacheTest, CachedFileCorruptedLaterIsDataLoss) {
  const std::string path = Write("db.nmsq", Records(300, 40));
  Settle();
  DiskLayoutCache cache;
  Status error;
  ASSERT_NE(cache.Open(path, DiskReadOptions(), &error), nullptr);
  const int64_t hits0 = Hits();
  ASSERT_NE(cache.Open(path, DiskReadOptions(), &error), nullptr);
  ASSERT_EQ(Hits() - hits0, 1);

  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::pwrite(fd, "X", 1, 0), 1);
  ::close(fd);
  EXPECT_EQ(cache.Open(path, DiskReadOptions(), &error), nullptr);
  EXPECT_EQ(error.code(), StatusCode::kDataLoss) << error.ToString();
}

TEST_F(DiskLayoutCacheTest, ScanOfACachedHandleRefusesAFileChangedSinceOpen) {
  const std::string path = Write("db.nmsq", Records(10, 20));
  Settle();
  DiskLayoutCache cache;
  Status error;
  DiskReadOptions options;
  options.retry = RetryPolicy::NoRetry();
  ASSERT_NE(cache.Open(path, options, &error), nullptr);
  const int64_t hits0 = Hits();
  std::unique_ptr<DiskSequenceDatabase> db = cache.Open(path, options, &error);
  ASSERT_NE(db, nullptr);
  ASSERT_EQ(Hits() - hits0, 1);

  Write("db.nmsq", Records(30, 20));
  size_t delivered = 0;
  Status scan = db->Scan([&](const SequenceRecord&) { ++delivered; });
  EXPECT_EQ(scan.code(), StatusCode::kUnavailable);
  EXPECT_NE(scan.message().find("changed since open"), std::string::npos)
      << scan.ToString();
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(db->NumSequences(), 10u);
}

TEST_F(DiskLayoutCacheTest, ConcurrentOpensOfSameAndDifferentPaths) {
  constexpr int kFiles = 4;
  std::vector<std::string> paths;
  std::vector<size_t> counts;
  for (int f = 0; f < kFiles; ++f) {
    counts.push_back(100 + 150 * f);
    paths.push_back(Write("db" + std::to_string(f) + ".nmsq",
                          Records(counts.back(), 30 + f)));
  }
  Settle();
  DiskLayoutCache cache;
  const int64_t opened0 = Hits() + Misses();
  constexpr int kThreads = 8;
  constexpr int kOpens = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpens; ++i) {
        const int f = (t + i) % kFiles;
        Status error;
        std::unique_ptr<DiskSequenceDatabase> db =
            cache.Open(paths[f], DiskReadOptions(), &error);
        if (db == nullptr || db->NumSequences() != counts[f] ||
            db->RecordOffset(counts[f]) !=
                std::filesystem::file_size(paths[f])) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(Hits() + Misses() - opened0, kThreads * kOpens);
  // Every file ended up cached.
  const int64_t hits0 = Hits();
  for (const std::string& path : paths) {
    Status error;
    ASSERT_NE(cache.Open(path, DiskReadOptions(), &error), nullptr);
  }
  EXPECT_EQ(Hits() - hits0, kFiles);
}

TEST_F(DiskLayoutCacheTest, HandlesFromOneEntryKeepTheirOwnCountersAndBudgets) {
  const std::string path = Write("db.nmsq", Records(300, 40));
  Settle();
  DiskLayoutCache cache;
  Status error;
  FakeSleeper sleeper;
  RetryBudget budget_a(10);
  RetryBudget budget_b(10);
  DiskReadOptions options_a;
  options_a.sleeper = &sleeper;
  options_a.retry.max_attempts = 3;
  options_a.retry_budget = &budget_a;
  DiskReadOptions options_b = options_a;
  options_b.retry.max_attempts = 2;
  options_b.retry_budget = &budget_b;
  std::unique_ptr<DiskSequenceDatabase> a = cache.Open(path, options_a, &error);
  const int64_t hits0 = Hits();
  std::unique_ptr<DiskSequenceDatabase> b = cache.Open(path, options_b, &error);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(Hits() - hits0, 1);

  ScanAll(*a);
  ScanAll(*a);
  ScanAll(*b);
  EXPECT_EQ(a->scan_count(), 2);
  EXPECT_EQ(b->scan_count(), 1);

  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  EXPECT_EQ(a->Scan([](const SequenceRecord&) {}).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(b->Scan([](const SequenceRecord&) {}).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(budget_a.used(), 2);
  EXPECT_EQ(budget_b.used(), 1);
  EXPECT_EQ(a->scan_count(), 3);
  EXPECT_EQ(b->scan_count(), 2);
}

TEST_F(DiskLayoutCacheTest, EvictsTheLeastRecentlyUsedPath) {
  std::vector<std::string> paths;
  for (size_t f = 0; f <= DiskLayoutCache::kCapacity; ++f) {
    paths.push_back(Write("db" + std::to_string(f) + ".nmsq",
                          Records(20 + f, 20)));
  }
  Settle();
  DiskLayoutCache cache;
  Status error;
  for (size_t f = 0; f < DiskLayoutCache::kCapacity; ++f) {
    ASSERT_NE(cache.Open(paths[f], DiskReadOptions(), &error), nullptr);
  }
  // Path 0 is used again, so path 1 is now the least recently used.
  int64_t hits0 = Hits();
  ASSERT_NE(cache.Open(paths[0], DiskReadOptions(), &error), nullptr);
  EXPECT_EQ(Hits() - hits0, 1);
  ASSERT_NE(cache.Open(paths.back(), DiskReadOptions(), &error), nullptr);

  hits0 = Hits();
  ASSERT_NE(cache.Open(paths[0], DiskReadOptions(), &error), nullptr);
  ASSERT_NE(cache.Open(paths.back(), DiskReadOptions(), &error), nullptr);
  EXPECT_EQ(Hits() - hits0, 2);
  const int64_t misses0 = Misses();
  ASSERT_NE(cache.Open(paths[1], DiskReadOptions(), &error), nullptr);
  EXPECT_EQ(Misses() - misses0, 1);
}

TEST_F(DiskLayoutCacheTest, FileChangedWithinTheSettleMarginIsNotStored) {
  const auto written = std::chrono::steady_clock::now();
  const std::string path = Write("db.nmsq", Records(50, 20));
  DiskLayoutCache cache;
  Status error;
  const int64_t misses0 = Misses();
  ASSERT_NE(cache.Open(path, DiskReadOptions(), &error), nullptr);
  ASSERT_NE(cache.Open(path, DiskReadOptions(), &error), nullptr);
  const auto elapsed = std::chrono::steady_clock::now() - written;
  // Only meaningful when both opens ran well inside the margin.
  if (elapsed < std::chrono::nanoseconds(DiskLayoutCache::kSettleNs / 2)) {
    EXPECT_EQ(Misses() - misses0, 2);
  }
  Settle();
  ASSERT_NE(cache.Open(path, DiskReadOptions(), &error), nullptr);
  const int64_t hits0 = Hits();
  ASSERT_NE(cache.Open(path, DiskReadOptions(), &error), nullptr);
  EXPECT_EQ(Hits() - hits0, 1);
}

TEST_F(DiskLayoutCacheTest, MissingFileIsNotFound) {
  const std::string path = Write("db.nmsq", Records(50, 20));
  Settle();
  DiskLayoutCache cache;
  Status error;
  ASSERT_NE(cache.Open(path, DiskReadOptions(), &error), nullptr);
  std::filesystem::remove(path);
  EXPECT_EQ(cache.Open(path, DiskReadOptions(), &error), nullptr);
  EXPECT_EQ(error.code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace nmine
