#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <utility>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nmine/db/disk_database.h"
#include "nmine/db/format.h"
#include "nmine/db/in_memory_database.h"
#include "nmine/stats/random.h"
#include "test_util.h"

namespace nmine {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(InMemoryDatabaseTest, BasicAccounting) {
  InMemorySequenceDatabase db = testutil::Figure4Database();
  EXPECT_EQ(db.NumSequences(), 4u);
  EXPECT_EQ(db.TotalSymbols(), 4u + 3u + 4u + 2u);
  EXPECT_EQ(db.records()[2].id, 2);
}

TEST(InMemoryDatabaseTest, ScanVisitsInOrderAndCounts) {
  InMemorySequenceDatabase db = testutil::Figure4Database();
  EXPECT_EQ(db.scan_count(), 0);
  std::vector<SequenceId> ids;
  db.Scan([&](const SequenceRecord& r) { ids.push_back(r.id); });
  EXPECT_EQ(ids, (std::vector<SequenceId>{0, 1, 2, 3}));
  EXPECT_EQ(db.scan_count(), 1);
  db.Scan([](const SequenceRecord&) {});
  EXPECT_EQ(db.scan_count(), 2);
  db.ResetScanCount();
  EXPECT_EQ(db.scan_count(), 0);
}

TEST(InMemoryDatabaseTest, EmptyDatabase) {
  InMemorySequenceDatabase db;
  EXPECT_EQ(db.NumSequences(), 0u);
  size_t visits = 0;
  db.Scan([&](const SequenceRecord&) { ++visits; });
  EXPECT_EQ(visits, 0u);
  EXPECT_EQ(db.scan_count(), 1);
}

TEST(DiskDatabaseTest, RoundTripsThroughDisk) {
  InMemorySequenceDatabase mem = testutil::Figure4Database();
  std::string path = TempPath("roundtrip.nmsq");
  ASSERT_TRUE(dbformat::WriteDatabaseFile(path, mem.records()).ok);

  Status error;
  std::unique_ptr<DiskSequenceDatabase> disk =
      DiskSequenceDatabase::Open(path, &error);
  ASSERT_NE(disk, nullptr) << error.ToString();
  EXPECT_EQ(disk->NumSequences(), mem.NumSequences());
  EXPECT_EQ(disk->TotalSymbols(), mem.TotalSymbols());

  std::vector<SequenceRecord> seen;
  disk->Scan([&](const SequenceRecord& r) { seen.push_back(r); });
  ASSERT_EQ(seen.size(), mem.records().size());
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].id, mem.records()[i].id);
    EXPECT_EQ(seen[i].symbols, mem.records()[i].symbols);
  }
  EXPECT_EQ(disk->scan_count(), 1);  // Open's pre-scan is not counted
  std::remove(path.c_str());
}

TEST(DiskDatabaseTest, OpenMissingFileFails) {
  Status error;
  EXPECT_EQ(DiskSequenceDatabase::Open("/nonexistent/nope.nmsq", &error),
            nullptr);
  EXPECT_EQ(error.code(), StatusCode::kNotFound);
}

TEST(DiskDatabaseTest, OpenRejectsBadMagic) {
  std::string path = TempPath("badmagic.nmsq");
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("JUNKJUNKJUNK", f);
    std::fclose(f);
  }
  Status error;
  EXPECT_EQ(DiskSequenceDatabase::Open(path, &error), nullptr);
  EXPECT_EQ(error.code(), StatusCode::kDataLoss);
  EXPECT_NE(error.message().find("magic"), std::string::npos);
  std::remove(path.c_str());
}

TEST(DiskDatabaseTest, OpenRejectsTruncatedFile) {
  InMemorySequenceDatabase mem = testutil::Figure4Database();
  std::string bytes = dbformat::EncodeDatabase(mem.records());
  std::string path = TempPath("truncated.nmsq");
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size() - 3, f);  // drop the tail
    std::fclose(f);
  }
  Status error;
  EXPECT_EQ(DiskSequenceDatabase::Open(path, &error), nullptr);
  EXPECT_FALSE(error.ok());
  std::remove(path.c_str());
}

TEST(DiskDatabaseTest, EmptyDatabaseRoundTrips) {
  std::string path = TempPath("empty.nmsq");
  ASSERT_TRUE(dbformat::WriteDatabaseFile(path, {}).ok);
  Status error;
  std::unique_ptr<DiskSequenceDatabase> disk =
      DiskSequenceDatabase::Open(path, &error);
  ASSERT_NE(disk, nullptr) << error.ToString();
  EXPECT_EQ(disk->NumSequences(), 0u);
  std::remove(path.c_str());
}

TEST(DiskDatabaseTest, ScanRefusesAFileChangedSinceOpen) {
  const std::string path = TempPath("changed.nmsq");
  std::vector<SequenceRecord> records(10);
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].id = static_cast<SequenceId>(i);
    records[i].symbols = {1, 2, static_cast<SymbolId>(i)};
  }
  ASSERT_TRUE(dbformat::WriteDatabaseFile(path, records).ok);
  DiskSequenceDatabase::Options options;
  options.retry = RetryPolicy::NoRetry();
  Status error;
  std::unique_ptr<DiskSequenceDatabase> disk =
      DiskSequenceDatabase::Open(path, options, &error);
  ASSERT_NE(disk, nullptr) << error.ToString();

  // Thirty records where Open indexed ten: a scan that trusted the file
  // would deliver three times the records NumSequences() averages over.
  records.resize(30, records.back());
  ASSERT_TRUE(dbformat::WriteDatabaseFile(path, records).ok);
  size_t delivered = 0;
  Status scan = disk->Scan([&](const SequenceRecord&) { ++delivered; });
  EXPECT_EQ(scan.code(), StatusCode::kUnavailable);
  EXPECT_NE(scan.message().find("changed since open"), std::string::npos)
      << scan.ToString();
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(disk->NumSequences(), 10u);
  std::remove(path.c_str());
}

// Records of varying length with multi-byte varint ids and symbols, so
// record offsets are irregular and an index entry off by one record (or
// one byte) decodes a different record or garbage.
std::vector<SequenceRecord> IrregularRecords(size_t n) {
  std::vector<SequenceRecord> records(n);
  for (size_t i = 0; i < n; ++i) {
    records[i].id = static_cast<SequenceId>(7 * i + 3);
    for (size_t j = 0; j < i % 13; ++j) {
      records[i].symbols.push_back(static_cast<SymbolId>((31 * i + j) % 300));
    }
  }
  return records;
}

TEST(DiskDatabaseTest, ScanRangeEqualsFullScanSlice) {
  const size_t n = 1000;
  std::string path = TempPath("range.nmsq");
  ASSERT_TRUE(dbformat::WriteDatabaseFile(path, IrregularRecords(n)).ok);
  Status error;
  std::unique_ptr<DiskSequenceDatabase> disk = DiskSequenceDatabase::Open(
      path, {RetryPolicy::NoRetry(), nullptr}, &error);
  ASSERT_NE(disk, nullptr) << error.ToString();
  std::vector<SequenceRecord> full;
  ASSERT_TRUE(
      disk->Scan([&](const SequenceRecord& r) { full.push_back(r); }).ok());
  ASSERT_EQ(full.size(), n);

  // Crosses every stride boundary of a 1000-record file (strides start at
  // 0, 256, 512, 768), plus end > n and begin >= n.
  const std::vector<size_t> grid = {0,   1,   255, 256, 257, 511,  512, 767,
                                    768, 769, n - 1, n, n + 1, n + 300};
  for (size_t begin : grid) {
    for (size_t end : grid) {
      std::vector<SequenceRecord> seen;
      Status s = disk->ScanRange(
          begin, end, [&](const SequenceRecord& r) { seen.push_back(r); },
          {});
      ASSERT_TRUE(s.ok()) << begin << ".." << end << ": " << s.ToString();
      const size_t lo = std::min(begin, n);
      const size_t hi = std::max(lo, std::min(end, n));
      ASSERT_EQ(seen.size(), hi - lo) << begin << ".." << end;
      for (size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i].id, full[lo + i].id) << begin << ".." << end;
        EXPECT_EQ(seen[i].symbols, full[lo + i].symbols)
            << begin << ".." << end;
      }
    }
  }
  EXPECT_EQ(disk->scan_count(), 1);  // range scans are not charged
  std::remove(path.c_str());
}

TEST(DiskDatabaseTest, OpenLearnsTheAlphabetAndLengthRange) {
  // What Open's pre-scan reports must equal a fold over a full scan, so
  // nothing needs a scan of its own to size the matrix or describe the
  // file.
  std::vector<SequenceRecord> two_byte(40);
  for (size_t i = 0; i < two_byte.size(); ++i) {
    two_byte[i].id = static_cast<SequenceId>(i);
    for (size_t j = 0; j < 1 + i % 9; ++j) {
      two_byte[i].symbols.push_back(
          static_cast<SymbolId>(128 + (37 * i + 11 * j) % 16000));
    }
  }
  const struct {
    const char* name;
    std::vector<SequenceRecord> records;
  } cases[] = {
      {"empty", {}},
      {"two-byte symbols", two_byte},
      {"irregular", IrregularRecords(1000)},
      {"figure 4", testutil::Figure4Database().records()},
  };
  for (const auto& c : cases) {
    const std::string path = TempPath("alphabet.nmsq");
    ASSERT_TRUE(dbformat::WriteDatabaseFile(path, c.records).ok);
    Status error;
    std::unique_ptr<DiskSequenceDatabase> disk =
        DiskSequenceDatabase::Open(path, &error);
    ASSERT_NE(disk, nullptr) << c.name << ": " << error.ToString();
    SymbolId max_symbol = -1;
    size_t min_length = c.records.empty() ? 0 : SIZE_MAX;
    size_t max_length = 0;
    ASSERT_TRUE(disk->Scan([&](const SequenceRecord& r) {
                      min_length = std::min(min_length, r.symbols.size());
                      max_length = std::max(max_length, r.symbols.size());
                      for (SymbolId s : r.symbols) {
                        max_symbol = std::max(max_symbol, s);
                      }
                    })
                    .ok());
    EXPECT_EQ(disk->max_symbol(), max_symbol) << c.name;
    EXPECT_EQ(disk->min_length(), min_length) << c.name;
    EXPECT_EQ(disk->max_length(), max_length) << c.name;
    std::remove(path.c_str());
  }
}

TEST(DiskDatabaseTest, DecodeEqualsDecodeDatabaseThroughScanAndEveryRange) {
  // Records that take the one-byte bulk path and records that cannot: two-
  // byte symbols (>= 128), empty records, one record longer than the 64 KiB
  // read buffer, and ~80 KB of shorter records so several straddle a refill.
  std::vector<SequenceRecord> records;
  Rng rng(23);
  for (size_t i = 0; i < 420; ++i) {
    SequenceRecord r;
    r.id = static_cast<SequenceId>(i * 977 + 3);
    const size_t len = i % 13 == 0 ? 0 : rng.UniformInt(300);
    const uint64_t alphabet = i % 3 == 0 ? 300 : 128;
    for (size_t j = 0; j < len; ++j) {
      r.symbols.push_back(static_cast<SymbolId>(rng.UniformInt(alphabet)));
    }
    if (i == 200) r.symbols.assign(70000, 5);  // one-byte, > the buffer
    records.push_back(std::move(r));
  }
  const std::string bytes = dbformat::EncodeDatabase(records);
  std::vector<SequenceRecord> decoded;
  ASSERT_TRUE(dbformat::DecodeDatabase(bytes, &decoded).ok);
  ASSERT_EQ(decoded.size(), records.size());
  const std::string path = TempPath("decode_property.nmsq");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  Status error;
  std::unique_ptr<DiskSequenceDatabase> disk =
      DiskSequenceDatabase::Open(path, &error);
  ASSERT_NE(disk, nullptr) << error.ToString();

  auto expect_slice = [&](const std::vector<SequenceRecord>& seen,
                          size_t begin, const std::string& where) {
    for (size_t i = 0; i < seen.size(); ++i) {
      ASSERT_EQ(seen[i].id, decoded[begin + i].id) << where;
      ASSERT_EQ(seen[i].symbols, decoded[begin + i].symbols) << where;
    }
  };
  std::vector<SequenceRecord> full;
  ASSERT_TRUE(
      disk->Scan([&](const SequenceRecord& r) { full.push_back(r); }).ok());
  ASSERT_EQ(full.size(), decoded.size());
  expect_slice(full, 0, "scan");
  // Cut the file at every record: the range before and after each cut.
  const size_t n = decoded.size();
  for (size_t cut = 0; cut <= n; ++cut) {
    using Range = std::pair<size_t, size_t>;
    for (const auto& [begin, end] : {Range{0, cut}, Range{cut, n}}) {
      const std::string where =
          "range " + std::to_string(begin) + ".." + std::to_string(end);
      std::vector<SequenceRecord> seen;
      Status s = disk->ScanRange(
          begin, end, [&](const SequenceRecord& r) { seen.push_back(r); }, {});
      ASSERT_TRUE(s.ok()) << where << ": " << s.ToString();
      ASSERT_EQ(seen.size(), end - begin) << where;
      expect_slice(seen, begin, where);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nmine
