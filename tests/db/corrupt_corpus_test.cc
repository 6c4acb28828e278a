// Corruption corpus: a valid database image truncated at every byte offset
// must produce a clean typed error from both the streaming disk reader and
// the whole-image decoder — never a crash, hang, or silently partial read.
// Range scans, which seek through the offset index Open built, get the
// same treatment for a file that is cut, corrupted or replaced after Open.
// Also pins down the LEB128 overflow rule: a 10-byte varint may only
// contribute bit 63 with its final byte.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nmine/core/status.h"
#include "nmine/db/disk_database.h"
#include "nmine/db/format.h"
#include "test_util.h"

namespace nmine {
namespace {

std::vector<SequenceRecord> CorpusRecords() {
  std::vector<SequenceRecord> records = testutil::Figure4Database().records();
  // Add a longer sequence with multi-byte varint symbols so truncation
  // offsets land inside record bodies, not just headers.
  SequenceRecord big;
  big.id = 1000;
  for (int i = 0; i < 12; ++i) {
    big.symbols.push_back(static_cast<SymbolId>(100 + 37 * i));
  }
  records.push_back(big);
  return records;
}

std::string WriteBytes(const std::string& name, const std::string& bytes) {
  std::string path = std::string(::testing::TempDir()) + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  return path;
}

TEST(CorruptCorpusTest, EveryTruncationOffsetFailsCleanlyOnOpen) {
  const std::string bytes = dbformat::EncodeDatabase(CorpusRecords());
  ASSERT_GT(bytes.size(), 10u);
  DiskSequenceDatabase::Options options;
  options.retry = RetryPolicy::NoRetry();  // no backoff sleeps in the loop
  for (size_t len = 0; len < bytes.size(); ++len) {
    const std::string path =
        WriteBytes("trunc_corpus.nmsq", bytes.substr(0, len));
    Status error;
    std::unique_ptr<DiskSequenceDatabase> db =
        DiskSequenceDatabase::Open(path, options, &error);
    EXPECT_EQ(db, nullptr) << "prefix of length " << len << " opened";
    EXPECT_FALSE(error.ok()) << "prefix of length " << len;
    EXPECT_FALSE(error.message().empty()) << "prefix of length " << len;
    std::remove(path.c_str());
  }
}

TEST(CorruptCorpusTest, EveryTruncationOffsetFailsCleanlyOnDecode) {
  const std::string bytes = dbformat::EncodeDatabase(CorpusRecords());
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<SequenceRecord> records;
    IoResult r = dbformat::DecodeDatabase(bytes.substr(0, len), &records);
    EXPECT_FALSE(r.ok) << "prefix of length " << len << " decoded";
    EXPECT_FALSE(r.message.empty()) << "prefix of length " << len;
  }
}

TEST(CorruptCorpusTest, FullImageStillRoundTrips) {
  const std::vector<SequenceRecord> original = CorpusRecords();
  std::vector<SequenceRecord> decoded;
  ASSERT_TRUE(
      dbformat::DecodeDatabase(dbformat::EncodeDatabase(original), &decoded)
          .ok);
  ASSERT_EQ(decoded.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(decoded[i].id, original[i].id);
    EXPECT_EQ(decoded[i].symbols, original[i].symbols);
  }
}

// --- Varint overflow regression (the 10th byte may only carry bit 63). ---

TEST(CorruptCorpusTest, MaxUint64VarintRoundTrips) {
  std::string buf;
  dbformat::PutVarint64(UINT64_MAX, &buf);
  ASSERT_EQ(buf.size(), 10u);
  EXPECT_EQ(static_cast<uint8_t>(buf.back()), 0x01u);
  const char* pos = buf.data();
  uint64_t value = 0;
  ASSERT_TRUE(dbformat::GetVarint64(&pos, buf.data() + buf.size(), &value));
  EXPECT_EQ(value, UINT64_MAX);
  EXPECT_EQ(pos, buf.data() + buf.size());
}

TEST(CorruptCorpusTest, OverflowingTenthByteRejected) {
  // Nine continuation bytes then a final byte whose payload exceeds 1:
  // accepting it would silently drop the high bits.
  std::string buf(9, static_cast<char>(0xff));
  buf.push_back(0x02);
  const char* pos = buf.data();
  uint64_t value = 0;
  EXPECT_FALSE(dbformat::GetVarint64(&pos, buf.data() + buf.size(), &value));
}

TEST(CorruptCorpusTest, ElevenByteVarintRejected) {
  std::string buf(10, static_cast<char>(0xff));
  buf.push_back(0x01);
  const char* pos = buf.data();
  uint64_t value = 0;
  EXPECT_FALSE(dbformat::GetVarint64(&pos, buf.data() + buf.size(), &value));
}

TEST(CorruptCorpusTest, DiskReaderAcceptsMaxVarintRecordId) {
  // Header + one empty-bodied record whose id is the canonical 10-byte
  // encoding of UINT64_MAX: must stream cleanly.
  std::string bytes(dbformat::kMagic, sizeof(dbformat::kMagic));
  bytes.push_back(static_cast<char>(dbformat::kVersion));
  dbformat::PutVarint64(1, &bytes);            // count
  dbformat::PutVarint64(UINT64_MAX, &bytes);   // id
  dbformat::PutVarint64(0, &bytes);            // len
  const std::string path = WriteBytes("max_id.nmsq", bytes);
  Status error;
  std::unique_ptr<DiskSequenceDatabase> db = DiskSequenceDatabase::Open(
      path, {RetryPolicy::NoRetry(), nullptr}, &error);
  ASSERT_NE(db, nullptr) << error.ToString();
  EXPECT_EQ(db->NumSequences(), 1u);
  EXPECT_EQ(db->TotalSymbols(), 0u);
  std::remove(path.c_str());
}

TEST(CorruptCorpusTest, DiskReaderRejectsOverlongVarintAsDataLoss) {
  // Overlong sequence count: structural corruption, not truncation, so the
  // reader must classify it as permanent (kDataLoss) — retries cannot help.
  std::string bytes(dbformat::kMagic, sizeof(dbformat::kMagic));
  bytes.push_back(static_cast<char>(dbformat::kVersion));
  bytes.append(9, static_cast<char>(0xff));
  bytes.push_back(0x02);
  const std::string path = WriteBytes("overlong.nmsq", bytes);
  Status error;
  std::unique_ptr<DiskSequenceDatabase> db = DiskSequenceDatabase::Open(
      path, {RetryPolicy::NoRetry(), nullptr}, &error);
  EXPECT_EQ(db, nullptr);
  EXPECT_EQ(error.code(), StatusCode::kDataLoss);
  EXPECT_NE(error.message().find("overlong"), std::string::npos)
      << error.ToString();
  std::remove(path.c_str());
}

TEST(CorruptCorpusTest, TrailingGarbageRejected) {
  std::string bytes = dbformat::EncodeDatabase(CorpusRecords());
  bytes.push_back(0x00);
  const std::string path = WriteBytes("trailing.nmsq", bytes);
  Status error;
  std::unique_ptr<DiskSequenceDatabase> db = DiskSequenceDatabase::Open(
      path, {RetryPolicy::NoRetry(), nullptr}, &error);
  EXPECT_EQ(db, nullptr);
  EXPECT_EQ(error.code(), StatusCode::kDataLoss);
  std::vector<SequenceRecord> records;
  IoResult r = dbformat::DecodeDatabase(bytes, &records);
  EXPECT_FALSE(r.ok);
  std::remove(path.c_str());
}

// --- Lengths and counts the remaining bytes cannot hold. ---

// Header with `count`, then one record with id 7 and length `len`, then
// `body` symbol bytes.
std::string OneRecordImage(uint64_t count, uint64_t len, size_t body) {
  std::string bytes(dbformat::kMagic, sizeof(dbformat::kMagic));
  bytes.push_back(static_cast<char>(dbformat::kVersion));
  dbformat::PutVarint64(count, &bytes);
  dbformat::PutVarint64(7, &bytes);
  dbformat::PutVarint64(len, &bytes);
  bytes.append(body, '\x01');
  return bytes;
}

TEST(CorruptCorpusTest, LengthOrCountPastTheBytesLeftIsATypedError) {
  // Every varint takes at least one byte, so each image below is refused
  // before any buffer is sized from the bad value (a 2^62 reserve used to
  // abort with std::length_error).
  const uint64_t kHuge = uint64_t{1} << 62;
  const struct {
    const char* name;
    std::string bytes;
  } cases[] = {
      {"huge len", OneRecordImage(1, kHuge, 4)},
      {"len = bytes left + 1", OneRecordImage(1, 5, 4)},
      {"huge count", OneRecordImage(kHuge, 4, 4)},
  };
  for (const auto& c : cases) {
    std::vector<SequenceRecord> records;
    IoResult decoded = dbformat::DecodeDatabase(c.bytes, &records);
    EXPECT_FALSE(decoded.ok) << c.name;
    EXPECT_FALSE(decoded.message.empty()) << c.name;

    const std::string path = WriteBytes("bounds.nmsq", c.bytes);
    Status error;
    std::unique_ptr<DiskSequenceDatabase> db = DiskSequenceDatabase::Open(
        path, {RetryPolicy::NoRetry(), nullptr}, &error);
    EXPECT_EQ(db, nullptr) << c.name;
    EXPECT_EQ(error.code(), StatusCode::kUnavailable) << c.name;
    EXPECT_NE(error.message().find("truncated"), std::string::npos)
        << c.name << ": " << error.ToString();
    std::remove(path.c_str());
  }
}

// --- Symbols a SymbolId cannot hold. ---

TEST(CorruptCorpusTest, SymbolPastInt32IsDataLoss) {
  // SymbolId is int32 and -1 is the wildcard. Cast blindly, 2^32 - 1 read
  // as the wildcard, 2^31 + 2 as a negative symbol and 2^32 + 2 as symbol
  // 2: mining then aborted, crashed or silently miscounted.
  const uint64_t cases[] = {uint64_t{0xffffffff}, (uint64_t{1} << 31) + 2,
                            (uint64_t{1} << 32) + 2};
  for (uint64_t bad : cases) {
    std::string bytes(dbformat::kMagic, sizeof(dbformat::kMagic));
    bytes.push_back(static_cast<char>(dbformat::kVersion));
    dbformat::PutVarint64(2, &bytes);  // count
    for (const std::vector<uint64_t>& symbols :
         {std::vector<uint64_t>{1, 2, 3}, std::vector<uint64_t>{1, bad, 2}}) {
      dbformat::PutVarint64(7, &bytes);
      dbformat::PutVarint64(symbols.size(), &bytes);
      for (uint64_t sym : symbols) dbformat::PutVarint64(sym, &bytes);
    }
    std::vector<SequenceRecord> records;
    IoResult decoded = dbformat::DecodeDatabase(bytes, &records);
    EXPECT_FALSE(decoded.ok) << bad;
    EXPECT_NE(decoded.message.find("symbol out of range at sequence 1"),
              std::string::npos)
        << bad << ": " << decoded.message;

    const std::string path = WriteBytes("symbol_range.nmsq", bytes);
    Status error;
    std::unique_ptr<DiskSequenceDatabase> db = DiskSequenceDatabase::Open(
        path, {RetryPolicy::NoRetry(), nullptr}, &error);
    EXPECT_EQ(db, nullptr) << bad;
    EXPECT_EQ(error.code(), StatusCode::kDataLoss) << bad;
    EXPECT_NE(error.message().find("symbol out of range at sequence 1"),
              std::string::npos)
        << bad << ": " << error.ToString();
    std::remove(path.c_str());
  }
}

// --- Range scans over a file that changed after Open. ---

// Three index strides of irregular records (multi-byte varints).
std::vector<SequenceRecord> MultiStrideRecords() {
  std::vector<SequenceRecord> records(600);
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].id = static_cast<SequenceId>(5 * i + 1);
    for (size_t j = 0; j < i % 7; ++j) {
      records[i].symbols.push_back(static_cast<SymbolId>((29 * i + j) % 200));
    }
  }
  return records;
}

// Byte offset at which record `k` starts (k == size: end of the image).
size_t RecordOffset(const std::vector<SequenceRecord>& records, size_t k) {
  std::string bytes(sizeof(dbformat::kMagic) + 1, '\0');
  dbformat::PutVarint64(records.size(), &bytes);
  for (size_t i = 0; i < k; ++i) {
    dbformat::PutVarint64(static_cast<uint64_t>(records[i].id), &bytes);
    dbformat::PutVarint64(records[i].symbols.size(), &bytes);
    for (SymbolId sym : records[i].symbols) {
      dbformat::PutVarint64(static_cast<uint64_t>(sym), &bytes);
    }
  }
  return bytes.size();
}

// Ranges inside and across the strides (0, 256, 512) of a 600-record file.
const std::vector<std::pair<size_t, size_t>> kRanges = {
    {0, 1},     {0, 256},   {1, 255},   {255, 257}, {256, 512},
    {300, 301}, {257, 600}, {511, 513}, {599, 600}, {0, 600}};

struct RangeOutcome {
  Status status;
  std::vector<SequenceRecord> seen;
};

RangeOutcome RunRange(const DiskSequenceDatabase& db,
                      std::pair<size_t, size_t> range) {
  RangeOutcome out;
  out.status = db.ScanRange(
      range.first, range.second,
      [&](const SequenceRecord& r) { out.seen.push_back(r); }, {});
  return out;
}

std::unique_ptr<DiskSequenceDatabase> OpenNoRetry(const std::string& path) {
  Status error;
  std::unique_ptr<DiskSequenceDatabase> db = DiskSequenceDatabase::Open(
      path, {RetryPolicy::NoRetry(), nullptr}, &error);
  EXPECT_NE(db, nullptr) << error.ToString();
  return db;
}

TEST(CorruptCorpusTest, ScanRangeOnFileCutAfterOpenFailsAtEveryOffset) {
  const std::vector<SequenceRecord> records = MultiStrideRecords();
  const std::string bytes = dbformat::EncodeDatabase(records);
  const std::string path = WriteBytes("range_cut.nmsq", bytes);
  std::unique_ptr<DiskSequenceDatabase> db = OpenNoRetry(path);
  ASSERT_NE(db, nullptr);
  // The size no longer matches what Open indexed: every range is refused
  // as kUnavailable before a single record is decoded.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::filesystem::resize_file(path, cut);
    for (const auto& range : kRanges) {
      RangeOutcome out = RunRange(*db, range);
      EXPECT_EQ(out.status.code(), StatusCode::kUnavailable)
          << "cut " << cut << " range " << range.first << ".."
          << range.second << ": " << out.status.ToString();
      EXPECT_TRUE(out.seen.empty()) << "cut " << cut;
    }
    WriteBytes("range_cut.nmsq", bytes);
  }
  for (const auto& range : kRanges) {
    EXPECT_TRUE(RunRange(*db, range).status.ok());
  }
  std::remove(path.c_str());
}

TEST(CorruptCorpusTest, ScanRangeOnSameSizeCorruptionAtEveryOffset) {
  // A rewrite that keeps size and count passes the identity check, so the
  // decoder itself must catch it. From `cut` on, every byte is 0xff: any
  // varint reaching there overflows (kDataLoss) or runs into the read
  // limit (kUnavailable).
  const std::vector<SequenceRecord> records = MultiStrideRecords();
  const std::string bytes = dbformat::EncodeDatabase(records);
  std::vector<size_t> offsets;
  for (size_t k = 0; k <= records.size(); ++k) {
    offsets.push_back(RecordOffset(records, k));
  }
  ASSERT_EQ(offsets.back(), bytes.size());
  const std::string path = WriteBytes("range_corrupt.nmsq", bytes);
  std::unique_ptr<DiskSequenceDatabase> db = OpenNoRetry(path);
  ASSERT_NE(db, nullptr);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::string damaged = bytes;
    std::fill(damaged.begin() + static_cast<std::ptrdiff_t>(cut),
              damaged.end(), static_cast<char>(0xff));
    WriteBytes("range_corrupt.nmsq", damaged);
    for (const auto& range : kRanges) {
      RangeOutcome out = RunRange(*db, range);
      const std::string where = "cut " + std::to_string(cut) + " range " +
                                std::to_string(range.first) + ".." +
                                std::to_string(range.second);
      if (offsets[range.second] <= cut) {
        EXPECT_TRUE(out.status.ok()) << where << ": "
                                     << out.status.ToString();
        EXPECT_EQ(out.seen.size(), range.second - range.first) << where;
      } else {
        EXPECT_TRUE(out.status.code() == StatusCode::kUnavailable ||
                    out.status.code() == StatusCode::kDataLoss)
            << where << ": " << out.status.ToString();
      }
      // Whatever was delivered is a prefix of the true slice.
      ASSERT_LE(out.seen.size(), range.second - range.first) << where;
      for (size_t i = 0; i < out.seen.size(); ++i) {
        EXPECT_EQ(out.seen[i].id, records[range.first + i].id) << where;
        EXPECT_EQ(out.seen[i].symbols, records[range.first + i].symbols)
            << where;
      }
    }
  }
  std::remove(path.c_str());
}

TEST(CorruptCorpusTest, ScanRangeRefusesImageReplacedAfterOpen) {
  const std::vector<SequenceRecord> records = MultiStrideRecords();
  const std::string original = dbformat::EncodeDatabase(records);
  // Same count, longer records (different size); one more record
  // (different count and size).
  std::vector<SequenceRecord> longer = records;
  longer[0].symbols.push_back(1);
  std::vector<SequenceRecord> more = records;
  more.push_back(records.back());
  for (const std::vector<SequenceRecord>& other : {longer, more}) {
    const std::string path =
        WriteBytes("range_replaced.nmsq", original);
    std::unique_ptr<DiskSequenceDatabase> db = OpenNoRetry(path);
    ASSERT_NE(db, nullptr);
    WriteBytes("range_replaced.nmsq", dbformat::EncodeDatabase(other));
    for (const auto& range : kRanges) {
      RangeOutcome out = RunRange(*db, range);
      EXPECT_EQ(out.status.code(), StatusCode::kUnavailable)
          << out.status.ToString();
      EXPECT_NE(out.status.message().find("changed since open"),
                std::string::npos)
          << out.status.ToString();
      EXPECT_TRUE(out.seen.empty());
    }
    std::remove(path.c_str());
  }
}

// Puts the original image back on the first backoff, like a concurrent
// rewrite that finishes while the scan waits.
class RestoringSleeper : public Sleeper {
 public:
  RestoringSleeper(std::string name, std::string bytes)
      : name_(std::move(name)), bytes_(std::move(bytes)) {}
  void SleepMs(double) override {
    ++sleeps_;
    WriteBytes(name_, bytes_);
  }
  int sleeps() const { return sleeps_; }

 private:
  std::string name_;
  std::string bytes_;
  int sleeps_ = 0;
};

TEST(CorruptCorpusTest, ScanRangeRetriesAFileChangedSinceOpen) {
  const std::vector<SequenceRecord> records = MultiStrideRecords();
  const std::string original = dbformat::EncodeDatabase(records);
  const std::string path = WriteBytes("range_retry.nmsq", original);
  RestoringSleeper sleeper("range_retry.nmsq", original);
  DiskSequenceDatabase::Options options;
  options.sleeper = &sleeper;
  Status error;
  std::unique_ptr<DiskSequenceDatabase> db =
      DiskSequenceDatabase::Open(path, options, &error);
  ASSERT_NE(db, nullptr) << error.ToString();
  WriteBytes("range_retry.nmsq", original.substr(0, original.size() / 2));
  RangeOutcome out = RunRange(*db, {300, 520});
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_EQ(sleeper.sleeps(), 1);
  ASSERT_EQ(out.seen.size(), 220u);
  for (size_t i = 0; i < out.seen.size(); ++i) {
    EXPECT_EQ(out.seen[i].id, records[300 + i].id);
  }
  std::remove(path.c_str());
}

TEST(CorruptCorpusTest, ScanRangeRefusesAHugeLengthInASameSizeImage) {
  // The valid image ends in a record whose id is a 10-byte varint and whose
  // length is 0; the rewrite keeps size and count but spends those 11
  // bytes on a 1-byte id and a 10-byte length of 2^63, so only the decoder
  // can notice. Ranges before that record still decode.
  std::vector<SequenceRecord> records = MultiStrideRecords();
  records.back().id = -1;  // UINT64_MAX on disk: a 10-byte varint
  records.back().symbols.clear();
  const std::string original = dbformat::EncodeDatabase(records);
  std::string tail;
  dbformat::PutVarint64(UINT64_MAX, &tail);
  dbformat::PutVarint64(0, &tail);
  ASSERT_EQ(original.substr(original.size() - tail.size()), tail);
  std::string damaged = original.substr(0, original.size() - tail.size());
  dbformat::PutVarint64(7, &damaged);
  dbformat::PutVarint64(uint64_t{1} << 63, &damaged);
  ASSERT_EQ(damaged.size(), original.size());

  const std::string path = WriteBytes("range_huge_len.nmsq", original);
  std::unique_ptr<DiskSequenceDatabase> db = OpenNoRetry(path);
  ASSERT_NE(db, nullptr);
  WriteBytes("range_huge_len.nmsq", damaged);
  const size_t last = records.size() - 1;
  for (const auto& range : kRanges) {
    RangeOutcome out = RunRange(*db, range);
    if (range.second <= last) {
      EXPECT_TRUE(out.status.ok()) << out.status.ToString();
      EXPECT_EQ(out.seen.size(), range.second - range.first);
    } else {
      EXPECT_EQ(out.status.code(), StatusCode::kUnavailable)
          << range.first << ".." << range.second << ": "
          << out.status.ToString();
      EXPECT_EQ(out.seen.size(), last - range.first);
    }
  }
  std::vector<SequenceRecord> decoded;
  EXPECT_FALSE(dbformat::DecodeDatabase(damaged, &decoded).ok);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nmine
