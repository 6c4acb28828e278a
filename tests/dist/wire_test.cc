// Wire protocol of the distributed miner: doubles must cross the wire
// bit-exactly (the whole bit-identity contract rides on it), worker
// frames must be version-fenced, and malformed frames must fail typed —
// never parse into a half-filled request a coordinator would act on.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nmine/dist/wire.h"
#include "nmine/obs/json_parse.h"
#include "test_util.h"

namespace nmine {
namespace dist {
namespace {

uint64_t BitsOf(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

TEST(DoubleBitsTest, RoundTripsExactBitPatterns) {
  const double cases[] = {0.0,
                          -0.0,
                          1.0 / 3.0,
                          -1e300,
                          5e-324,  // smallest denormal
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN(),
                          0.27731999999999999};
  for (double d : cases) {
    std::string hex = EncodeDoubleBits(d);
    EXPECT_EQ(hex.size(), 16u);
    double back = 0.0;
    ASSERT_TRUE(DecodeDoubleBits(hex, &back)) << hex;
    EXPECT_EQ(BitsOf(d), BitsOf(back)) << hex;  // bitwise, NaN included
  }
}

TEST(DoubleBitsTest, RejectsAnythingButSixteenLowercaseHexDigits) {
  double d = 0.0;
  EXPECT_FALSE(DecodeDoubleBits("", &d));
  EXPECT_FALSE(DecodeDoubleBits("3fd5555555555555ff", &d));  // 18 chars
  EXPECT_FALSE(DecodeDoubleBits("3fd555555555555", &d));     // 15 chars
  EXPECT_FALSE(DecodeDoubleBits("3FD5555555555555", &d));    // uppercase
  EXPECT_FALSE(DecodeDoubleBits("3fd555555555555g", &d));    // non-hex
  EXPECT_FALSE(DecodeDoubleBits("0x3fd55555555555", &d));    // prefix
}

TEST(PatternsJsonTest, RoundTripsWildcards) {
  std::vector<Pattern> patterns = {testutil::P({0, -1, 2}),
                                   testutil::P({1, 3}), testutil::P({4})};
  std::string json;
  AppendPatternsJson(patterns, &json);
  std::optional<obs::JsonValue> value = obs::ParseJson(json);
  ASSERT_TRUE(value.has_value());
  std::vector<Pattern> back;
  ASSERT_TRUE(ParsePatternsJson(*value, &back));
  ASSERT_EQ(back.size(), patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    EXPECT_TRUE(back[i] == patterns[i]) << i;
  }
}

TEST(PatternsJsonTest, RejectsInvalidBodies) {
  std::vector<Pattern> out;
  // Wildcard endpoint and empty body are invalid pattern bodies.
  std::optional<obs::JsonValue> bad = obs::ParseJson("[[-1, 2]]");
  ASSERT_TRUE(bad.has_value());
  EXPECT_FALSE(ParsePatternsJson(*bad, &out));
  bad = obs::ParseJson("[[]]");
  ASSERT_TRUE(bad.has_value());
  EXPECT_FALSE(ParsePatternsJson(*bad, &out));
  bad = obs::ParseJson("[[\"a\"]]");
  ASSERT_TRUE(bad.has_value());
  EXPECT_FALSE(ParsePatternsJson(*bad, &out));
}

TEST(DistRequestTest, ParsesProgressFrame) {
  std::string line =
      "{\"v\": 1, \"op\": \"progress\", \"worker\": \"w1\", \"scan\": 3, "
      "\"shard\": 2, \"epoch\": 5, \"done\": 2, \"complete\": true, "
      "\"partials\": [[\"" +
      EncodeDoubleBits(1.5) + "\"], [\"" + EncodeDoubleBits(-0.25) + "\"]]}";
  std::string error, code;
  std::optional<DistRequest> request = ParseDistRequest(line, &error, &code);
  ASSERT_TRUE(request.has_value()) << error;
  EXPECT_EQ(request->op, "progress");
  EXPECT_EQ(request->worker, "w1");
  EXPECT_EQ(request->scan, 3u);
  EXPECT_EQ(request->shard, 2u);
  EXPECT_EQ(request->epoch, 5u);
  EXPECT_EQ(request->done, 2u);
  EXPECT_TRUE(request->complete);
  ASSERT_EQ(request->partials.size(), 2u);
  EXPECT_EQ(request->partials[0][0], 1.5);
  EXPECT_EQ(request->partials[1][0], -0.25);
}

TEST(DistRequestTest, WorkerOpsAreVersionFenced) {
  std::string error, code;
  // Missing "v" entirely.
  EXPECT_FALSE(ParseDistRequest("{\"op\": \"poll\", \"worker\": \"w\"}",
                                &error, &code)
                   .has_value());
  EXPECT_EQ(code, "FAILED_PRECONDITION");
  // Wrong version.
  EXPECT_FALSE(
      ParseDistRequest("{\"v\": 2, \"op\": \"hello\", \"worker\": \"w\"}",
                       &error, &code)
          .has_value());
  EXPECT_EQ(code, "FAILED_PRECONDITION");
  // Client frames (ping/wait) are plain v1 serve-style lines: no "v".
  EXPECT_TRUE(ParseDistRequest("{\"op\": \"ping\"}", &error, &code)
                  .has_value());
  EXPECT_TRUE(ParseDistRequest("{\"op\": \"wait\"}", &error, &code)
                  .has_value());
}

TEST(DistRequestTest, MalformedFramesFailTyped) {
  struct Case {
    const char* line;
    const char* expect_code;
  };
  const Case cases[] = {
      {"not json at all", "INVALID_ARGUMENT"},
      {"[1, 2, 3]", "INVALID_ARGUMENT"},
      {"{\"op\": 7}", "INVALID_ARGUMENT"},
      {"{\"op\": \"launch\"}", "INVALID_ARGUMENT"},
      {"{\"v\": 1, \"op\": \"poll\", \"worker\": \"\"}", "INVALID_ARGUMENT"},
      // done disagrees with the partial count.
      {"{\"v\": 1, \"op\": \"progress\", \"worker\": \"w\", \"scan\": 1, "
       "\"shard\": 0, \"epoch\": 1, \"done\": 2, \"partials\": []}",
       "INVALID_ARGUMENT"},
      // partials not hex-encoded.
      {"{\"v\": 1, \"op\": \"progress\", \"worker\": \"w\", \"scan\": 1, "
       "\"shard\": 0, \"epoch\": 1, \"done\": 1, \"partials\": [[0.5]]}",
       "INVALID_ARGUMENT"},
      // Counts that are not whole numbers in [0, 2^53]: a fraction used to
      // truncate (epoch 2.5 checked as 2), a negative value to wrap.
      {"{\"v\": 1, \"op\": \"progress\", \"worker\": \"w\", \"scan\": 1, "
       "\"shard\": 0, \"epoch\": 2.5, \"done\": 0, \"partials\": []}",
       "INVALID_ARGUMENT"},
      {"{\"v\": 1, \"op\": \"progress\", \"worker\": \"w\", \"scan\": -1, "
       "\"shard\": 0, \"epoch\": 1, \"done\": 0, \"partials\": []}",
       "INVALID_ARGUMENT"},
      {"{\"v\": 1, \"op\": \"progress\", \"worker\": \"w\", \"scan\": 1, "
       "\"shard\": 18014398509481984, \"epoch\": 1, \"done\": 0, "
       "\"partials\": []}",
       "INVALID_ARGUMENT"},
      {"{\"v\": 1, \"op\": \"progress\", \"worker\": \"w\", \"scan\": 1, "
       "\"shard\": 0, \"epoch\": 1, \"done\": 0.5, \"partials\": []}",
       "INVALID_ARGUMENT"},
      // A fractional version is not version 1.
      {"{\"v\": 1.5, \"op\": \"poll\", \"worker\": \"w\"}",
       "FAILED_PRECONDITION"},
  };
  for (const Case& c : cases) {
    std::string error, code;
    EXPECT_FALSE(ParseDistRequest(c.line, &error, &code).has_value())
        << c.line;
    EXPECT_EQ(code, c.expect_code) << c.line;
    EXPECT_FALSE(error.empty()) << c.line;
  }
}

TEST(HelloResponseTest, RoundTrips) {
  HelloInfo info;
  info.db_path = "/data/db.nmsq";
  info.matrix_path = "";
  info.uniform_alpha = 0.1;
  info.metric = "match";
  info.num_symbols = 6;
  info.num_sequences = 60;
  info.file_bytes = 5678;
  info.exec_shard_size = 256;
  info.lease_ms = 2000;
  std::optional<obs::JsonValue> value = obs::ParseJson(HelloResponse(info));
  ASSERT_TRUE(value.has_value());
  std::optional<HelloInfo> back = ParseHelloResponse(*value);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->db_path, info.db_path);
  EXPECT_EQ(back->uniform_alpha, info.uniform_alpha);
  EXPECT_EQ(back->metric, info.metric);
  EXPECT_EQ(back->num_sequences, info.num_sequences);
  EXPECT_EQ(back->file_bytes, info.file_bytes);
  EXPECT_EQ(back->exec_shard_size, info.exec_shard_size);
  EXPECT_EQ(back->lease_ms, info.lease_ms);
}

TEST(HelloResponseTest, RejectsMissingVersionOrGeometry) {
  std::optional<obs::JsonValue> value = obs::ParseJson(
      "{\"ok\": true, \"db\": \"x\", \"metric\": \"match\", "
      "\"exec_shard_size\": 256}");
  ASSERT_TRUE(value.has_value());
  EXPECT_FALSE(ParseHelloResponse(*value).has_value());  // no "v"
  value = obs::ParseJson(
      "{\"ok\": true, \"v\": 1, \"db\": \"x\", \"metric\": \"match\", "
      "\"exec_shard_size\": 0}");
  ASSERT_TRUE(value.has_value());
  EXPECT_FALSE(ParseHelloResponse(*value).has_value());  // zero shard size
  // Geometry that is not a whole number in [0, 2^53], and a missing size.
  const char* bad_geometry[] = {
      "\"n\": -5, \"file_bytes\": 100",
      "\"n\": 60, \"m\": 6.5, \"file_bytes\": 100",
      "\"n\": 60, \"file_bytes\": -100",
      "\"n\": 60, \"file_bytes\": 18014398509481984",
      "\"n\": 60, \"file_bytes\": 100, \"lease_ms\": 0.5",
      "\"n\": 60",
  };
  for (const char* members : bad_geometry) {
    value = obs::ParseJson(
        std::string("{\"ok\": true, \"v\": 1, \"db\": \"x\", "
                    "\"metric\": \"match\", \"exec_shard_size\": 256, ") +
        members + "}");
    ASSERT_TRUE(value.has_value()) << members;
    EXPECT_FALSE(ParseHelloResponse(*value).has_value()) << members;
  }
  value = obs::ParseJson(
      "{\"ok\": true, \"v\": 1.5, \"db\": \"x\", \"metric\": \"match\", "
      "\"n\": 60, \"file_bytes\": 100, \"exec_shard_size\": 256}");
  ASSERT_TRUE(value.has_value());
  EXPECT_FALSE(ParseHelloResponse(*value).has_value());  // fractional "v"
}

TEST(PollReplyTest, TaskRoundTripsWithResumeState) {
  TaskAssignment task;
  task.scan = 7;
  task.shard = 3;
  task.epoch = 9;
  task.begin_record = 512;
  task.end_record = 1024;
  task.resume_done = 1;
  task.resume_partials = {{0.5, -0.0}};
  task.offsets = {4096, 9001};
  task.patterns = {testutil::P({0, -1, 2})};
  std::optional<obs::JsonValue> value = obs::ParseJson(TaskResponse(task));
  ASSERT_TRUE(value.has_value());
  std::optional<PollReply> reply = ParsePollReply(*value);
  ASSERT_TRUE(reply.has_value());
  ASSERT_TRUE(reply->task.has_value());
  EXPECT_FALSE(reply->shutdown);
  EXPECT_EQ(reply->task->scan, 7u);
  EXPECT_EQ(reply->task->shard, 3u);
  EXPECT_EQ(reply->task->epoch, 9u);
  EXPECT_EQ(reply->task->begin_record, 512u);
  EXPECT_EQ(reply->task->end_record, 1024u);
  ASSERT_EQ(reply->task->resume_partials.size(), 1u);
  EXPECT_EQ(BitsOf(reply->task->resume_partials[0][1]), BitsOf(-0.0));
  EXPECT_EQ(reply->task->offsets, task.offsets);
  ASSERT_EQ(reply->task->patterns.size(), 1u);
}

TEST(PollReplyTest, IdleAndShutdownForms) {
  std::optional<obs::JsonValue> idle = obs::ParseJson(IdleResponse(75));
  ASSERT_TRUE(idle.has_value());
  std::optional<PollReply> reply = ParsePollReply(*idle);
  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(reply->task.has_value());
  EXPECT_FALSE(reply->shutdown);
  EXPECT_EQ(reply->idle_ms, 75);

  std::optional<obs::JsonValue> shutdown = obs::ParseJson(ShutdownResponse());
  ASSERT_TRUE(shutdown.has_value());
  reply = ParsePollReply(*shutdown);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->shutdown);
}

TEST(PollReplyTest, RejectsCorruptTasks) {
  // Empty record range.
  std::optional<obs::JsonValue> bad = obs::ParseJson(
      "{\"ok\": true, \"task\": {\"scan\": 1, \"shard\": 0, \"epoch\": 1, "
      "\"begin\": 9, \"end\": 9, \"resume_done\": 0, "
      "\"resume_partials\": [], \"patterns\": [[0]]}}");
  ASSERT_TRUE(bad.has_value());
  EXPECT_FALSE(ParsePollReply(*bad).has_value());
  // resume_done disagrees with resume_partials.
  bad = obs::ParseJson(
      "{\"ok\": true, \"task\": {\"scan\": 1, \"shard\": 0, \"epoch\": 1, "
      "\"begin\": 0, \"end\": 9, \"resume_done\": 1, "
      "\"resume_partials\": [], \"patterns\": [[0]]}}");
  ASSERT_TRUE(bad.has_value());
  EXPECT_FALSE(ParsePollReply(*bad).has_value());
  // Numbers that are not whole numbers in [0, 2^53], offsets that do not
  // increase, and pattern symbols no SymbolId holds.
  const char* bad_members[] = {
      "\"epoch\": 2.5, \"begin\": 0, \"end\": 9, \"offsets\": [6, 90]",
      "\"epoch\": 1, \"begin\": -256, \"end\": 9, \"offsets\": [6, 90]",
      "\"epoch\": 1, \"begin\": 0, \"end\": 9.5, \"offsets\": [6, 90]",
      "\"epoch\": 1, \"begin\": 0, \"end\": 9, \"offsets\": [6, 90.5]",
      "\"epoch\": 1, \"begin\": 0, \"end\": 9, \"offsets\": [-6, 90]",
      "\"epoch\": 1, \"begin\": 0, \"end\": 9, \"offsets\": [90, 6]",
      "\"epoch\": 1, \"begin\": 0, \"end\": 9, \"offsets\": 6",
      "\"epoch\": 1, \"begin\": 0, \"end\": 9, \"offsets\": [6, 90], "
      "\"patterns\": [[4294967295]]",
      "\"epoch\": 1, \"begin\": 0, \"end\": 9, \"offsets\": [6, 90], "
      "\"patterns\": [[0.5]]",
  };
  for (const char* members : bad_members) {
    const std::string line =
        std::string("{\"ok\": true, \"task\": {\"scan\": 1, \"shard\": 0, "
                    "\"resume_done\": 0, \"resume_partials\": [], ") +
        members +
        (std::strstr(members, "patterns") == nullptr
             ? ", \"patterns\": [[0]]}}"
             : "}}");
    bad = obs::ParseJson(line);
    ASSERT_TRUE(bad.has_value()) << line;
    EXPECT_FALSE(ParsePollReply(*bad).has_value()) << line;
  }
  // The same task with whole numbers parses.
  std::optional<obs::JsonValue> good = obs::ParseJson(
      "{\"ok\": true, \"task\": {\"scan\": 1, \"shard\": 0, \"epoch\": 1, "
      "\"begin\": 0, \"end\": 9, \"resume_done\": 0, "
      "\"resume_partials\": [], \"offsets\": [6, 90], \"patterns\": [[0]]}}");
  ASSERT_TRUE(good.has_value());
  EXPECT_TRUE(ParsePollReply(*good).has_value());
}

}  // namespace
}  // namespace dist
}  // namespace nmine
