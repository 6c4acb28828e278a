// ParseJson's nesting bound. The parser recurses once per array or object
// level, so the bound is what keeps one request line of `[` from
// exhausting a connection thread's stack; every document nmine itself
// writes must nest far below it.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "nmine/dist/journal.h"
#include "nmine/dist/wire.h"
#include "nmine/obs/flight_recorder.h"
#include "nmine/obs/json_parse.h"
#include "nmine/obs/metrics.h"
#include "nmine/obs/profiler.h"
#include "nmine/obs/trace.h"
#include "nmine/runtime/run_status.h"
#include "nmine/serve/job_journal.h"

namespace nmine {
namespace obs {
namespace {

std::string Nested(int depth, const std::string& inner = "") {
  return std::string(static_cast<size_t>(depth), '[') + inner +
         std::string(static_cast<size_t>(depth), ']');
}

/// Nesting depth of a parsed value: a scalar is 0, `[]` and `{}` are 1.
int Depth(const JsonValue& value) {
  int inner = 0;
  for (const JsonValue& v : value.array) inner = std::max(inner, Depth(v));
  for (const auto& [key, v] : value.object) {
    inner = std::max(inner, Depth(v));
  }
  return value.is_array() || value.is_object() ? inner + 1 : 0;
}

TEST(JsonParseTest, NestingAtTheLimitParses) {
  std::optional<JsonValue> arrays = ParseJson(Nested(kMaxJsonDepth, "7"));
  ASSERT_TRUE(arrays.has_value());
  EXPECT_EQ(Depth(*arrays), kMaxJsonDepth);

  // Objects count the same as arrays: {"a":{"a":...[1]...}}.
  std::string mixed;
  for (int i = 0; i + 1 < kMaxJsonDepth; ++i) mixed += "{\"a\": ";
  mixed += "[1]";
  for (int i = 0; i + 1 < kMaxJsonDepth; ++i) mixed += "}";
  std::optional<JsonValue> objects = ParseJson(mixed);
  ASSERT_TRUE(objects.has_value());
  EXPECT_EQ(Depth(*objects), kMaxJsonDepth);
}

TEST(JsonParseTest, NestingPastTheLimitFails) {
  EXPECT_FALSE(ParseJson(Nested(kMaxJsonDepth + 1)).has_value());
  EXPECT_FALSE(ParseJson("{\"a\": " + Nested(kMaxJsonDepth) + "}")
                   .has_value());
  // Siblings do not add up: depth is per path, not per document.
  EXPECT_TRUE(ParseJson("[" + Nested(kMaxJsonDepth - 1) + ", " +
                        Nested(kMaxJsonDepth - 1) + "]")
                  .has_value());
}

TEST(JsonParseTest, MebibyteLineOfOpenBracketsFailsWithoutRecursing) {
  // The serve protocol accepts lines up to 1 MiB: the longest line of `[`
  // a peer can send must fail at the bound, not a million frames deep.
  EXPECT_FALSE(ParseJson(std::string(size_t{1} << 20, '[')).has_value());
  EXPECT_FALSE(ParseJson(std::string(size_t{1} << 20, '{')).has_value());
}

/// Parses `text` and returns its depth, or -1 when it does not parse.
int DocumentDepth(const std::string& text) {
  std::optional<JsonValue> value = ParseJson(text);
  return value.has_value() ? Depth(*value) : -1;
}

/// The deepest line of a JSON-lines file, or -1 when a line does not
/// parse or the file is empty.
int DeepestLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  int deepest = -1;
  while (std::getline(in, line)) {
    const int depth = DocumentDepth(line);
    if (depth < 0) return -1;
    deepest = std::max(deepest, depth);
  }
  return deepest;
}

TEST(JsonNestingTest, EmittedDocumentsNestWellBelowTheLimit) {
  const int kWellBelow = kMaxJsonDepth / 8;
  const std::string dir = std::string(::testing::TempDir()) + "/json_nesting";
  std::filesystem::remove_all(dir);

  // Metrics and profile snapshots, and the bench JSON that embeds both.
  MetricsRegistry::Global().GetCounter("nesting.counter").Increment();
  MetricsRegistry::Global().GetHistogram("nesting.hist", {1.0, 2.0})
      .Observe(1.5);
  Profiler::Global().Enable();
  { NMINE_PROFILE_SCOPE("nesting.outer"); }
  Profiler::Global().Disable();
  bench::RepStats stats = bench::ComputeRepStats({0.1, 0.2, 0.3});
  const std::vector<std::pair<std::string, std::string>> documents = {
      {"metrics", MetricsRegistry::Global().SnapshotJson()},
      {"profile", Profiler::Global().SnapshotJson()},
      {"bench", bench::BenchJsonV2("nesting", stats)},
      {"statusz", runtime::RunStatusBoard::Global().StatusJson()},
  };

  // A trace with span arguments.
  Tracer& tracer = Tracer::Global();
  tracer.Start();
  {
    TraceSpan span("nesting.span", "test");
    span.Arg("n", static_cast<int64_t>(3));
  }
  tracer.Stop();
  FlightRecorder recorder;
  recorder.Enable(64);
  recorder.Record(FlightEventType::kProgress, "nesting", 1, 2);

  // The dist wire's deepest frame: a task with resumed partials.
  dist::TaskAssignment task;
  task.resume_done = 1;
  task.resume_partials = {{0.5, 1.0}};
  task.offsets = {10, 20};
  task.patterns = {Pattern({0, kWildcard, 1})};

  std::vector<std::pair<std::string, int>> depths;
  for (const auto& [name, text] : documents) {
    depths.push_back({name, DocumentDepth(text)});
  }
  depths.push_back({"trace", DocumentDepth(tracer.SnapshotJson())});
  depths.push_back({"flight", DocumentDepth(recorder.SnapshotJson())});
  depths.push_back({"dist task", DocumentDepth(dist::TaskResponse(task))});

  // The job journal, with a finished job's result rows.
  {
    std::map<uint64_t, serve::Job> board;
    uint64_t next_id = 0;
    std::string error;
    auto journal =
        serve::JobJournal::Open(dir + "/serve", &board, &next_id, &error);
    ASSERT_NE(journal, nullptr) << error;
    serve::Job job;
    job.id = 1;
    job.client = "c";
    job.spec.db_path = "/data/db.nmsq";
    ASSERT_TRUE(journal->AppendSubmit(job).ok());
    ASSERT_TRUE(journal->AppendState(1, serve::JobState::kRunning).ok());
    serve::JobResult result;
    result.ok = true;
    result.rows = {{"1 2", "0.5"}, {"1 * 3", "0.25"}};
    ASSERT_TRUE(journal->AppendResult(1, result).ok());
    depths.push_back({"job journal", DeepestLine(journal->path())});
  }
  // The coordinator's journal, with shard progress partials.
  {
    dist::ReplayState state;
    std::string error;
    auto journal = dist::DistJournal::Open(dir + "/dist", &state, &error);
    ASSERT_NE(journal, nullptr) << error;
    ASSERT_TRUE(journal->AppendEpoch(0, 1).ok());
    ASSERT_TRUE(journal->AppendScanBegin(1, 42).ok());
    dist::ShardProgress progress;
    progress.done = 2;
    progress.partials = {{0.5, 1.0}, {2.0, 3.0}};
    ASSERT_TRUE(journal->AppendShardProgress(1, 0, progress).ok());
    ASSERT_TRUE(journal->AppendScanEnd(1).ok());
    depths.push_back({"dist journal", DeepestLine(journal->path())});
  }

  for (const auto& [name, depth] : depths) {
    EXPECT_GT(depth, 0) << name << " does not parse";
    EXPECT_LE(depth, kWellBelow) << name;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace obs
}  // namespace nmine
