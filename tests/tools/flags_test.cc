// The tools' shared front end: one flag parser whose numbers are checked
// (a bad or out-of-range value exits 1 with a message instead of reading
// as 0 or wrapping), and one job-flag reader that every tool maps onto
// the same JobSpec.
#include "tools/tool_flags.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

namespace nmine {
namespace tools {
namespace {

/// Flags over `args` as if they followed the tool name on a command line.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : args_(std::move(args)) {
    pointers_.push_back(const_cast<char*>("tool"));
    for (std::string& arg : args_) pointers_.push_back(arg.data());
  }
  Flags flags() {
    return Flags("tool", static_cast<int>(pointers_.size()), pointers_.data(),
                 1);
  }

 private:
  std::vector<std::string> args_;
  std::vector<char*> pointers_;
};

std::string SpecJson(const serve::JobSpec& spec) {
  std::string out;
  spec.AppendJson(&out);
  return out;
}

TEST(ToolFlagsTest, ParsesEveryFlagShape) {
  Argv argv({"db.nmsq", "--a", "1", "--b=2", "--bare", "--plant", "1 2",
             "--plant", "3 4", "extra", "--last"});
  Flags flags = argv.flags();
  EXPECT_EQ(flags.positional(), (std::vector<std::string>{"db.nmsq", "extra"}));
  EXPECT_EQ(flags.Get("a", ""), "1");
  EXPECT_EQ(flags.Get("b", ""), "2");
  EXPECT_TRUE(flags.Has("bare"));
  EXPECT_EQ(flags.Get("bare", "x"), "");
  EXPECT_TRUE(flags.Has("last"));
  EXPECT_EQ(flags.GetAll("plant"), (std::vector<std::string>{"1 2", "3 4"}));
  EXPECT_EQ(flags.Get("plant", ""), "3 4");  // last one wins
  EXPECT_FALSE(flags.Has("missing"));
  EXPECT_EQ(flags.Get("missing", "dflt"), "dflt");
  EXPECT_EQ(flags.GetInt("missing", 7), 7);
  EXPECT_EQ(flags.GetInt("a", 0, 0, 5), 1);
  EXPECT_DOUBLE_EQ(flags.GetDouble("b", 0.0), 2.0);
}

TEST(ToolFlagsTest, ParseIntRefusesWhatAtollWouldMisread) {
  EXPECT_EQ(ParseInt("42", 0, 100), 42);
  EXPECT_EQ(ParseInt("-3", -5, 5), -3);
  EXPECT_EQ(ParseInt("abc", 0, 100), std::nullopt);  // atoll: 0
  EXPECT_EQ(ParseInt("", 0, 100), std::nullopt);
  EXPECT_EQ(ParseInt("12x", 0, 100), std::nullopt);  // atoll: 12
  EXPECT_EQ(ParseInt("1.5", 0, 100), std::nullopt);
  EXPECT_EQ(ParseInt("70000", 0, 65535), std::nullopt);  // uint16: 4464
  EXPECT_EQ(ParseInt("-1", 0, 100), std::nullopt);
  EXPECT_EQ(ParseInt("99999999999999999999", 0, 100), std::nullopt);
}

TEST(ToolFlagsTest, ParseDoubleRefusesNonFiniteAndOutOfRange) {
  EXPECT_EQ(ParseDouble("0.25", 0, 1), 0.25);
  EXPECT_EQ(ParseDouble("1e-4", 0, 1), 1e-4);
  EXPECT_EQ(ParseDouble("abc", 0, 1), std::nullopt);  // atof: 0
  EXPECT_EQ(ParseDouble("", 0, 1), std::nullopt);
  EXPECT_EQ(ParseDouble("0.5s", 0, 1), std::nullopt);
  EXPECT_EQ(ParseDouble("nan", -10, 10), std::nullopt);
  EXPECT_EQ(ParseDouble("inf", -INFINITY, INFINITY), std::nullopt);
  EXPECT_EQ(ParseDouble("1e400", -INFINITY, INFINITY), std::nullopt);
  EXPECT_EQ(ParseDouble("2", 0, 1), std::nullopt);
  EXPECT_EQ(ParseDouble("-0.1", 0, 1), std::nullopt);
}

TEST(ToolFlagsTest, JobSpecFromNoFlagsIsTheDefaultSpec) {
  Argv argv({});
  EXPECT_EQ(SpecJson(JobSpecFromFlags(argv.flags())),
            SpecJson(serve::JobSpec()));
}

TEST(ToolFlagsTest, JobSpecFromFlagsReadsEveryJobFlag) {
  Argv argv({"--db", "d.nmsq", "--algorithm", "levelwise", "--metric",
             "support", "--matrix", "c.txt", "--uniform-alpha", "0.2",
             "--threshold", "0.3", "--max-span", "7", "--max-gap", "2",
             "--max-level", "5", "--sample", "300", "--delta", "0.01",
             "--seed", "9", "--threads", "4", "--fault-plan", "open-fail:1",
             "--scan-retries", "3", "--retry-backoff-ms", "1.5",
             "--retry-budget", "6", "--deadline", "2.5", "--memory-budget",
             "4096"});
  serve::JobSpec want;
  want.db_path = "d.nmsq";
  want.algorithm = "levelwise";
  want.metric = "support";
  want.matrix_path = "c.txt";
  want.uniform_alpha = 0.2;
  want.threshold = 0.3;
  want.max_span = 7;
  want.max_gap = 2;
  want.max_level = 5;
  want.sample_size = 300;
  want.delta = 0.01;
  want.seed = 9;
  want.num_threads = 4;
  want.fault_plan = "open-fail:1";
  want.scan_retries = 3;
  want.retry_backoff_ms = 1.5;
  want.retry_budget = 6;
  want.deadline_s = 2.5;
  want.memory_budget = 4096;
  EXPECT_EQ(SpecJson(JobSpecFromFlags(argv.flags())), SpecJson(want));
}

TEST(ToolFlagsDeathTest, BadNumbersExitOneWithAMessage) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        Argv argv({"--threads", "abc"});
        JobSpecFromFlags(argv.flags());
      },
      ::testing::ExitedWithCode(1), "tool: bad --threads 'abc'");
  EXPECT_EXIT(
      {
        Argv argv({"--threads", "100000"});
        JobSpecFromFlags(argv.flags());
      },
      ::testing::ExitedWithCode(1), "bad --threads '100000'");
  EXPECT_EXIT(
      {
        Argv argv({"--port", "70000"});
        argv.flags().GetPort("port");
      },
      ::testing::ExitedWithCode(1), "bad --port '70000' \\(want a whole");
  EXPECT_EXIT(
      {
        Argv argv({"--deadline", "-1"});
        JobSpecFromFlags(argv.flags());
      },
      ::testing::ExitedWithCode(1), "bad --deadline '-1'");
  EXPECT_EXIT(
      {
        Argv argv({"--uniform-alpha"});
        JobSpecFromFlags(argv.flags());
      },
      ::testing::ExitedWithCode(1), "bad --uniform-alpha ''");
}

}  // namespace
}  // namespace tools
}  // namespace nmine
