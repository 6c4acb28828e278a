// Wire protocol: request parsing (happy paths, typed rejections), spec and
// result JSON codecs round-tripping exactly — the same codec feeds the wire
// and the job journal, so a drift here is a recovery bug, not a cosmetic
// one.
#include <gtest/gtest.h>

#include "nmine/obs/json_parse.h"
#include "nmine/serve/job.h"
#include "nmine/serve/protocol.h"

namespace nmine {
namespace serve {
namespace {

TEST(ProtocolTest, ParsesPingJobsStatusWait) {
  std::string error;
  std::optional<Request> r = ParseRequest("{\"op\": \"ping\"}", &error);
  ASSERT_TRUE(r.has_value()) << error;
  EXPECT_EQ(r->op, "ping");

  r = ParseRequest("{\"op\": \"jobs\"}", &error);
  ASSERT_TRUE(r.has_value()) << error;

  r = ParseRequest("{\"op\": \"status\", \"id\": 7}", &error);
  ASSERT_TRUE(r.has_value()) << error;
  EXPECT_TRUE(r->has_job_id);
  EXPECT_EQ(r->job_id, 7u);

  r = ParseRequest("{\"op\": \"wait\", \"id\": 9}", &error);
  ASSERT_TRUE(r.has_value()) << error;
  EXPECT_EQ(r->job_id, 9u);
}

TEST(ProtocolTest, ParsesSubmitWithSpec) {
  std::string error;
  std::optional<Request> r = ParseRequest(
      "{\"op\": \"submit\", \"client\": \"c1\", \"tag\": \"t1\", "
      "\"spec\": {\"db\": \"/x.nmsq\", \"algorithm\": \"levelwise\", "
      "\"threshold\": 0.3, \"max_span\": 5, \"deadline_s\": 2.5}}",
      &error);
  ASSERT_TRUE(r.has_value()) << error;
  EXPECT_EQ(r->client, "c1");
  EXPECT_EQ(r->tag, "t1");
  ASSERT_TRUE(r->spec.has_value());
  EXPECT_EQ(r->spec->db_path, "/x.nmsq");
  EXPECT_EQ(r->spec->algorithm, "levelwise");
  EXPECT_DOUBLE_EQ(r->spec->threshold, 0.3);
  EXPECT_EQ(r->spec->max_span, 5u);
  EXPECT_DOUBLE_EQ(r->spec->deadline_s, 2.5);
  // Unset members keep CLI defaults.
  EXPECT_EQ(r->spec->metric, "match");
  EXPECT_EQ(r->spec->scan_retries, 2);
}

TEST(ProtocolTest, ParsesTraceOp) {
  std::string error;
  std::optional<Request> r =
      ParseRequest("{\"op\": \"trace\", \"id\": 4}", &error);
  ASSERT_TRUE(r.has_value()) << error;
  EXPECT_EQ(r->op, "trace");
  EXPECT_TRUE(r->has_job_id);
  EXPECT_EQ(r->job_id, 4u);
  EXPECT_FALSE(ParseRequest("{\"op\": \"trace\"}", &error).has_value());
}

TEST(ProtocolTest, ParsesSubmitTraceId) {
  std::string error;
  std::optional<Request> r = ParseRequest(
      "{\"op\": \"submit\", \"client\": \"c1\", "
      "\"trace_id\": \"0123456789abcdeffedcba9876543210\", "
      "\"spec\": {\"db\": \"/x.nmsq\"}}",
      &error);
  ASSERT_TRUE(r.has_value()) << error;
  EXPECT_EQ(r->trace_id, "0123456789abcdeffedcba9876543210");

  // Absent trace_id is fine (the server mints one).
  r = ParseRequest(
      "{\"op\": \"submit\", \"client\": \"c1\", "
      "\"spec\": {\"db\": \"/x.nmsq\"}}",
      &error);
  ASSERT_TRUE(r.has_value()) << error;
  EXPECT_TRUE(r->trace_id.empty());
}

TEST(ProtocolTest, RejectsMalformedTraceId) {
  std::string error;
  // Wrong length / non-hex / all-zero / non-string all get a typed reject.
  EXPECT_FALSE(ParseRequest("{\"op\": \"submit\", \"client\": \"c\", "
                            "\"trace_id\": \"abc\", "
                            "\"spec\": {\"db\": \"/x\"}}",
                            &error)
                   .has_value());
  EXPECT_NE(error.find("trace_id"), std::string::npos);
  EXPECT_FALSE(ParseRequest("{\"op\": \"submit\", \"client\": \"c\", "
                            "\"trace_id\": "
                            "\"zzzz456789abcdeffedcba9876543210\", "
                            "\"spec\": {\"db\": \"/x\"}}",
                            &error)
                   .has_value());
  EXPECT_FALSE(ParseRequest("{\"op\": \"submit\", \"client\": \"c\", "
                            "\"trace_id\": "
                            "\"00000000000000000000000000000000\", "
                            "\"spec\": {\"db\": \"/x\"}}",
                            &error)
                   .has_value());
  EXPECT_FALSE(ParseRequest("{\"op\": \"submit\", \"client\": \"c\", "
                            "\"trace_id\": 7, "
                            "\"spec\": {\"db\": \"/x\"}}",
                            &error)
                   .has_value());
}

TEST(ProtocolTest, UnknownMembersAreIgnoredForCompatibility) {
  // An older server receiving a newer client's request must not choke on
  // members it does not know (this is how trace_id itself shipped).
  std::string error;
  std::optional<Request> r = ParseRequest(
      "{\"op\": \"submit\", \"client\": \"c1\", "
      "\"future_field\": \"x\", \"another\": {\"deep\": [1, 2]}, "
      "\"spec\": {\"db\": \"/x.nmsq\", \"future_knob\": 9}}",
      &error);
  ASSERT_TRUE(r.has_value()) << error;
  EXPECT_EQ(r->client, "c1");
  ASSERT_TRUE(r->spec.has_value());
  EXPECT_EQ(r->spec->db_path, "/x.nmsq");

  r = ParseRequest("{\"op\": \"ping\", \"novel\": true}", &error);
  ASSERT_TRUE(r.has_value()) << error;
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  std::string error;
  EXPECT_FALSE(ParseRequest("not json", &error).has_value());
  EXPECT_FALSE(ParseRequest("[1,2]", &error).has_value());
  EXPECT_FALSE(ParseRequest("{\"op\": \"fly\"}", &error).has_value());
  EXPECT_FALSE(ParseRequest("{\"op\": \"status\"}", &error).has_value());
  EXPECT_FALSE(ParseRequest("{\"op\": \"submit\"}", &error).has_value());
  EXPECT_FALSE(
      ParseRequest("{\"op\": \"submit\", \"spec\": {}}", &error).has_value());
  EXPECT_FALSE(ParseRequest("{\"op\": \"submit\", \"spec\": {\"db\": \"d\", "
                            "\"algorithm\": \"quantum\"}}",
                            &error)
                   .has_value());
  EXPECT_NE(error.find("quantum"), std::string::npos);
  EXPECT_FALSE(ParseRequest("{\"op\": \"submit\", \"spec\": {\"db\": \"d\", "
                            "\"metric\": \"vibes\"}}",
                            &error)
                   .has_value());
}

TEST(ProtocolTest, SpecJsonRoundTripsExactly) {
  JobSpec spec;
  spec.db_path = "/data/db.nmsq";
  spec.algorithm = "toivonen";
  spec.metric = "support";
  spec.matrix_path = "/data/c.txt";
  spec.uniform_alpha = 0.15;
  spec.threshold = 0.42;
  spec.max_span = 7;
  spec.max_gap = 2;
  spec.max_level = 3;
  spec.sample_size = 500;
  spec.delta = 0.01;
  spec.seed = 1234;
  spec.num_threads = 4;
  spec.fault_plan = "flaky:0.5, seed:9";
  spec.scan_retries = 5;
  spec.retry_backoff_ms = 1.5;
  spec.retry_budget = 12;
  spec.deadline_s = 30.0;
  spec.memory_budget = 1 << 20;

  std::string json;
  spec.AppendJson(&json);
  std::optional<obs::JsonValue> value = obs::ParseJson(json);
  ASSERT_TRUE(value.has_value());
  std::string error;
  std::optional<JobSpec> back = JobSpec::FromJson(*value, &error);
  ASSERT_TRUE(back.has_value()) << error;

  EXPECT_EQ(back->db_path, spec.db_path);
  EXPECT_EQ(back->algorithm, spec.algorithm);
  EXPECT_EQ(back->metric, spec.metric);
  EXPECT_EQ(back->matrix_path, spec.matrix_path);
  EXPECT_DOUBLE_EQ(back->uniform_alpha, spec.uniform_alpha);
  EXPECT_DOUBLE_EQ(back->threshold, spec.threshold);
  EXPECT_EQ(back->max_span, spec.max_span);
  EXPECT_EQ(back->max_gap, spec.max_gap);
  EXPECT_EQ(back->max_level, spec.max_level);
  EXPECT_EQ(back->sample_size, spec.sample_size);
  EXPECT_DOUBLE_EQ(back->delta, spec.delta);
  EXPECT_EQ(back->seed, spec.seed);
  EXPECT_EQ(back->num_threads, spec.num_threads);
  EXPECT_EQ(back->fault_plan, spec.fault_plan);
  EXPECT_EQ(back->scan_retries, spec.scan_retries);
  EXPECT_DOUBLE_EQ(back->retry_backoff_ms, spec.retry_backoff_ms);
  EXPECT_EQ(back->retry_budget, spec.retry_budget);
  EXPECT_DOUBLE_EQ(back->deadline_s, spec.deadline_s);
  EXPECT_EQ(back->memory_budget, spec.memory_budget);
}

TEST(ProtocolTest, SpecRefusesCountsThatDoNotCastExactly) {
  // Each count is cast to an integer: a negative, fractional, huge or
  // non-numeric value is refused by name instead of cast.
  const char* refused[][2] = {
      {"max_span", "-1"},   {"max_gap", "2.5"},        {"max_level", "1e300"},
      {"sample", "-0.5"},   {"seed", "\"42\""},        {"threads", "1e20"},
      {"threads", "257"},   {"scan_retries", "-2"},    {"memory_budget", "1.5"},
      {"retry_budget", "0.5"}};
  for (const auto& [member, number] : refused) {
    const std::string line = std::string("{\"db\": \"x\", \"") + member +
                             "\": " + number + "}";
    std::optional<obs::JsonValue> value = obs::ParseJson(line);
    ASSERT_TRUE(value.has_value()) << line;
    std::string error;
    EXPECT_FALSE(JobSpec::FromJson(*value, &error).has_value()) << line;
    EXPECT_NE(error.find(member), std::string::npos) << error;
  }
  // The thread cap is a constant: at the cap the spec reads, and a
  // negative retry budget reads as unlimited, as AppendJson writes it.
  std::optional<obs::JsonValue> value = obs::ParseJson(
      "{\"db\": \"x\", \"threads\": 256, \"retry_budget\": -1}");
  ASSERT_TRUE(value.has_value());
  std::string error;
  std::optional<JobSpec> spec = JobSpec::FromJson(*value, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->num_threads, kMaxJobThreads);
  EXPECT_EQ(spec->retry_budget, -1);
  // A result's scan count is cast the same way.
  value = obs::ParseJson("{\"ok\": true, \"scans\": -1}");
  ASSERT_TRUE(value.has_value());
  EXPECT_FALSE(JobResult::FromJson(*value).has_value());
}

TEST(ProtocolTest, ResultJsonRoundTripsExactly) {
  JobResult result;
  result.ok = true;
  result.rows = {{"0 1 2", "0.28402"}, {"3 * 4", "-"}};
  result.scans = 7;
  result.truncated = true;
  result.resumed_from_checkpoint = true;

  std::string json;
  result.AppendJson(&json);
  std::optional<obs::JsonValue> value = obs::ParseJson(json);
  ASSERT_TRUE(value.has_value());
  std::optional<JobResult> back = JobResult::FromJson(*value);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->ok);
  EXPECT_EQ(back->rows, result.rows);
  EXPECT_EQ(back->scans, 7);
  EXPECT_TRUE(back->truncated);
  EXPECT_TRUE(back->resumed_from_checkpoint);

  JobResult failed;
  failed.ok = false;
  failed.error_code = "DATA_LOSS";
  failed.message = "db \"quote\" torn\nbadly";
  json.clear();
  failed.AppendJson(&json);
  value = obs::ParseJson(json);
  ASSERT_TRUE(value.has_value());
  back = JobResult::FromJson(*value);
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->ok);
  EXPECT_EQ(back->error_code, "DATA_LOSS");
  EXPECT_EQ(back->message, failed.message);
}

TEST(ProtocolTest, ResponseBuilders) {
  EXPECT_EQ(OkResponse(), "{\"ok\": true}\n");
  EXPECT_EQ(OkResponse(", \"id\": 3"), "{\"ok\": true, \"id\": 3}\n");

  std::string shed = ErrorResponse("RESOURCE_EXHAUSTED", "queue full", 1.5);
  std::optional<obs::JsonValue> value = obs::ParseJson(shed);
  ASSERT_TRUE(value.has_value());
  EXPECT_FALSE(value->Get("ok")->bool_value);
  EXPECT_EQ(value->Get("error")->string_value, "RESOURCE_EXHAUSTED");
  EXPECT_DOUBLE_EQ(value->GetNumber("retry_after_s", -1.0), 1.5);

  std::string plain = ErrorResponse("NOT_FOUND", "no job 9");
  value = obs::ParseJson(plain);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->Get("retry_after_s"), nullptr);
}

}  // namespace
}  // namespace serve
}  // namespace nmine
