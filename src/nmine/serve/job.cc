#include "nmine/serve/job.h"

#include <algorithm>
#include <filesystem>
#include <memory>

#include "nmine/db/disk_database.h"
#include "nmine/db/fault_injecting_database.h"
#include "nmine/db/retrying_database.h"
#include "nmine/eval/table.h"
#include "nmine/gen/matrix_generator.h"
#include "nmine/mining/miners.h"
#include "nmine/obs/json_util.h"
#include "nmine/obs/logger.h"

namespace nmine {
namespace serve {

const char* ToString(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
  }
  return "unknown";
}

std::optional<JobState> ParseJobState(const std::string& text) {
  if (text == "queued") return JobState::kQueued;
  if (text == "running") return JobState::kRunning;
  if (text == "done") return JobState::kDone;
  if (text == "failed") return JobState::kFailed;
  return std::nullopt;
}

namespace {

/// Member `name` of `object` through obs::GetWholeNumber (absent keeps
/// `*field`), naming the member in `*error` when it does not read.
bool ReadCount(const obs::JsonValue& object, const char* name,
               uint64_t* field, std::string* error) {
  if (obs::GetWholeNumber(object, name, *field, field)) return true;
  if (error != nullptr) {
    *error = std::string("job spec \"") + name +
             "\" must be a whole number in [0, 2^53]";
  }
  return false;
}

}  // namespace

void JobSpec::AppendJson(std::string* out) const {
  out->append("{\"db\": ");
  obs::AppendJsonString(db_path, out);
  out->append(", \"algorithm\": ");
  obs::AppendJsonString(algorithm, out);
  out->append(", \"metric\": ");
  obs::AppendJsonString(metric, out);
  out->append(", \"matrix\": ");
  obs::AppendJsonString(matrix_path, out);
  out->append(", \"uniform_alpha\": ");
  obs::AppendJsonNumber(uniform_alpha, out);
  out->append(", \"threshold\": ");
  obs::AppendJsonNumber(threshold, out);
  out->append(", \"max_span\": ");
  obs::AppendJsonNumber(static_cast<double>(max_span), out);
  out->append(", \"max_gap\": ");
  obs::AppendJsonNumber(static_cast<double>(max_gap), out);
  out->append(", \"max_level\": ");
  obs::AppendJsonNumber(static_cast<double>(max_level), out);
  out->append(", \"sample\": ");
  obs::AppendJsonNumber(static_cast<double>(sample_size), out);
  out->append(", \"delta\": ");
  obs::AppendJsonNumber(delta, out);
  out->append(", \"seed\": ");
  obs::AppendJsonNumber(static_cast<double>(seed), out);
  out->append(", \"threads\": ");
  obs::AppendJsonNumber(static_cast<double>(num_threads), out);
  out->append(", \"fault_plan\": ");
  obs::AppendJsonString(fault_plan, out);
  out->append(", \"scan_retries\": ");
  obs::AppendJsonNumber(static_cast<double>(scan_retries), out);
  out->append(", \"retry_backoff_ms\": ");
  obs::AppendJsonNumber(retry_backoff_ms, out);
  out->append(", \"retry_budget\": ");
  obs::AppendJsonNumber(static_cast<double>(retry_budget), out);
  out->append(", \"deadline_s\": ");
  obs::AppendJsonNumber(deadline_s, out);
  out->append(", \"memory_budget\": ");
  obs::AppendJsonNumber(static_cast<double>(memory_budget), out);
  out->append("}");
}

std::optional<JobSpec> JobSpec::FromJson(const obs::JsonValue& value,
                                         std::string* error) {
  if (!value.is_object()) {
    if (error != nullptr) *error = "job spec must be a JSON object";
    return std::nullopt;
  }
  JobSpec spec;
  const obs::JsonValue* db = value.Get("db");
  if (db == nullptr || !db->is_string() || db->string_value.empty()) {
    if (error != nullptr) *error = "job spec needs a non-empty \"db\" path";
    return std::nullopt;
  }
  spec.db_path = db->string_value;
  for (auto [name, field] : {std::pair{"algorithm", &spec.algorithm},
                             std::pair{"metric", &spec.metric},
                             std::pair{"matrix", &spec.matrix_path},
                             std::pair{"fault_plan", &spec.fault_plan}}) {
    const obs::JsonValue* v = value.Get(name);
    if (v != nullptr && v->is_string()) *field = v->string_value;
  }
  spec.uniform_alpha = value.GetNumber("uniform_alpha", spec.uniform_alpha);
  spec.threshold = value.GetNumber("threshold", spec.threshold);
  spec.delta = value.GetNumber("delta", spec.delta);
  spec.retry_backoff_ms =
      value.GetNumber("retry_backoff_ms", spec.retry_backoff_ms);
  spec.deadline_s = value.GetNumber("deadline_s", spec.deadline_s);
  // Counts are cast to integers, so each must be whole and in range. A
  // negative retry budget is unlimited, as AppendJson writes it.
  uint64_t scan_retries = static_cast<uint64_t>(spec.scan_retries);
  uint64_t retry_budget = 0;
  const obs::JsonValue* budget = value.Get("retry_budget");
  const bool unlimited =
      budget == nullptr || (budget->is_number() && budget->number_value < 0);
  if (!ReadCount(value, "max_span", &spec.max_span, error) ||
      !ReadCount(value, "max_gap", &spec.max_gap, error) ||
      !ReadCount(value, "max_level", &spec.max_level, error) ||
      !ReadCount(value, "sample", &spec.sample_size, error) ||
      !ReadCount(value, "seed", &spec.seed, error) ||
      !ReadCount(value, "threads", &spec.num_threads, error) ||
      !ReadCount(value, "scan_retries", &scan_retries, error) ||
      !ReadCount(value, "memory_budget", &spec.memory_budget, error) ||
      (!unlimited && !ReadCount(value, "retry_budget", &retry_budget, error))) {
    return std::nullopt;
  }
  spec.scan_retries = static_cast<int64_t>(scan_retries);
  spec.retry_budget = unlimited ? -1 : static_cast<int64_t>(retry_budget);
  if (spec.num_threads > kMaxJobThreads) {
    if (error != nullptr) {
      *error = "job spec asks for " + std::to_string(spec.num_threads) +
               " threads; at most " + std::to_string(kMaxJobThreads) +
               " are served";
    }
    return std::nullopt;
  }

  if (FindMiner(spec.algorithm) == nullptr) {
    if (error != nullptr) *error = "unknown algorithm '" + spec.algorithm + "'";
    return std::nullopt;
  }
  if (spec.metric != "match" && spec.metric != "support") {
    if (error != nullptr) *error = "unknown metric '" + spec.metric + "'";
    return std::nullopt;
  }
  return spec;
}

void JobResult::AppendJson(std::string* out) const {
  out->append("{\"ok\": ");
  out->append(ok ? "true" : "false");
  if (!ok) {
    out->append(", \"error\": ");
    obs::AppendJsonString(error_code, out);
    out->append(", \"message\": ");
    obs::AppendJsonString(message, out);
  }
  out->append(", \"rows\": [");
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out->append(", ");
    out->append("[");
    obs::AppendJsonString(rows[i].first, out);
    out->append(", ");
    obs::AppendJsonString(rows[i].second, out);
    out->append("]");
  }
  out->append("], \"scans\": ");
  obs::AppendJsonNumber(static_cast<double>(scans), out);
  out->append(", \"truncated\": ");
  out->append(truncated ? "true" : "false");
  out->append(", \"resumed\": ");
  out->append(resumed_from_checkpoint ? "true" : "false");
  out->append("}");
}

std::optional<JobResult> JobResult::FromJson(const obs::JsonValue& value) {
  if (!value.is_object()) return std::nullopt;
  const obs::JsonValue* ok = value.Get("ok");
  if (ok == nullptr || ok->type != obs::JsonValue::Type::kBool) {
    return std::nullopt;
  }
  JobResult result;
  result.ok = ok->bool_value;
  const obs::JsonValue* v;
  if ((v = value.Get("error")) != nullptr && v->is_string()) {
    result.error_code = v->string_value;
  }
  if ((v = value.Get("message")) != nullptr && v->is_string()) {
    result.message = v->string_value;
  }
  if ((v = value.Get("rows")) != nullptr && v->is_array()) {
    // Exact capacity: boards and clients keep every result they decode.
    result.rows.reserve(v->array.size());
    for (const obs::JsonValue& row : v->array) {
      if (!row.is_array() || row.array.size() != 2 ||
          !row.array[0].is_string() || !row.array[1].is_string()) {
        return std::nullopt;
      }
      result.rows.emplace_back(row.array[0].string_value,
                               row.array[1].string_value);
    }
  }
  uint64_t scans = 0;
  if (!obs::GetWholeNumber(value, "scans", 0, &scans)) return std::nullopt;
  result.scans = static_cast<int64_t>(scans);
  if ((v = value.Get("truncated")) != nullptr) {
    result.truncated = v->bool_value;
  }
  if ((v = value.Get("resumed")) != nullptr) {
    result.resumed_from_checkpoint = v->bool_value;
  }
  return result;
}

namespace {

JobResult TypedError(const Status& status) {
  JobResult r;
  r.ok = false;
  r.error_code = ToString(status.code());
  r.message = status.message();
  return r;
}

}  // namespace

MinerOptions MinerOptionsFor(const JobSpec& spec) {
  MinerOptions options;
  options.min_threshold = spec.threshold;
  options.space.max_span = static_cast<size_t>(spec.max_span);
  options.space.max_gap = static_cast<size_t>(spec.max_gap);
  options.max_level = static_cast<size_t>(
      spec.max_level == 0 ? spec.max_span : spec.max_level);
  options.sample_size = static_cast<size_t>(spec.sample_size);
  options.delta = spec.delta;
  options.seed = spec.seed;
  options.num_threads = static_cast<size_t>(spec.num_threads);
  options.memory_budget_bytes = static_cast<size_t>(spec.memory_budget);
  return options;
}

JobInputs::JobInputs() = default;
JobInputs::~JobInputs() = default;

const SequenceDatabase& JobInputs::mining_db() const {
  if (retrier != nullptr) return *retrier;
  return *db;
}

std::unique_ptr<JobInputs> OpenJobInputs(const JobSpec& spec, Status* error) {
  // The one open path of `nmine_cli mine`, the server and the
  // coordinator, so the chaos drills can diff their outputs byte for byte.
  auto inputs = std::make_unique<JobInputs>();
  RetryPolicy retry;
  retry.max_attempts = 1 + static_cast<int>(std::max<int64_t>(
                               0, spec.scan_retries));
  retry.initial_backoff_ms = spec.retry_backoff_ms;
  if (spec.retry_budget >= 0) {
    inputs->retry_budget = std::make_unique<RetryBudget>(spec.retry_budget);
  }

  DiskSequenceDatabase::Options db_options;
  db_options.retry = retry;
  db_options.retry_budget = inputs->retry_budget.get();
  inputs->db = DiskSequenceDatabase::Open(spec.db_path, db_options, error);
  if (inputs->db == nullptr) return nullptr;

  if (!spec.fault_plan.empty()) {
    std::string plan_error;
    std::optional<FaultPlan> plan =
        FaultPlan::Parse(spec.fault_plan, &plan_error);
    if (!plan.has_value()) {
      *error = Status::InvalidArgument(plan_error);
      return nullptr;
    }
    inputs->injector = std::make_unique<FaultInjectingDatabase>(
        inputs->db.get(), std::move(*plan));
    inputs->retrier = std::make_unique<RetryingDatabase>(
        inputs->injector.get(), retry, /*sleeper=*/nullptr,
        inputs->retry_budget.get());
  }

  MatrixIoResult merr;
  inputs->matrix = ResolveCompatibilityMatrix(
      spec.matrix_path, spec.uniform_alpha,
      static_cast<size_t>(inputs->db->max_symbol() + 1), &merr);
  if (!inputs->matrix.has_value()) {
    *error = Status::InvalidArgument(merr.message);
    return nullptr;
  }
  *error = Status::Ok();
  return inputs;
}

JobResult RunJob(const JobSpec& spec, const std::string& checkpoint_path,
                 const runtime::RunControl* run, const RunJobHooks& hooks) {
  Status error;
  std::unique_ptr<JobInputs> inputs = OpenJobInputs(spec, &error);
  if (inputs == nullptr) return TypedError(error);
  return MineJob(spec, *inputs, checkpoint_path, run, hooks);
}

JobResult MineJob(const JobSpec& spec, const JobInputs& inputs,
                  const std::string& checkpoint_path,
                  const runtime::RunControl* run, const RunJobHooks& hooks) {
  Metric metric = spec.metric == "support" ? Metric::kSupport : Metric::kMatch;
  MinerOptions options = MinerOptionsFor(spec);
  options.run_control = run;
  options.run_checkpoint_path = checkpoint_path;
  if (hooks.phase3_count) {
    options.phase3_count_override = [&hooks, metric](
                                        const std::vector<Pattern>& probe,
                                        std::vector<double>* values) {
      return hooks.phase3_count(metric, probe, values);
    };
  }

  const bool had_checkpoint =
      !checkpoint_path.empty() &&
      std::filesystem::exists(std::filesystem::path(checkpoint_path));

  const MinerEntry* miner = FindMiner(spec.algorithm);
  if (miner == nullptr) {
    return TypedError(
        Status::InvalidArgument("unknown algorithm '" + spec.algorithm + "'"));
  }
  MiningResult result =
      miner->mine(metric, options, inputs.mining_db(), *inputs.matrix);

  if (!result.ok()) {
    JobResult r = TypedError(result.status);
    r.scans = result.scans;
    r.resumed_from_checkpoint = had_checkpoint;
    return r;
  }

  JobResult r;
  r.ok = true;
  r.scans = result.scans;
  r.truncated = result.truncated;
  r.resumed_from_checkpoint = had_checkpoint;
  const std::vector<Pattern> border = result.border.ToSortedVector();
  // Exact capacity: the server board keeps one result per finished job.
  r.rows.reserve(border.size());
  for (const Pattern& p : border) {
    auto it = result.values.find(p);
    r.rows.emplace_back(
        p.ToString(),
        it == result.values.end() ? "-" : Table::Num(it->second, 5));
  }
  return r;
}

}  // namespace serve
}  // namespace nmine
