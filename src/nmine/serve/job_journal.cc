#include "nmine/serve/job_journal.h"

#include <algorithm>
#include <vector>

#include "nmine/obs/json_parse.h"
#include "nmine/obs/json_util.h"
#include "nmine/obs/logger.h"
#include "nmine/obs/trace_context.h"

namespace nmine {
namespace serve {
namespace {

void AppendSubmitLine(const Job& job, std::string* out) {
  out->append("{\"event\": \"submit\", \"id\": ");
  obs::AppendJsonNumber(static_cast<double>(job.id), out);
  out->append(", \"client\": ");
  obs::AppendJsonString(job.client, out);
  out->append(", \"tag\": ");
  obs::AppendJsonString(job.tag, out);
  out->append(", \"submit_us\": ");
  obs::AppendJsonNumber(static_cast<double>(job.submit_us), out);
  if ((job.trace_hi | job.trace_lo) != 0) {
    out->append(", \"trace_id\": ");
    obs::AppendJsonString(obs::FormatTraceId(job.trace_hi, job.trace_lo),
                          out);
  }
  out->append(", \"spec\": ");
  job.spec.AppendJson(out);
  out->append("}\n");
}

void AppendStateLine(uint64_t id, JobState state, std::string* out) {
  out->append("{\"event\": \"state\", \"id\": ");
  obs::AppendJsonNumber(static_cast<double>(id), out);
  out->append(", \"state\": ");
  obs::AppendJsonString(ToString(state), out);
  out->append("}\n");
}

void AppendResultLine(uint64_t id, const JobResult& result, std::string* out) {
  out->append("{\"event\": \"result\", \"id\": ");
  obs::AppendJsonNumber(static_cast<double>(id), out);
  out->append(", \"result\": ");
  result.AppendJson(out);
  out->append("}\n");
}

/// Applies one journal line to the board, appending the id of every
/// applied result line to `results`. Unparseable lines are skipped: the
/// log never replays a torn tail, so a malformed line is foreign damage,
/// and dropping it loses at most an event that line described.
void Replay(const std::string& line, std::map<uint64_t, Job>* board,
            std::vector<uint64_t>* results) {
  std::optional<obs::JsonValue> value = obs::ParseJson(line);
  if (!value.has_value() || !value->is_object()) return;
  const obs::JsonValue* event = value->Get("event");
  const obs::JsonValue* id_value = value->Get("id");
  if (event == nullptr || !event->is_string() || id_value == nullptr ||
      !id_value->is_number()) {
    return;
  }
  const uint64_t id = static_cast<uint64_t>(id_value->number_value);

  if (event->string_value == "submit") {
    const obs::JsonValue* spec_value = value->Get("spec");
    if (spec_value == nullptr) return;
    std::string spec_error;
    std::optional<JobSpec> spec = JobSpec::FromJson(*spec_value, &spec_error);
    if (!spec.has_value()) return;
    Job& job = (*board)[id];
    job.id = id;
    job.spec = std::move(*spec);
    job.state = JobState::kQueued;
    const obs::JsonValue* v;
    if ((v = value->Get("client")) != nullptr && v->is_string()) {
      job.client = v->string_value;
    }
    if ((v = value->Get("tag")) != nullptr && v->is_string()) {
      job.tag = v->string_value;
    }
    job.submit_us = static_cast<int64_t>(value->GetNumber("submit_us", 0.0));
    if ((v = value->Get("trace_id")) != nullptr && v->is_string()) {
      // Best-effort: a journal written before tracing existed simply has
      // no trace_id; the server mints one at recovery so every live job
      // is traceable.
      obs::ParseTraceId(v->string_value, &job.trace_hi, &job.trace_lo);
    }
    return;
  }

  auto it = board->find(id);
  if (it == board->end()) return;  // state/result without a submit: torn file

  if (event->string_value == "state") {
    const obs::JsonValue* state_value = value->Get("state");
    if (state_value == nullptr || !state_value->is_string()) return;
    std::optional<JobState> state = ParseJobState(state_value->string_value);
    if (state.has_value()) it->second.state = *state;
    return;
  }
  if (event->string_value == "result") {
    const obs::JsonValue* result_value = value->Get("result");
    if (result_value == nullptr) return;
    std::optional<JobResult> result = JobResult::FromJson(*result_value);
    if (!result.has_value()) return;
    it->second.result = std::move(*result);
    it->second.state =
        it->second.result.ok ? JobState::kDone : JobState::kFailed;
    results->push_back(id);
  }
}

}  // namespace

std::unique_ptr<JobJournal> JobJournal::Open(const std::string& state_dir,
                                             std::map<uint64_t, Job>* recovered,
                                             uint64_t* next_id,
                                             std::string* error) {
  recovered->clear();
  size_t replayed_lines = 0;
  size_t rewound = 0;
  std::vector<uint64_t> results;  // ids of the replayed result lines
  std::vector<uint64_t> finished;  // kept terminal jobs, oldest finish first
  auto replay = [&](const std::string& line) {
    Replay(line, recovered, &results);
    ++replayed_lines;
  };
  auto compact = [&] {
    // Rewind crash-interrupted jobs: running means the server died
    // mid-run. The job's RunCheckpoint (if the run got far enough to cut
    // one) holds the progress; re-queueing re-enters RunJob which resumes
    // from it.
    uint64_t max_id = 0;
    for (auto& [id, job] : *recovered) {
      max_id = std::max(max_id, id);
      if (job.state == JobState::kRunning) {
        job.state = JobState::kQueued;
        ++rewound;
      }
    }
    *next_id = max_id + 1;

    // Rewrite the replayed board as a fresh journal, dropping the terminal
    // jobs that finished first beyond the cap. Finish order is the order
    // of the result lines (a terminal job without one counts as oldest),
    // and the rewrite lists terminal jobs in that order, so it survives
    // the next compaction too.
    std::map<uint64_t, size_t> finish_rank;
    for (size_t i = 0; i < results.size(); ++i) finish_rank[results[i]] = i + 1;
    auto is_terminal = [](const Job& job) {
      return job.state == JobState::kDone || job.state == JobState::kFailed;
    };
    for (const auto& [id, job] : *recovered) {
      if (is_terminal(job)) finished.push_back(id);
    }
    auto rank = [&](uint64_t id) -> size_t {
      auto it = finish_rank.find(id);
      return it == finish_rank.end() ? 0 : it->second;
    };
    std::stable_sort(
        finished.begin(), finished.end(),
        [&](uint64_t a, uint64_t b) { return rank(a) < rank(b); });
    if (finished.size() > kMaxTerminalKept) {
      const size_t drop = finished.size() - kMaxTerminalKept;
      for (size_t i = 0; i < drop; ++i) recovered->erase(finished[i]);
      finished.erase(finished.begin(), finished.begin() + drop);
    }
    std::string compacted;
    for (const auto& [id, job] : *recovered) {
      if (is_terminal(job)) continue;
      AppendSubmitLine(job, &compacted);
      if (job.state != JobState::kQueued) {
        AppendStateLine(id, job.state, &compacted);
      }
    }
    for (uint64_t id : finished) {
      const Job& job = recovered->at(id);
      AppendSubmitLine(job, &compacted);
      AppendStateLine(id, job.state, &compacted);
      AppendResultLine(id, job.result, &compacted);
    }
    return compacted;
  };

  std::unique_ptr<runtime::AppendLog> log;
  Status status = runtime::AppendLog::Open(state_dir, "jobs.journal", replay,
                                           compact, &log);
  if (!status.ok()) {
    if (error != nullptr) *error = status.ToString();
    return nullptr;
  }
  if (replayed_lines > 0) {
    NMINE_LOG(kInfo, "serve")
        .Msg("job journal replayed")
        .Num("lines", static_cast<int64_t>(replayed_lines))
        .Num("jobs", static_cast<int64_t>(recovered->size()))
        .Num("rewound_to_queued", static_cast<int64_t>(rewound));
  }
  return std::unique_ptr<JobJournal>(
      new JobJournal(std::move(log), std::move(finished)));
}

Status JobJournal::AppendSubmit(const Job& job) {
  std::string line;
  AppendSubmitLine(job, &line);
  return log_->Append(line);
}

Status JobJournal::AppendState(uint64_t id, JobState state) {
  std::string line;
  AppendStateLine(id, state, &line);
  return log_->Append(line);
}

Status JobJournal::AppendResult(uint64_t id, const JobResult& result) {
  std::string line;
  AppendResultLine(id, result, &line);
  return log_->Append(line);
}

}  // namespace serve
}  // namespace nmine
