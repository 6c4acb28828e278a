#include "nmine/runtime/run_checkpoint.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "nmine/obs/flight_recorder.h"
#include "nmine/obs/trace.h"
#include "nmine/runtime/append_log.h"
#include "nmine/runtime/run_status.h"

namespace nmine {
namespace runtime {
namespace {

constexpr const char kMagic[] = "nmine-run-checkpoint";
constexpr int kVersion = 1;

void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

/// One pattern per line: `<value> <token> <token> ...` where a token is a
/// raw symbol id or `*`. Doubles are printed with max_digits10 so the
/// resumed run reproduces the interrupted run's values bit-for-bit.
void AppendPatternLine(std::string* out, const Pattern& p, double value) {
  AppendDouble(out, value);
  out->push_back(' ');
  out->append(p.ToString());
  out->push_back('\n');
}

bool ParsePatternLine(const std::string& line, Pattern* p, double* value) {
  std::istringstream in(line);
  if (!(in >> *value)) return false;
  std::vector<SymbolId> body;
  std::string token;
  while (in >> token) {
    if (token == "*") {
      body.push_back(kWildcard);
    } else {
      try {
        size_t pos = 0;
        long id = std::stol(token, &pos);
        if (pos != token.size() || id < 0) return false;
        body.push_back(static_cast<SymbolId>(id));
      } catch (...) {
        return false;
      }
    }
  }
  if (!Pattern::IsValidBody(body)) return false;
  *p = Pattern(std::move(body));
  return true;
}

}  // namespace

const char* ToString(RunStage stage) {
  switch (stage) {
    case RunStage::kPhase1Done:
      return "phase1";
    case RunStage::kPhase2Done:
      return "phase2";
    case RunStage::kPhase3Progress:
      return "phase3";
  }
  return "unknown";
}

Status WriteRunCheckpoint(const std::string& path, const RunCheckpoint& cp) {
  // Checkpoint cuts are a job-lifecycle edge worth seeing per trace: when
  // a traced run flushes a checkpoint the span attributes to that job.
  obs::TraceSpan span("runtime.checkpoint.write", "runtime");
  span.Arg("stage", ToString(cp.stage));
  std::string out;
  out.reserve(4096);
  out.append(kMagic).append(" v").append(std::to_string(kVersion));
  out.push_back('\n');
  out.append("stage ").append(ToString(cp.stage));
  out.push_back('\n');
  out.append("metric ").append(ToString(cp.metric));
  out.push_back('\n');
  out.append("threshold ");
  AppendDouble(&out, cp.min_threshold);
  out.push_back('\n');
  out.append("db ")
      .append(std::to_string(cp.num_sequences))
      .append(" ")
      .append(std::to_string(cp.total_symbols));
  out.push_back('\n');
  out.append("sampling ")
      .append(std::to_string(cp.sample_size))
      .append(" ")
      .append(std::to_string(cp.seed))
      .append(" ");
  AppendDouble(&out, cp.delta);
  out.push_back('\n');
  out.append("scans ").append(std::to_string(cp.scans_completed));
  out.push_back('\n');
  out.append("diag ")
      .append(std::to_string(cp.ambiguous_after_sample))
      .append(" ")
      .append(std::to_string(cp.ambiguous_with_unit_spread))
      .append(" ")
      .append(std::to_string(cp.accepted_from_sample))
      .append(" ")
      .append(cp.truncated ? "1" : "0");
  out.push_back('\n');
  out.append("governor ")
      .append(std::to_string(cp.effective_sample_size))
      .append(" ");
  AppendDouble(&out, cp.final_epsilon);
  out.push_back('\n');
  out.append("symbol_match ").append(std::to_string(cp.symbol_match.size()));
  for (double v : cp.symbol_match) {
    out.push_back(' ');
    AppendDouble(&out, v);
  }
  out.push_back('\n');
  out.append("sample ").append(std::to_string(cp.sample.size()));
  out.push_back('\n');
  for (const SequenceRecord& rec : cp.sample) {
    out.append(std::to_string(rec.id));
    for (SymbolId s : rec.symbols) {
      out.push_back(' ');
      out.append(std::to_string(s));
    }
    out.push_back('\n');
  }
  out.append("frequent ").append(std::to_string(cp.resolved_frequent.size()));
  out.push_back('\n');
  for (const auto& [p, v] : cp.resolved_frequent) {
    AppendPatternLine(&out, p, v);
  }
  out.append("unresolved ").append(std::to_string(cp.unresolved.size()));
  out.push_back('\n');
  for (const auto& [p, v] : cp.unresolved) {
    AppendPatternLine(&out, p, v);
  }
  // Trailer marker: a file cut short anywhere (torn write, truncated copy)
  // is detected even when the cut lands on a section boundary.
  out.append("end\n");
  Status status = AtomicWriteFile(path, out);
  if (status.ok()) {
    obs::FlightRecorder::Global().Record(
        obs::FlightEventType::kCheckpoint, ToString(cp.stage),
        static_cast<int64_t>(cp.scans_completed),
        static_cast<int64_t>(cp.resolved_frequent.size()));
    RunStatusBoard::Global().NoteCheckpointFlush();
  }
  return status;
}

Status LoadRunCheckpoint(const std::string& path,
                         const RunCheckpoint& expected, RunCheckpoint* cp) {
  obs::TraceSpan span("runtime.checkpoint.load", "runtime");
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("no run checkpoint at '" + path + "'");
  }
  auto corrupt = [&path](const std::string& what) {
    return Status::DataLoss("malformed run checkpoint '" + path +
                            "': " + what);
  };

  std::string line;
  if (!std::getline(in, line) ||
      line != std::string(kMagic) + " v" + std::to_string(kVersion)) {
    return corrupt("bad header");
  }

  RunCheckpoint loaded;
  std::string word, name;
  if (!(in >> word >> name) || word != "stage") {
    return corrupt("missing stage");
  }
  if (name == "phase1") {
    loaded.stage = RunStage::kPhase1Done;
  } else if (name == "phase2") {
    loaded.stage = RunStage::kPhase2Done;
  } else if (name == "phase3") {
    loaded.stage = RunStage::kPhase3Progress;
  } else {
    return corrupt("unknown stage '" + name + "'");
  }
  if (!(in >> word >> name) || word != "metric") {
    return corrupt("missing metric");
  }
  if (name == "match") {
    loaded.metric = Metric::kMatch;
  } else if (name == "support") {
    loaded.metric = Metric::kSupport;
  } else {
    return corrupt("unknown metric '" + name + "'");
  }
  if (!(in >> word >> loaded.min_threshold) || word != "threshold") {
    return corrupt("missing threshold");
  }
  if (!(in >> word >> loaded.num_sequences >> loaded.total_symbols) ||
      word != "db") {
    return corrupt("missing db fingerprint");
  }
  if (!(in >> word >> loaded.sample_size >> loaded.seed >> loaded.delta) ||
      word != "sampling") {
    return corrupt("missing sampling fingerprint");
  }
  if (!(in >> word >> loaded.scans_completed) || word != "scans" ||
      loaded.scans_completed < 0) {
    return corrupt("missing scans");
  }
  int truncated = 0;
  if (!(in >> word >> loaded.ambiguous_after_sample >>
        loaded.ambiguous_with_unit_spread >> loaded.accepted_from_sample >>
        truncated) ||
      word != "diag") {
    return corrupt("missing diagnostics");
  }
  loaded.truncated = truncated != 0;
  if (!(in >> word >> loaded.effective_sample_size >>
        loaded.final_epsilon) ||
      word != "governor") {
    return corrupt("missing governor state");
  }
  size_t n_match = 0;
  if (!(in >> word >> n_match) || word != "symbol_match") {
    return corrupt("missing symbol_match");
  }
  loaded.symbol_match.resize(n_match);
  for (size_t i = 0; i < n_match; ++i) {
    if (!(in >> loaded.symbol_match[i])) {
      return corrupt("short symbol_match");
    }
  }
  size_t n_sample = 0;
  if (!(in >> word >> n_sample) || word != "sample") {
    return corrupt("missing sample section");
  }
  std::getline(in, line);  // consume end of the count line
  loaded.sample.reserve(n_sample);
  for (size_t i = 0; i < n_sample; ++i) {
    if (!std::getline(in, line)) {
      return corrupt("short sample section");
    }
    std::istringstream rec_in(line);
    SequenceRecord rec;
    long long id = 0;
    if (!(rec_in >> id) || id < 0) {
      return corrupt("bad sample record '" + line + "'");
    }
    rec.id = static_cast<SequenceId>(id);
    long sym = 0;
    while (rec_in >> sym) {
      if (sym < 0) return corrupt("bad sample record '" + line + "'");
      rec.symbols.push_back(static_cast<SymbolId>(sym));
    }
    if (!rec_in.eof()) {
      return corrupt("bad sample record '" + line + "'");
    }
    loaded.sample.push_back(std::move(rec));
  }

  auto read_patterns =
      [&](const char* section,
          std::vector<std::pair<Pattern, double>>* out) -> Status {
    size_t count = 0;
    if (!(in >> word >> count) || word != section) {
      return corrupt(std::string("missing ") + section + " section");
    }
    std::getline(in, line);  // consume end of the count line
    out->reserve(count);
    for (size_t i = 0; i < count; ++i) {
      if (!std::getline(in, line)) {
        return corrupt(std::string("short ") + section + " section");
      }
      Pattern p;
      double v = 0.0;
      if (!ParsePatternLine(line, &p, &v)) {
        return corrupt("bad pattern line '" + line + "'");
      }
      out->emplace_back(std::move(p), v);
    }
    return Status::Ok();
  };
  Status s = read_patterns("frequent", &loaded.resolved_frequent);
  if (!s.ok()) return s;
  s = read_patterns("unresolved", &loaded.unresolved);
  if (!s.ok()) return s;
  if (!(in >> word) || word != "end") {
    return corrupt("missing end marker (file truncated?)");
  }

  if (loaded.metric != expected.metric ||
      loaded.min_threshold != expected.min_threshold ||
      loaded.num_sequences != expected.num_sequences ||
      loaded.total_symbols != expected.total_symbols ||
      loaded.sample_size != expected.sample_size ||
      loaded.seed != expected.seed || loaded.delta != expected.delta) {
    return Status::FailedPrecondition(
        "run checkpoint '" + path +
        "' was written for a different run (metric/threshold/database/"
        "sampling mismatch); delete it to start fresh");
  }
  *cp = std::move(loaded);
  return Status::Ok();
}

void RemoveRunCheckpoint(const std::string& path) {
  BestEffortRemoveFile(path, "runtime");
}

}  // namespace runtime
}  // namespace nmine
