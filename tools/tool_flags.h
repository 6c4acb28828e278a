#ifndef NMINE_TOOLS_TOOL_FLAGS_H_
#define NMINE_TOOLS_TOOL_FLAGS_H_

// The front end the five nmine tools share: one flag parser, one job-flag
// reader, and the status-port, port-file, log-level, kernel and signal
// plumbing every long-running tool needs.

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "nmine/net/status_server.h"
#include "nmine/runtime/run_control.h"
#include "nmine/serve/job.h"

namespace nmine {
namespace tools {

/// A tool's command line: `--key value`, `--key=value` and bare `--key`
/// in any order, mixed with positional arguments. A repeated flag keeps
/// every value (GetAll); the getters read the last one.
///
/// Numbers are checked: a value that is not a whole number (GetInt) or a
/// finite number (GetDouble), or that lies outside [min, max], prints
/// "<tool>: bad --key 'value' (want ...)" and exits 1.
class Flags {
 public:
  Flags(const char* tool, int argc, char** argv, int first);

  const char* tool() const { return tool_; }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& dflt) const;
  std::vector<std::string> GetAll(const std::string& key) const;
  const std::vector<std::string>& positional() const { return positional_; }

  long long GetInt(const std::string& key, long long dflt,
                   long long min = std::numeric_limits<long long>::min(),
                   long long max = std::numeric_limits<long long>::max()) const;
  double GetDouble(const std::string& key, double dflt,
                   double min = -std::numeric_limits<double>::infinity(),
                   double max = std::numeric_limits<double>::infinity()) const;
  /// A TCP port, 0..65535 (0: pick an ephemeral one).
  uint16_t GetPort(const std::string& key) const;

 private:
  [[noreturn]] void Refuse(const std::string& key,
                           const std::string& want) const;

  const char* tool_;
  std::map<std::string, std::vector<std::string>> values_;
  std::vector<std::string> positional_;
};

/// Parses `text` as a base-10 whole number within [min, max]; nullopt on
/// anything else (empty, trailing characters, overflow).
std::optional<long long> ParseInt(const std::string& text, long long min,
                                  long long max);

/// Parses `text` as a finite number within [min, max]; nullopt otherwise.
std::optional<double> ParseDouble(const std::string& text, double min,
                                  double max);

/// The job flags, shared by `nmine_cli mine`, `nmine_client submit` and
/// `nmine_coordinator`: --db --algorithm --metric --matrix --uniform-alpha
/// --threshold --max-span --max-gap --max-level --sample --delta --seed
/// --threads --fault-plan --scan-retries --retry-backoff-ms --retry-budget
/// --deadline --memory-budget. An absent flag keeps JobSpec's default.
serve::JobSpec JobSpecFromFlags(const Flags& flags);

/// Sets the global log level from --log-level (default `dflt`). False,
/// after printing why, on an unknown level.
bool SetLogLevel(const Flags& flags, const char* dflt);

/// Installs the match kernel --simd names (default auto: the widest this
/// build and CPU support) and reports it on the status board. False, after
/// printing why, when the level is unknown or unavailable here.
bool SelectSimd(const Flags& flags);

/// Starts `server` on --statusz-port when the flag is given and prints
/// "statusz: listening on http://127.0.0.1:PORT" to stderr (scripts pick
/// an ephemeral port up from that line). Returns the bound port, 0 when
/// the flag is absent, or nullopt, after printing why, when it cannot
/// listen.
std::optional<uint16_t> StartStatusz(const Flags& flags,
                                     net::StatusServer* server);

/// Atomically writes "<port> <statusz_port>\n" to --port-file when given,
/// so a polling script never reads a half-written file. A failure is
/// printed, not fatal.
void WritePortFile(const Flags& flags, uint16_t port, uint16_t statusz_port);

/// Makes SIGINT and SIGTERM request cancellation of `run`, which must
/// outlive signal handling (RunControl::RequestCancel is async-signal-safe).
void CancelOnStopSignals(runtime::RunControl* run);

/// Prints a terminal job result's rows the way `nmine_cli mine` prints a
/// solo run's (as CSV with --csv, which the drills byte-diff), or the
/// typed error with the job's `trace_id` when one is known. Returns the
/// exit code: 0 done, 2 failed, 3 cancelled or past its deadline.
int ReportJobResult(const Flags& flags, const serve::JobResult& result,
                    const std::string& trace_id);

}  // namespace tools
}  // namespace nmine

#endif  // NMINE_TOOLS_TOOL_FLAGS_H_
