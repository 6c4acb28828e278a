#include "nmine/net/status_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "nmine/net/transport.h"
#include "nmine/obs/export/openmetrics.h"
#include "nmine/obs/flight_recorder.h"
#include "nmine/obs/logger.h"
#include "nmine/obs/metrics.h"
#include "nmine/obs/profiler.h"
#include "nmine/runtime/run_status.h"

#include <map>
#include <vector>

#include "nmine/obs/json_util.h"

namespace nmine {
namespace net {
namespace {

struct Response {
  int status = 200;
  const char* content_type = "application/json";
  std::string body;
};

/// Process-wide extra endpoints and /healthz contributors, each with the
/// id of its registration. A leaked mutex guards them, so registration
/// from static initializers and dispatch from accept workers never race;
/// handlers run under it, which is what lets Unregister promise that no
/// handler is still running once it returns.
std::mutex& RegistryMutex() {
  static std::mutex* m = new std::mutex();
  return *m;
}

using QueryHandler = std::function<std::string(const std::string&)>;
using HealthSignal = std::function<std::string(std::vector<std::string>*)>;

/// Handlers by path (or contributors by name), each with its id.
template <typename Fn>
using Registry = std::map<std::string, std::pair<uint64_t, Fn>>;

Registry<QueryHandler>& ExtraEndpoints() {
  static auto* map = new Registry<QueryHandler>();
  return *map;
}

Registry<HealthSignal>& HealthSignals() {
  static auto* map = new Registry<HealthSignal>();
  return *map;
}

std::atomic<uint64_t> g_next_registration{1};

/// Poll-over-poll baseline for the "scan retries climbing" health signal:
/// the previous /healthz poll's db.scan.retries value, or -1 before the
/// first poll (the first poll only records the baseline, it never
/// degrades).
std::atomic<int64_t> g_health_last_retries{-1};

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    default:
      return "Error";
  }
}

/// The full HTTP/1.0 reply: status line, headers, body.
std::string Render(const Response& response) {
  char header[256];
  int n = std::snprintf(header, sizeof(header),
                        "HTTP/1.0 %d %s\r\n"
                        "Content-Type: %s\r\n"
                        "Content-Length: %zu\r\n"
                        "Connection: close\r\n\r\n",
                        response.status, ReasonPhrase(response.status),
                        response.content_type, response.body.size());
  if (n <= 0) return std::string();
  std::string out(header, static_cast<size_t>(n));
  out.append(response.body);
  return out;
}

Response Dispatch(const std::string& method, const std::string& path,
                  const std::string& query) {
  Response r;
  if (method != "GET") {
    r.status = 405;
    r.body = "{\"error\": \"only GET is served\"}\n";
    return r;
  }
  if (path == "/healthz") {
    r.body = StatusServer::HealthzBody();
  } else if (path == "/statusz") {
    r.body = runtime::RunStatusBoard::Global().StatusJson();
  } else if (path == "/metricsz") {
    r.content_type =
        "application/openmetrics-text; version=1.0.0; charset=utf-8";
    r.body =
        obs::RenderOpenMetrics(obs::MetricsRegistry::Global().Snapshot());
  } else if (path == "/profilez") {
    r.body = obs::Profiler::Global().SnapshotJson();
    r.body.push_back('\n');
  } else if (path == "/flightz") {
    r.body = obs::FlightRecorder::Global().SnapshotJson();
  } else {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    auto it = ExtraEndpoints().find(path);
    if (it != ExtraEndpoints().end()) {
      r.body = it->second.second(query);
      return r;
    }
    r.status = 404;
    r.body =
        "{\"error\": \"unknown path\", \"endpoints\": [\"/healthz\", "
        "\"/statusz\", \"/metricsz\", \"/profilez\", \"/flightz\"]}\n";
  }
  return r;
}

}  // namespace

StatusServer::~StatusServer() { Stop(); }

uint64_t StatusServer::RegisterEndpoint(const std::string& path,
                                        std::function<std::string()> handler) {
  return RegisterQueryEndpoint(
      path, [handler = std::move(handler)](const std::string&) {
        return handler();
      });
}

uint64_t StatusServer::RegisterQueryEndpoint(
    const std::string& path,
    std::function<std::string(const std::string& query)> handler) {
  const uint64_t id = g_next_registration.fetch_add(1);
  std::lock_guard<std::mutex> lock(RegistryMutex());
  ExtraEndpoints()[path] = {id, std::move(handler)};
  return id;
}

uint64_t StatusServer::RegisterHealthSignal(
    const std::string& name,
    std::function<std::string(std::vector<std::string>* reasons)>
        contributor) {
  const uint64_t id = g_next_registration.fetch_add(1);
  std::lock_guard<std::mutex> lock(RegistryMutex());
  HealthSignals()[name] = {id, std::move(contributor)};
  return id;
}

void StatusServer::Unregister(uint64_t id) {
  auto registered_as_id = [id](const auto& entry) {
    return entry.second.first == id;
  };
  std::lock_guard<std::mutex> lock(RegistryMutex());
  std::erase_if(ExtraEndpoints(), registered_as_id);
  std::erase_if(HealthSignals(), registered_as_id);
}

std::string StatusServer::HealthzBody() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  runtime::RunStatusBoard& board = runtime::RunStatusBoard::Global();

  // Degradation signals, most severe first. All are "keep serving but let
  // the load balancer route around me" conditions — liveness stays 200.
  std::vector<std::string> reasons;
  if (board.governor_degradation_steps() > 0) {
    reasons.push_back("governor_ladder_engaged");
  }
  const int64_t retries = reg.CounterValue("db.scan.retries");
  const int64_t last =
      g_health_last_retries.exchange(retries, std::memory_order_relaxed);
  if (last >= 0 && retries > last) {
    reasons.push_back("scan_retries_climbing");
  }
  if (reg.CounterValue("db.scan.retry_budget_exhausted") > 0) {
    reasons.push_back("retry_budget_exhausted");
  }

  // Registered contributors (e.g. the serving layer's queue staleness
  // signal) add their reasons and optional extra body members.
  std::vector<std::string> extra_members;
  {
    std::lock_guard<std::mutex> lock(RegistryMutex());
    for (const auto& [name, signal] : HealthSignals()) {
      std::string member = signal.second(&reasons);
      if (!member.empty()) extra_members.push_back(std::move(member));
    }
  }

  std::string body = "{\"status\": ";
  obs::AppendJsonString(reasons.empty() ? "ok" : "degraded", &body);
  body.append(", \"uptime_s\": ");
  obs::AppendJsonNumber(static_cast<double>(board.uptime_us()) / 1e6, &body);
  body.append(", \"reasons\": [");
  for (size_t i = 0; i < reasons.size(); ++i) {
    if (i > 0) body.append(", ");
    obs::AppendJsonString(reasons[i], &body);
  }
  body.append("]");
  for (const std::string& member : extra_members) {
    body.append(", ");
    body.append(member);
  }
  body.append("}\n");
  return body;
}

bool StatusServer::Start(const Options& options, std::string* error) {
  if (running_.load(std::memory_order_acquire)) {
    if (error != nullptr) *error = "status server already running";
    return false;
  }
  if (!listener_.Start(options.bind_address, options.port,
                       [this](int fd) {
                         HandleConnection(fd);
                         ::close(fd);
                       },
                       error)) {
    return false;
  }
  running_.store(true, std::memory_order_release);
  NMINE_LOG(kInfo, "net")
      .Msg("status server listening")
      .Str("address", options.bind_address)
      .Num("port", static_cast<int64_t>(port()));
  return true;
}

void StatusServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  listener_.Stop();
}

void StatusServer::HandleConnection(int client_fd) {
  // Polling clients send one small request; cap the read and bail on slow
  // peers so a stuck client can never wedge the introspection port.
  timeval timeout;
  timeout.tv_sec = 2;
  timeout.tv_usec = 0;
  ::setsockopt(client_fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

  char buf[2048];
  size_t have = 0;
  // Read until the request line is complete (first CRLF); headers beyond
  // it are irrelevant to dispatch.
  while (have < sizeof(buf) - 1) {
    ssize_t r = ::recv(client_fd, buf + have, sizeof(buf) - 1 - have, 0);
    if (r <= 0) break;
    have += static_cast<size_t>(r);
    buf[have] = '\0';
    if (std::strstr(buf, "\r\n") != nullptr ||
        std::strchr(buf, '\n') != nullptr) {
      break;
    }
  }
  if (have == 0) return;
  buf[have] = '\0';

  // Parse "METHOD SP path['?'query] SP version".
  std::string method;
  std::string path;
  std::string query;
  const char* p = buf;
  while (*p != '\0' && *p != ' ' && *p != '\r' && *p != '\n') {
    method.push_back(*p++);
  }
  while (*p == ' ') ++p;
  while (*p != '\0' && *p != ' ' && *p != '\r' && *p != '\n' && *p != '?') {
    path.push_back(*p++);
  }
  if (*p == '?') {
    ++p;
    while (*p != '\0' && *p != ' ' && *p != '\r' && *p != '\n') {
      query.push_back(*p++);
    }
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  obs::MetricsRegistry::Global().GetCounter("net.statusz.requests")
      .Increment();

  SendAll(client_fd, Render(Dispatch(method, path, query)));
}

}  // namespace net
}  // namespace nmine
