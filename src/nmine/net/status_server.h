#ifndef NMINE_NET_STATUS_SERVER_H_
#define NMINE_NET_STATUS_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "nmine/net/transport.h"

namespace nmine {
namespace net {

/// Minimal read-only embedded HTTP/1.0 status server — the live
/// introspection surface of a mining run, and the first brick of the
/// nmine_server daemon's socket layer.
///
/// Endpoints (GET only):
///   /healthz   {"status": "ok"|"degraded", ...} — liveness + load-shedding
///              probe: still HTTP 200 when degraded, but the body flips to
///              "degraded" (with machine-readable reasons) when the
///              ResourceGovernor ladder is engaged, scan retries climbed
///              since the previous /healthz poll, or the run's retry
///              budget ran out — so a load balancer can drain the instance
///              before it fails
///   /statusz   runtime::RunStatusBoard::StatusJson(): current phase,
///              progress counters, deadline remaining, governor ladder
///              state, checkpoint age
///   /metricsz  OpenMetrics text rendering of the metrics registry
///   /profilez  obs::Profiler::Global().SnapshotJson()
///   /flightz   obs::FlightRecorder::Global().SnapshotJson()
///
/// Subsystems can add process-wide endpoints with RegisterEndpoint (the
/// serving layer registers /jobsz this way); registered paths are served
/// by every StatusServer in the process.
///
/// The listener and its poll-driven accept loop are a net::TcpListener,
/// which runs on a worker the shared exec::ThreadPool reserves for it, so
/// the server never steals a scan worker from the miners. Each request is
/// tiny, one-shot, and handled inline on that worker; the server only
/// ever reads process state, so it needs no coordination with the run it
/// is observing.
class StatusServer {
 public:
  struct Options {
    /// TCP port to listen on; 0 picks an ephemeral port (see port()).
    uint16_t port = 0;
    /// Loopback by default: this is an introspection port, not a public
    /// API; expose it deliberately.
    std::string bind_address = "127.0.0.1";
  };

  StatusServer() = default;
  ~StatusServer();
  StatusServer(const StatusServer&) = delete;
  StatusServer& operator=(const StatusServer&) = delete;

  /// Binds, listens, and submits the accept loop to the shared thread
  /// pool. False with *error set when the socket cannot be set up.
  bool Start(const Options& options, std::string* error);

  /// Stops the accept loop, waits for it, and closes the listener. Safe to
  /// call twice or without Start().
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The port actually bound (resolves port 0 to the ephemeral choice).
  uint16_t port() const { return listener_.port(); }

  /// Requests served since Start (any endpoint, including 404s).
  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

  /// Registers (or replaces) a process-wide GET endpoint, e.g. "/jobsz".
  /// `handler` returns the JSON body; it is invoked on the server's accept
  /// worker and must be safe to call from any thread at any time.
  /// Registrations are permanent (like metrics registry entries).
  static void RegisterEndpoint(const std::string& path,
                               std::function<std::string()> handler);

  /// Like RegisterEndpoint, but the handler receives the raw query string
  /// (the text after '?', without it; empty when absent), e.g.
  /// GET /tracez?id=abc -> handler("id=abc"). Registering the same path
  /// via either overload replaces the previous handler.
  static void RegisterQueryEndpoint(
      const std::string& path,
      std::function<std::string(const std::string& query)> handler);

  /// Registers a process-wide /healthz contributor. On every /healthz
  /// render the contributor may push degradation reason strings into
  /// `reasons` and may return one extra JSON object member (e.g.
  /// "\"queue\": {...}" — no leading comma, or empty for none) spliced
  /// into the body. Keyed by `name`; re-registering replaces.
  static void RegisterHealthSignal(
      const std::string& name,
      std::function<std::string(std::vector<std::string>* reasons)>
          contributor);

  /// Computes the /healthz body — {"status": "ok"|"degraded", "uptime_s":
  /// ..., "reasons": [...]} — and updates the poll-over-poll retry
  /// baseline. Exposed for the CLI-free health test and the serving
  /// layer's drain decision.
  static std::string HealthzBody();

 private:
  void HandleConnection(int client_fd);

  TcpListener listener_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> requests_{0};
};

}  // namespace net
}  // namespace nmine

#endif  // NMINE_NET_STATUS_SERVER_H_
