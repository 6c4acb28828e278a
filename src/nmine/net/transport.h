#ifndef NMINE_NET_TRANSPORT_H_
#define NMINE_NET_TRANSPORT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <thread>

#include "nmine/core/status.h"

namespace nmine {
namespace net {

/// The one TCP layer of nmine's services and clients: a listener with a
/// poll-driven accept loop (StatusServer, LineServer), a line-framed
/// request/response server (MiningServer, Coordinator), and the client
/// half — Dial, SendAll, and a bounded ReadLine (nmine_client, DistWorker).
///
/// Every socket read runs on a short receive tick, so no thread is ever
/// parked in a blocking call that a shutdown or a deadline cannot reach.

/// Writes all of `data` to `fd` (never raising SIGPIPE). False when the
/// peer is gone or the send fails.
bool SendAll(int fd, const std::string& data);

/// Dials `host:port` (an IPv4 literal) with TCP_NODELAY and a 200 ms
/// receive tick, the period on which ReadLine polls its stop check. On
/// success *fd owns the socket. InvalidArgument for a bad host,
/// Unavailable when the connection cannot be made.
Status Dial(const std::string& host, uint16_t port, int* fd);

/// Reads the next '\n'-terminated line from `fd` into *line (without the
/// newline). `*buffer` carries bytes across calls, so pipelined lines
/// come back one per call. `check`, when set, runs on every receive tick
/// and its first non-OK status ends the read. Unavailable when the peer
/// closes, recv fails, or the pending line outgrows `max_line_bytes` —
/// the buffer never grows past the cap by more than one receive chunk.
Status ReadLine(int fd, std::string* buffer, size_t max_line_bytes,
                const std::function<Status()>& check, std::string* line);

/// A listening IPv4 TCP socket served by one poll/accept loop on a thread
/// the listener owns and joins in Stop(), so a service never holds a scan
/// worker and a stopped listener leaves no thread behind. The listener is
/// non-blocking: a blocked accept() is not woken by close() on Linux, so
/// the loop polls with a short timeout and re-checks its stop flag.
class TcpListener {
 public:
  /// Receives each accepted socket on the accept worker and owns it.
  using AcceptFn = std::function<void(int fd)>;

  TcpListener() = default;
  ~TcpListener() { Stop(); }
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// socket, SO_REUSEADDR, bind, listen, non-blocking, getsockname (port
  /// 0 resolves to the ephemeral choice), then starts the accept loop.
  /// False with *error set when the socket cannot be set up or the
  /// listener is already started.
  bool Start(const std::string& bind_address, uint16_t port,
             AcceptFn on_accept, std::string* error);

  /// Stops the accept loop, joins its thread, and only then closes the
  /// listener, so the fd is never reused while the loop still polls it.
  /// Safe to call twice or without Start().
  void Stop();

  uint16_t port() const { return port_; }

 private:
  void AcceptLoop();

  AcceptFn on_accept_;
  int fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Line-framed request/response server. Every accepted connection gets
/// its own thread, which answers each request line (empty and "\r" lines
/// skipped) with `handler(line)`, in order. A line longer than
/// `max_line_bytes` gets `oversized_reply` and the connection is closed —
/// the protocol's typed refusal, never an unbounded buffer.
///
/// The accept loop joins every finished connection thread before it
/// starts the next, so threads (and their stacks) are bounded by the
/// connections open at once, not by the connections ever served.
/// Shutdown order for an owner: raise its own stop flag and wake any
/// handler blocked on it, then Stop() — which stops accepting, closes the
/// listener, and joins every connection (each exits within one receive
/// tick after its handler returns).
class LineServer {
 public:
  using LineHandler = std::function<std::string(const std::string& line)>;

  struct Options {
    std::string bind_address = "127.0.0.1";
    /// 0 picks an ephemeral port (see port()).
    uint16_t port = 0;
    size_t max_line_bytes = 1u << 20;
    std::string oversized_reply;
  };

  LineServer() = default;
  ~LineServer() { Stop(); }
  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  bool Start(const Options& options, LineHandler handler, std::string* error);
  void Stop();

  uint16_t port() const { return listener_.port(); }

 private:
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void Accept(int fd);
  void Serve(int fd);
  /// Joins finished connections (every connection when `all`). Runs on
  /// the accept loop, or in Stop() once that loop has exited, so
  /// connections_ needs no lock.
  void Reap(bool all);

  Options options_;
  LineHandler handler_;
  std::atomic<bool> stop_{false};
  /// A list: running threads hold references to their own entries.
  std::list<Connection> connections_;
  TcpListener listener_;
};

}  // namespace net
}  // namespace nmine

#endif  // NMINE_NET_TRANSPORT_H_
