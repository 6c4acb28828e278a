#include "nmine/net/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>
#include <thread>

#include "nmine/exec/thread_pool.h"

namespace nmine {
namespace net {
namespace {

/// recv() granularity of both line readers.
constexpr size_t kChunkBytes = 16 * 1024;

/// Receive tick of server-side connections: the period on which a
/// connection thread re-checks the stop flag.
constexpr int kServerTickMs = 100;

/// Receive tick of dialed connections: the period on which a client's
/// ReadLine re-checks its run control or deadline.
constexpr int kClientTickMs = 200;

void SetReceiveTick(int fd, int tick_ms) {
  timeval timeout;
  timeout.tv_sec = tick_ms / 1000;
  timeout.tv_usec = (tick_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
}

bool IsTick(int err) {
  return err == EAGAIN || err == EWOULDBLOCK || err == EINTR;
}

std::string Errno(const std::string& call) {
  return call + ": " + std::strerror(errno);
}

}  // namespace

bool SendAll(int fd, const std::string& data) {
  size_t done = 0;
  while (done < data.size()) {
    ssize_t w =
        ::send(fd, data.data() + done, data.size() - done, MSG_NOSIGNAL);
    if (w <= 0) return false;
    done += static_cast<size_t>(w);
  }
  return true;
}

Status Dial(const std::string& host, uint16_t port, int* fd) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host '" + host + "'");
  }
  int s = ::socket(AF_INET, SOCK_STREAM, 0);
  if (s < 0) return Status::Unavailable(Errno("socket()"));
  if (::connect(s, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status failed = Status::Unavailable(
        Errno("connect(" + host + ":" + std::to_string(port) + ")"));
    ::close(s);
    return failed;
  }
  SetReceiveTick(s, kClientTickMs);
  int one = 1;
  ::setsockopt(s, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  *fd = s;
  return Status::Ok();
}

Status ReadLine(int fd, std::string* buffer, size_t max_line_bytes,
                const std::function<Status()>& check, std::string* line) {
  char chunk[kChunkBytes];
  size_t scan_from = 0;
  while (true) {
    const size_t nl = buffer->find('\n', scan_from);
    const size_t pending = nl == std::string::npos ? buffer->size() : nl;
    if (pending > max_line_bytes) {
      return Status::Unavailable("line exceeds " +
                                 std::to_string(max_line_bytes) + " bytes");
    }
    if (nl != std::string::npos) {
      line->assign(*buffer, 0, nl);
      buffer->erase(0, nl + 1);
      return Status::Ok();
    }
    scan_from = buffer->size();
    if (check) {
      Status s = check();
      if (!s.ok()) return s;
    }
    ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
    if (r == 0) return Status::Unavailable("peer closed the connection");
    if (r < 0) {
      if (IsTick(errno)) continue;
      return Status::Unavailable(Errno("recv()"));
    }
    buffer->append(chunk, static_cast<size_t>(r));
  }
}

bool TcpListener::Start(const std::string& bind_address, uint16_t port,
                        AcceptFn on_accept, std::string* error) {
  auto fail = [&](const std::string& message, int fd) {
    if (error != nullptr) *error = message;
    if (fd >= 0) ::close(fd);
    return false;
  };
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail(Errno("socket()"), -1);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1) {
    return fail("bad bind address '" + bind_address + "'", fd);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail(
        Errno("bind(" + bind_address + ":" + std::to_string(port) + ")"), fd);
  }
  if (::listen(fd, /*backlog=*/64) != 0) return fail(Errno("listen()"), fd);
  int fd_flags = ::fcntl(fd, F_GETFL, 0);
  if (fd_flags >= 0) ::fcntl(fd, F_SETFL, fd_flags | O_NONBLOCK);
  socklen_t len = sizeof(addr);
  port_ = ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0
              ? ntohs(addr.sin_port)
              : port;

  fd_ = fd;
  on_accept_ = std::move(on_accept);
  stop_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(done_mutex_);
    loop_done_ = false;
  }
  // The accept loop parks one pool worker for the listener's lifetime;
  // reserve it so every later EnsureWorkers(n) still yields n workers
  // free for scan shards.
  exec::ThreadPool& pool = exec::ThreadPool::Shared();
  pool.ReserveWorker();
  pool.Submit([this] { AcceptLoop(); });
  return true;
}

void TcpListener::Stop() {
  if (fd_ < 0) return;
  stop_.store(true, std::memory_order_release);
  {
    std::unique_lock<std::mutex> lock(done_mutex_);
    done_cv_.wait(lock, [this] { return loop_done_; });
  }
  ::close(fd_);
  fd_ = -1;
}

void TcpListener::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int ready = ::poll(&pfd, 1, /*timeout_ms=*/kServerTickMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // listener gone; nothing to serve anymore
    }
    if (ready == 0) continue;  // timeout: re-check the stop flag
    int client = ::accept(fd_, nullptr, nullptr);
    if (client < 0) {
      if (IsTick(errno) || errno == ECONNABORTED) continue;
      break;
    }
    on_accept_(client);
  }
  std::lock_guard<std::mutex> lock(done_mutex_);
  loop_done_ = true;
  // Notify while holding the lock: Stop()'s waiter cannot observe
  // loop_done_ and let the listener be destroyed until the lock drops,
  // so the condition variable is never destroyed mid-notify.
  done_cv_.notify_all();
}

bool LineServer::Start(const Options& options, LineHandler handler,
                       std::string* error) {
  options_ = options;
  handler_ = std::move(handler);
  stop_.store(false, std::memory_order_release);
  return listener_.Start(options_.bind_address, options_.port,
                         [this](int fd) { Accept(fd); }, error);
}

void LineServer::Stop() {
  stop_.store(true, std::memory_order_release);
  listener_.Stop();
  Reap(/*all=*/true);
}

void LineServer::Accept(int fd) {
  Reap(/*all=*/false);
  Connection& connection = connections_.emplace_back();
  try {
    connection.thread = std::thread([this, fd, &connection] {
      Serve(fd);
      connection.done.store(true, std::memory_order_release);
    });
  } catch (const std::system_error&) {
    // Out of threads: refuse this connection, keep serving the others.
    ::close(fd);
    connections_.pop_back();
  }
}

void LineServer::Reap(bool all) {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (all || it->done.load(std::memory_order_acquire)) {
      it->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void LineServer::Serve(int fd) {
  SetReceiveTick(fd, kServerTickMs);
  std::string buffer;
  size_t scan_from = 0;
  char chunk[kChunkBytes];
  bool oversized = false;
  while (!oversized && !stop_.load(std::memory_order_acquire)) {
    ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
    if (r == 0) break;  // peer closed
    if (r < 0) {
      if (IsTick(errno)) continue;
      break;
    }
    buffer.append(chunk, static_cast<size_t>(r));
    size_t begin = 0;
    size_t nl;
    while ((nl = buffer.find('\n', scan_from)) != std::string::npos) {
      if (nl - begin > options_.max_line_bytes) break;
      std::string line = buffer.substr(begin, nl - begin);
      begin = scan_from = nl + 1;
      if (line.empty() || line == "\r") continue;
      SendAll(fd, handler_(line));
    }
    buffer.erase(0, begin);
    scan_from = buffer.size();
    oversized = nl != std::string::npos ||
                buffer.size() > options_.max_line_bytes;
    if (oversized) SendAll(fd, options_.oversized_reply);
  }
  ::close(fd);
}

}  // namespace net
}  // namespace nmine
