// The shared line transport: pipelining, both protocols' request caps,
// the bounded client read, stop checks, and shutdown of live
// connections. Reaping finished connection threads is pinned end to end
// by MiningServerTest.FinishedConnectionsReleaseTheirThreads.
#include "nmine/net/transport.h"

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "nmine/dist/wire.h"
#include "nmine/serve/protocol.h"

namespace nmine {
namespace net {
namespace {

/// Echo server: answers each request line with "echo:<line>\n".
class EchoServer {
 public:
  explicit EchoServer(size_t max_line_bytes = 1u << 20,
                      std::string oversized_reply = "too long\n") {
    LineServer::Options options;
    options.max_line_bytes = max_line_bytes;
    options.oversized_reply = std::move(oversized_reply);
    std::string error;
    started_ = server_.Start(
        options,
        [](const std::string& line) { return "echo:" + line + "\n"; },
        &error);
    EXPECT_TRUE(started_) << error;
  }

  LineServer& server() { return server_; }
  uint16_t port() const { return server_.port(); }

 private:
  LineServer server_;
  bool started_ = false;
};

/// A client socket on the server, closed at scope exit.
class Client {
 public:
  explicit Client(uint16_t port) {
    EXPECT_TRUE(Dial("127.0.0.1", port, &fd_).ok());
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  int fd() const { return fd_; }

  Status Read(size_t max_line_bytes, std::string* line) {
    return ReadLine(fd_, &buffer_, max_line_bytes, nullptr, line);
  }

  const std::string& buffer() const { return buffer_; }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// True once the peer has closed: recv reports EOF (or a reset) before
/// `timeout_ms` passes.
bool PeerClosed(int fd, int timeout_ms = 2000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  char byte;
  while (std::chrono::steady_clock::now() < deadline) {
    ssize_t r = ::recv(fd, &byte, 1, 0);
    if (r == 0) return true;
    if (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return true;
    }
  }
  return false;
}

TEST(LineTransportTest, PipelinedLinesInOneSegmentAreEachAnswered) {
  EchoServer echo;
  Client client(echo.port());
  // One send, five lines: the empty and "\r" lines are skipped, the rest
  // are answered in order on the same connection.
  ASSERT_TRUE(SendAll(client.fd(), "alpha\nbeta\n\n\r\ngamma\n"));
  for (const char* want : {"echo:alpha", "echo:beta", "echo:gamma"}) {
    std::string line;
    ASSERT_TRUE(client.Read(1024, &line).ok());
    EXPECT_EQ(line, want);
  }
  // A line split across two sends is answered once, whole.
  ASSERT_TRUE(SendAll(client.fd(), "del"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(SendAll(client.fd(), "ta\n"));
  std::string line;
  ASSERT_TRUE(client.Read(1024, &line).ok());
  EXPECT_EQ(line, "echo:delta");
}

TEST(LineTransportTest, ReadLineHandsBackPipelinedRepliesOnePerCall) {
  // Two reply lines in one segment: the second stays buffered for the
  // next call instead of being dropped with the first.
  EchoServer echo;
  Client client(echo.port());
  ASSERT_TRUE(SendAll(client.fd(), "one\ntwo\n"));
  std::string first;
  std::string second;
  ASSERT_TRUE(client.Read(1024, &first).ok());
  ASSERT_TRUE(client.Read(1024, &second).ok());
  EXPECT_EQ(first, "echo:one");
  EXPECT_EQ(second, "echo:two");
  EXPECT_TRUE(client.buffer().empty());
}

/// Each protocol's request cap: a line of exactly the cap is served; one
/// byte more gets the protocol's typed refusal, then a close.
void ExpectCapEnforced(size_t cap, const std::string& refusal) {
  EchoServer echo(cap, refusal);
  {
    Client client(echo.port());
    ASSERT_TRUE(SendAll(client.fd(), std::string(cap, 'a') + "\n"));
    std::string line;
    ASSERT_TRUE(client.Read(cap + 16, &line).ok());
    EXPECT_EQ(line.size(), cap + 5);  // "echo:" + the line
  }
  // Over the cap with no newline in sight: refused before the line ends.
  {
    Client client(echo.port());
    ASSERT_TRUE(SendAll(client.fd(), std::string(cap + 1, 'b')));
    std::string line;
    ASSERT_TRUE(client.Read(1024, &line).ok());
    EXPECT_EQ(line + "\n", refusal);
    EXPECT_TRUE(PeerClosed(client.fd()));
  }
  // Over the cap but newline-terminated in the same segment: also refused.
  {
    Client client(echo.port());
    ASSERT_TRUE(SendAll(client.fd(), std::string(cap + 1, 'c') + "\n"));
    std::string line;
    ASSERT_TRUE(client.Read(1024, &line).ok());
    EXPECT_EQ(line + "\n", refusal);
    EXPECT_TRUE(PeerClosed(client.fd()));
  }
  // The refusals cost their connections, not the server.
  Client client(echo.port());
  ASSERT_TRUE(SendAll(client.fd(), "ping\n"));
  std::string line;
  ASSERT_TRUE(client.Read(1024, &line).ok());
  EXPECT_EQ(line, "echo:ping");
}

TEST(LineTransportTest, ServeRequestCapRefusesTyped) {
  ExpectCapEnforced(serve::kMaxRequestLineBytes,
                    serve::ErrorResponse("INVALID_ARGUMENT",
                                         "request line exceeds 1 MiB"));
}

TEST(LineTransportTest, DistFrameCapRefusesTyped) {
  ExpectCapEnforced(dist::kMaxFrameBytes,
                    serve::ErrorResponse("INVALID_ARGUMENT",
                                         "request line exceeds 8 MiB"));
}

TEST(LineTransportTest, OversizedResponseFailsTheReadInsteadOfGrowing) {
  // The server answers with a reply one byte over the client's cap (the
  // dist-sized cap nmine_client reads with).
  const size_t cap = dist::kMaxFrameBytes;
  LineServer server;
  std::string error;
  ASSERT_TRUE(server.Start(
      LineServer::Options(),
      [cap](const std::string&) { return std::string(cap + 1, 'z') + "\n"; },
      &error))
      << error;
  Client client(server.port());
  ASSERT_TRUE(SendAll(client.fd(), "flood me\n"));
  std::string line;
  Status s = client.Read(cap, &line);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
  EXPECT_NE(s.message().find("exceeds"), std::string::npos) << s.message();
  EXPECT_TRUE(line.empty());
  // Bounded: at most one receive chunk past the cap was ever buffered.
  EXPECT_LE(client.buffer().size(), cap + (64u << 10));
  server.Stop();
}

TEST(LineTransportTest, ReadLineStopsOnItsCheck) {
  // A silent server: the read ends on the check's status within a tick
  // or two, never parked in recv.
  EchoServer echo;
  Client client(echo.port());
  std::string buffer;
  std::string line;
  int ticks = 0;
  Status s = ReadLine(client.fd(), &buffer, 1024,
                      [&ticks] {
                        return ++ticks < 3 ? Status::Ok()
                                           : Status::Cancelled("stop");
                      },
                      &line);
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_EQ(ticks, 3);
}

TEST(LineTransportTest, DialFailuresAreTyped) {
  int fd = -1;
  EXPECT_EQ(Dial("not-a-host", 1, &fd).code(),
            StatusCode::kInvalidArgument);
  // A port nothing listens on: the listener is stopped, its port closed.
  uint16_t port = 0;
  {
    EchoServer echo;
    port = echo.port();
    echo.server().Stop();
  }
  EXPECT_EQ(Dial("127.0.0.1", port, &fd).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(fd, -1);
}

TEST(LineTransportTest, StopWaitsOutLiveConnections) {
  // A handler that is mid-request when Stop() begins finishes and answers
  // before Stop() returns; an idle connection is closed.
  std::atomic<bool> answered{false};
  LineServer server;
  std::string error;
  ASSERT_TRUE(server.Start(
      LineServer::Options(),
      [&answered](const std::string& line) {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        answered.store(true);
        return line + "\n";
      },
      &error))
      << error;
  Client idle(server.port());
  Client busy(server.port());
  ASSERT_TRUE(SendAll(busy.fd(), "slow\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.Stop();
  EXPECT_TRUE(answered.load());
  std::string line;
  ASSERT_TRUE(busy.Read(1024, &line).ok());
  EXPECT_EQ(line, "slow");
  EXPECT_TRUE(PeerClosed(idle.fd()));
  server.Stop();  // idempotent
}

}  // namespace
}  // namespace net
}  // namespace nmine
