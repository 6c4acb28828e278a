#include "test_util.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>

#include "nmine/core/match.h"

namespace nmine {
namespace testutil {

CompatibilityMatrix Figure2Matrix() {
  return CompatibilityMatrix({
      {0.90, 0.10, 0.00, 0.00, 0.00},  // d1
      {0.05, 0.80, 0.05, 0.10, 0.00},  // d2
      {0.05, 0.00, 0.70, 0.15, 0.10},  // d3
      {0.00, 0.10, 0.10, 0.75, 0.05},  // d4
      {0.00, 0.00, 0.15, 0.00, 0.85},  // d5
  });
}

InMemorySequenceDatabase Figure4Database() {
  return InMemorySequenceDatabase::FromSequences({
      {0, 1, 2, 0},  // d1 d2 d3 d1
      {3, 1, 0},     // d4 d2 d1
      {2, 3, 1, 0},  // d3 d4 d2 d1
      {1, 1},        // d2 d2
  });
}

Pattern P(std::vector<int> ids) {
  std::vector<SymbolId> body;
  body.reserve(ids.size());
  for (int id : ids) {
    body.push_back(id < 0 ? kWildcard : static_cast<SymbolId>(id));
  }
  return Pattern(std::move(body));
}

std::vector<Pattern> EnumeratePatterns(size_t m,
                                       const PatternSpaceOptions& opts) {
  std::vector<Pattern> out;
  std::vector<SymbolId> body;
  std::function<void()> grow = [&]() {
    if (!body.empty() && !IsWildcard(body.back())) {
      out.push_back(Pattern(body));
    }
    if (body.size() >= opts.max_span) return;
    for (size_t d = 0; d < m; ++d) {
      body.push_back(static_cast<SymbolId>(d));
      grow();
      body.pop_back();
    }
    if (!body.empty()) {
      size_t run = 0;
      for (auto it = body.rbegin(); it != body.rend() && IsWildcard(*it);
           ++it) {
        ++run;
      }
      if (run < opts.max_gap) {
        body.push_back(kWildcard);
        grow();
        body.pop_back();
      }
    }
  };
  grow();
  return out;
}

std::vector<double> NaiveMatches(const std::vector<SequenceRecord>& records,
                                 const CompatibilityMatrix& c,
                                 const std::vector<Pattern>& patterns) {
  std::vector<double> out(patterns.size(), 0.0);
  for (size_t i = 0; i < patterns.size(); ++i) {
    for (const SequenceRecord& r : records) {
      out[i] += SequenceMatch(c, patterns[i], r.symbols);
    }
    if (!records.empty()) {
      out[i] /= static_cast<double>(records.size());
    }
  }
  return out;
}

std::vector<double> NaiveSupports(const std::vector<SequenceRecord>& records,
                                  const std::vector<Pattern>& patterns) {
  std::vector<double> out(patterns.size(), 0.0);
  for (size_t i = 0; i < patterns.size(); ++i) {
    for (const SequenceRecord& r : records) {
      out[i] += SequenceSupport(patterns[i], r.symbols);
    }
    if (!records.empty()) {
      out[i] /= static_cast<double>(records.size());
    }
  }
  return out;
}

int SettledThreadCount(int target) {
  int count = ProcessThreadCount();
  for (int i = 0; i < 2000 && count > target; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    count = ProcessThreadCount();
  }
  return count;
}

std::vector<SimdLevel> RunnableKernels() {
  std::vector<SimdLevel> levels;
  const CpuFeatures host = DetectCpuFeatures();
  for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2,
                          SimdLevel::kAvx512, SimdLevel::kNeon}) {
    if (!KernelCompiled(level)) continue;
    if (level == SimdLevel::kAvx2 && !host.avx2) continue;
    if (level == SimdLevel::kAvx512 && !host.avx512) continue;
    if (level == SimdLevel::kNeon && !host.neon) continue;
    levels.push_back(level);
  }
  return levels;
}

int ProcessThreadCount() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

std::optional<HttpResult> HttpGet(uint16_t port, const std::string& path,
                                  const std::string& method) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  const std::string request =
      method + " " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  size_t done = 0;
  while (done < request.size()) {
    ssize_t w = ::send(fd, request.data() + done, request.size() - done, 0);
    if (w <= 0) {
      ::close(fd);
      return std::nullopt;
    }
    done += static_cast<size_t>(w);
  }
  std::string raw;
  char buf[4096];
  ssize_t r;
  while ((r = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    raw.append(buf, static_cast<size_t>(r));
  }
  ::close(fd);

  HttpResult result;
  size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) return std::nullopt;
  const std::string headers = raw.substr(0, header_end);
  result.body = raw.substr(header_end + 4);
  if (std::sscanf(headers.c_str(), "HTTP/1.0 %d", &result.status) != 1) {
    return std::nullopt;
  }
  size_t ct = headers.find("Content-Type: ");
  if (ct != std::string::npos) {
    size_t eol = headers.find("\r\n", ct);
    result.content_type = headers.substr(ct + 14, eol - ct - 14);
  }
  return result;
}

}  // namespace testutil
}  // namespace nmine
