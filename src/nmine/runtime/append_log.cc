#include "nmine/runtime/append_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "nmine/obs/logger.h"

namespace nmine {
namespace runtime {
namespace {

/// fsync the file at `path` so the rename below publishes durable bytes.
bool SyncFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

/// Reads all of `path` into *bytes; a missing file reads as empty.
Status ReadWholeFile(const std::string& path, std::string* bytes) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::Ok();
    return Status::Unavailable("cannot open '" + path +
                               "': " + std::strerror(errno));
  }
  char chunk[64 * 1024];
  while (true) {
    ssize_t r = ::read(fd, chunk, sizeof(chunk));
    if (r == 0) break;
    if (r < 0) {
      if (errno == EINTR) continue;
      Status failed = Status::Unavailable("cannot read '" + path +
                                          "': " + std::strerror(errno));
      ::close(fd);
      return failed;
    }
    bytes->append(chunk, static_cast<size_t>(r));
  }
  ::close(fd);
  return Status::Ok();
}

}  // namespace

Status AtomicWriteFile(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Unavailable("cannot open temp file '" + tmp + "'");
    }
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out) {
      return Status::Unavailable("short write to temp file '" + tmp + "'");
    }
  }
  if (!SyncFile(tmp)) {
    return Status::Unavailable("cannot fsync temp file '" + tmp + "'");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::Unavailable("cannot rename '" + tmp + "' into place: " +
                               ec.message());
  }
  return Status::Ok();
}

void BestEffortRemoveFile(const std::string& path, const char* component) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  if (ec) {
    NMINE_LOG(kWarn, component)
        .Msg("could not remove file")
        .Str("path", path)
        .Str("error", ec.message());
  }
}

Status AppendLog::Open(const std::string& dir, const std::string& name,
                       const ReplayFn& replay, const CompactFn& compact,
                       std::unique_ptr<AppendLog>* out) {
  out->reset();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Unavailable("cannot create state dir '" + dir +
                               "': " + ec.message());
  }
  const std::string path = (std::filesystem::path(dir) / name).string();

  std::string bytes;
  Status read = ReadWholeFile(path, &bytes);
  if (!read.ok()) return read;
  size_t begin = 0;
  for (size_t nl; (nl = bytes.find('\n', begin)) != std::string::npos;
       begin = nl + 1) {
    replay(bytes.substr(begin, nl - begin));
  }

  Status written = AtomicWriteFile(path, compact());
  if (!written.ok()) return written;
  int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Unavailable("cannot open '" + path +
                               "' for append: " + std::strerror(errno));
  }
  out->reset(new AppendLog(path, fd));
  return Status::Ok();
}

AppendLog::~AppendLog() { ::close(fd_); }

Status AppendLog::Append(const std::string& line) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t done = 0;
  while (done < line.size()) {
    ssize_t w = ::write(fd_, line.data() + done, line.size() - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable("write to '" + path_ +
                                 "' failed: " + std::strerror(errno));
    }
    done += static_cast<size_t>(w);
  }
  if (::fsync(fd_) != 0) {
    return Status::Unavailable("fsync of '" + path_ +
                               "' failed: " + std::strerror(errno));
  }
  return Status::Ok();
}

}  // namespace runtime
}  // namespace nmine
