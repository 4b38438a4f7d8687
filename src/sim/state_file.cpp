#include "sim/state_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "base/error.h"
#include "base/fault_inject.h"

namespace esl::sim {

namespace {

/// Writes all `n` bytes at `data` to `fd` (retrying short writes and EINTR),
/// fsyncs and closes it; throws EslError naming `path`, with `fd` closed.
void writeSyncedAndClose(int fd, const void* data, std::size_t n,
                         const std::string& path) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      const std::string why = std::strerror(errno);
      ::close(fd);
      throw EslError("write to '" + path + "' failed: " + why);
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  if (::fsync(fd) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw EslError("cannot sync '" + path + "': " + why);
  }
  if (::close(fd) != 0) {
    const std::string why = std::strerror(errno);
    throw EslError("cannot sync '" + path + "': " + why);
  }
}

}  // namespace

void writeFileAtomic(const std::string& path, std::vector<std::uint8_t> bytes,
                     const std::string& faultPoint) {
  // Injected faults mutate (truncate/bit-flip) or veto (fail/exit) the bytes
  // as they head to disk — the deterministic stand-in for torn writes,
  // bit-rot, ENOSPC and SIGKILL mid-write.
  if (!faultPoint.empty()) fault::hitData(faultPoint, bytes);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
  ESL_CHECK(fd >= 0, "cannot write '" + tmp + "': " + std::strerror(errno));
  try {
    writeSyncedAndClose(fd, bytes.data(), bytes.size(), tmp);
  } catch (const EslError&) {
    std::remove(tmp.c_str());
    throw;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string why = std::strerror(errno);
    std::remove(tmp.c_str());
    throw EslError("cannot rename '" + tmp + "' to '" + path + "': " + why);
  }
  // Make the rename durable.
  const std::size_t slash = path.find_last_of('/');
  syncDirectory(slash == std::string::npos ? "." : path.substr(0, slash));
}

void syncDirectory(const std::string& dir) {
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

std::vector<std::uint8_t> readFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  ESL_CHECK(static_cast<bool>(in), "cannot read '" + path + "'");
  return std::vector<std::uint8_t>{std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>()};
}

}  // namespace esl::sim
