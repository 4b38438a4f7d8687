#include "sim/state_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "base/crc32.h"
#include "base/error.h"
#include "base/fault_inject.h"
#include "elastic/context.h"

namespace esl::sim {

namespace {

std::uint32_t leU32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t leU64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(leU32(p)) |
         (static_cast<std::uint64_t>(leU32(p + 4)) << 32);
}

void putU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void putU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

}  // namespace

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

void writeFileAtomic(const std::string& path,
                     const std::vector<std::uint8_t>& bytes) {
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
  // Make the rename durable: fsync the containing directory. Best effort on
  // filesystems that refuse O_DIRECTORY fsync.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

void writeRecordFile(const std::string& path,
                     const std::vector<std::uint8_t>& payload,
                     const std::string& faultPoint) {
  std::vector<std::uint8_t> record;
  record.reserve(kRecordHeaderBytes + payload.size());
  putU32(record, kRecordMagic);
  putU32(record, kRecordVersion);
  putU64(record, payload.size());
  putU32(record, crc32(payload.data(), payload.size()));
  record.insert(record.end(), payload.begin(), payload.end());
  // Injected faults mutate (truncate/bit-flip) or veto (fail/exit) the bytes
  // as they head to disk — the deterministic stand-in for torn writes,
  // bit-rot, ENOSPC and SIGKILL mid-write.
  fault::hitData(faultPoint, record);
  writeFileAtomic(path, record);
}

std::vector<std::uint8_t> readRecordFile(const std::string& path) {
  const std::vector<std::uint8_t> record = readFileBytes(path);
  ESL_CHECK(record.size() >= kRecordHeaderBytes,
            "'" + path + "': truncated record (shorter than the header)");
  ESL_CHECK(leU32(record.data()) == kRecordMagic,
            "'" + path + "': not an esl record file (bad magic)");
  const std::uint32_t version = leU32(record.data() + 4);
  ESL_CHECK(version == kRecordVersion,
            "'" + path + "': unsupported record version " + std::to_string(version));
  const std::uint64_t length = leU64(record.data() + 8);
  ESL_CHECK(length == record.size() - kRecordHeaderBytes,
            "'" + path + "': truncated record (header declares " +
                std::to_string(length) + " payload bytes, file carries " +
                std::to_string(record.size() - kRecordHeaderBytes) + ")");
  const std::uint32_t want = leU32(record.data() + 16);
  const std::uint32_t got =
      crc32(record.data() + kRecordHeaderBytes, static_cast<std::size_t>(length));
  ESL_CHECK(got == want, "'" + path + "': checksum mismatch (corrupt record)");
  return std::vector<std::uint8_t>(record.begin() + kRecordHeaderBytes,
                                   record.end());
}

void checkSnapshotHeader(const std::vector<std::uint8_t>& bytes,
                         const std::string& origin) {
  ESL_CHECK(bytes.size() >= 16,
            origin + ": not an esl snapshot (file shorter than the header)");
  const std::uint32_t magic = leU32(bytes.data());
  ESL_CHECK(magic == SimContext::kSnapshotMagic,
            origin + ": not an esl snapshot (bad magic)");
  const std::uint32_t version = leU32(bytes.data() + 4);
  ESL_CHECK(version == SimContext::kSnapshotVersion,
            origin + ": unsupported snapshot version " + std::to_string(version) +
                " (this build reads version " +
                std::to_string(SimContext::kSnapshotVersion) + ")");
}

std::vector<std::uint8_t> readFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  ESL_CHECK(static_cast<bool>(in), "cannot read '" + path + "'");
  return std::vector<std::uint8_t>{std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>()};
}

std::vector<std::uint8_t> readSnapshotFile(const std::string& path) {
  std::vector<std::uint8_t> bytes = readFileBytes(path);
  // Container files are verified and unwrapped; files that open directly with
  // the snapshot magic are pre-container --save-state output and load as-is.
  if (bytes.size() >= 4 && leU32(bytes.data()) == kRecordMagic)
    bytes = readRecordFile(path);
  checkSnapshotHeader(bytes, path);
  return bytes;
}

}  // namespace esl::sim
