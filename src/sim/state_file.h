// Durable state files: checksummed record containers on disk.
//
// Every byte string the tree persists — CLI --save-state snapshots, the
// serve daemon's session spool records — travels in one container format:
//
//   offset  0  u32  record magic 0x524C5345 ("ESLR")
//   offset  4  u32  container version (1)
//   offset  8  u64  payload length in bytes
//   offset 16  u32  CRC-32 of the payload
//   offset 20  payload bytes
//
// Writes are atomic and durable: payload -> temp file in the same directory
// -> fsync -> rename -> fsync(directory), so a crash at any instant leaves
// either the old file, the new file, or a doomed ".tmp" — never a torn
// record under the real name. Reads validate magic, declared length against
// the file size (truncation) and the CRC (bit-rot) before the payload is
// handed to any deserializer, and throw a clean EslError naming the damage.
//
// readSnapshotFile() additionally sniffs pre-container files: a file that
// starts with the raw SimContext snapshot magic (what --save-state wrote
// before the container existed) still loads, un-checksummed, so old
// snapshots keep working.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace esl::sim {

inline constexpr std::uint32_t kRecordMagic = 0x524C5345u;  // "ESLR"
inline constexpr std::uint32_t kRecordVersion = 1;
inline constexpr std::size_t kRecordHeaderBytes = 20;

/// Writes all `n` bytes at `data` to `fd` (retrying short writes and EINTR),
/// fsyncs and closes it; throws EslError naming `path`, with `fd` closed.
void writeSyncedAndClose(int fd, const void* data, std::size_t n,
                         const std::string& path);

/// Writes `bytes` to `path` atomically: same-directory temp file, fsync,
/// rename over the target, fsync of the directory so the rename itself is
/// durable. POSIX fds, not fstream — fstream cannot fsync.
void writeFileAtomic(const std::string& path,
                     const std::vector<std::uint8_t>& bytes);

/// Wraps `payload` in the checksummed container and writes it atomically
/// (temp + fsync + rename). `faultPoint` names the fault-injection point the
/// write reports to (fail-Nth / truncate / bit-flip plans hit the container
/// bytes as they reach the disk). Throws EslError when the file cannot be
/// written.
void writeRecordFile(const std::string& path,
                     const std::vector<std::uint8_t>& payload,
                     const std::string& faultPoint = "state-file-write");

/// Reads a container file and returns the verified payload; throws EslError
/// (citing `path`) on a missing file, foreign magic, unsupported version,
/// truncation or checksum mismatch. Never returns unverified bytes.
std::vector<std::uint8_t> readRecordFile(const std::string& path);

/// Validates that `bytes` begins with the SimContext snapshot header (magic +
/// supported version); throws EslError naming the mismatch otherwise.
void checkSnapshotHeader(const std::vector<std::uint8_t>& bytes,
                         const std::string& origin);

/// Reads `path` whole with no validation (legacy-format sniffing only).
std::vector<std::uint8_t> readFileBytes(const std::string& path);

/// Reads a snapshot file and validates it: container files are CRC-checked
/// and unwrapped, pre-container files (raw packState bytes) are sniffed by
/// their snapshot magic and accepted as-is. The snapshot header of the
/// resulting payload is validated either way.
std::vector<std::uint8_t> readSnapshotFile(const std::string& path);

}  // namespace esl::sim
