// Durable state files: atomic whole-file writes and reads.
//
// The bytes are already framed when they get here — packState() snapshots
// and serve session records are checksummed containers (elastic/state_io.h)
// that travel unchanged between memory, the wire and the disk; whoever
// decodes them verifies them. What this module adds is durability: payload ->
// temp file in the same directory -> fsync -> rename -> fsync(directory), so
// a crash at any instant leaves either the old file, the new file, or a
// doomed ".tmp" — never a torn file under the real name.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace esl::sim {

/// Writes `bytes` to `path` atomically and durably, as above (POSIX fds:
/// fstream cannot fsync). A non-empty `faultPoint` names the fault-injection
/// point the bytes pass on their way to disk (base/fault_inject.h). Throws
/// EslError when the file cannot be written.
void writeFileAtomic(const std::string& path, std::vector<std::uint8_t> bytes,
                     const std::string& faultPoint = {});

/// fsyncs directory `dir`, making the renames and unlinks in it durable. Best
/// effort on filesystems that refuse O_DIRECTORY fsync.
void syncDirectory(const std::string& dir);

/// Reads `path` whole; throws EslError when it cannot be read.
std::vector<std::uint8_t> readFileBytes(const std::string& path);

}  // namespace esl::sim
