#include "elastic/state_io.h"

#include "base/crc32.h"

namespace esl {

namespace {

std::string kindName(std::uint32_t kind) {
  if (kind == static_cast<std::uint32_t>(StateKind::kSnapshot)) return "snapshot";
  if (kind == static_cast<std::uint32_t>(StateKind::kSession)) return "session record";
  return "state of unknown kind " + std::to_string(kind);
}

}  // namespace

StateWriter::StateWriter(StateKind kind) {
  writeU32(kStateMagic);
  writeU32(kStateVersion);
  writeU32(static_cast<std::uint32_t>(kind));
  writeU64(0);  // payload length and CRC: filled in by seal()
  writeU32(0);
}

std::vector<std::uint8_t> StateWriter::seal() {
  const std::size_t n = bytes_.size() - kStateHeaderBytes;
  putAt(12, n, 8);
  putAt(20, crc32(bytes_.data() + kStateHeaderBytes, n), 4);
  return take();
}

StateReader StateReader::open(const std::vector<std::uint8_t>& bytes, StateKind kind,
                              const std::string& origin) {
  ESL_CHECK(bytes.size() >= kStateHeaderBytes,
            origin + ": truncated (shorter than the " +
                std::to_string(kStateHeaderBytes) + "-byte state header)");
  StateReader r(bytes);
  ESL_CHECK(r.readU32() == kStateMagic, origin + ": not an esl state file (bad magic)");
  const std::uint32_t version = r.readU32();
  ESL_CHECK(version == kStateVersion,
            origin + ": unsupported state version " + std::to_string(version) +
                " (this build reads version " + std::to_string(kStateVersion) + " only)");
  const std::uint32_t got = r.readU32();
  ESL_CHECK(got == static_cast<std::uint32_t>(kind),
            origin + ": holds a " + kindName(got) + ", not a " +
                kindName(static_cast<std::uint32_t>(kind)));
  const std::uint64_t length = r.readU64();
  ESL_CHECK(length == bytes.size() - kStateHeaderBytes,
            origin + ": truncated (payload shorter or longer than its header says)");
  const std::uint32_t crc = r.readU32();
  ESL_CHECK(crc32(r.p_, static_cast<std::size_t>(length)) == crc,
            origin + ": checksum mismatch (corrupt state)");
  return r;
}

}  // namespace esl
