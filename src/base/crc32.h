// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte runs.
//
// The integrity check on every durable artifact the tree writes: snapshot
// files (--save-state) and serve spool records are the one state container
// (elastic/state_io.h), whose CRC detects truncation and bit-rot at read time
// instead of letting them be deserialized blind. Table-driven, no dependencies; ~1 GB/s is far
// faster than the disk writes it guards.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace esl {

namespace detail {
inline const std::array<std::uint32_t, 256>& crc32Table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  return table;
}
}  // namespace detail

/// CRC-32 of `n` bytes at `data`. Chain blocks by passing the previous return
/// value as `seed` (the empty run with seed 0 is 0).
inline std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed = 0) {
  const auto& table = detail::crc32Table();
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace esl
