// Elastic channels with SELF dual handshakes (paper §3).
//
// A channel carries data plus the control tuple (V+, S+, V-, S-):
//   vf (V+) forward valid  — driven by the producer, announces a token;
//   sf (S+) forward stop   — driven by the consumer, back-pressures tokens;
//   vb (V-) backward valid — driven by the consumer, announces an anti-token
//                            travelling upstream;
//   sb (S-) backward stop  — driven by the producer, back-pressures anti-tokens.
//
// Settled-cycle events (paper §3): a token and an anti-token meeting on a
// channel cancel (kill); otherwise each side transfers when valid and not
// stopped. The SELF Invariant makes kill and stop mutually exclusive, so the
// three events below are disjoint.
#pragma once

#include <cstdint>
#include <string>

#include "base/bitvec.h"

namespace esl {

using NodeId = std::uint32_t;
using ChannelId = std::uint32_t;
inline constexpr NodeId kNoNode = ~NodeId{0};
inline constexpr ChannelId kNoChannel = ~ChannelId{0};

/// Settled values of the four SELF control bits plus the payload.
struct ChannelSignals {
  bool vf = false;  ///< V+: token present
  bool sf = false;  ///< S+: token stopped
  bool vb = false;  ///< V-: anti-token present
  bool sb = false;  ///< S-: anti-token stopped
  BitVec data;      ///< payload, meaningful iff vf

  bool operator==(const ChannelSignals& o) const {
    return vf == o.vf && sf == o.sf && vb == o.vb && sb == o.sb && data == o.data;
  }
};

/// Token killed by an anti-token on this channel this cycle.
inline bool killEvent(const ChannelSignals& s) { return s.vf && s.vb; }

/// Token moves producer -> consumer this cycle.
inline bool fwdTransfer(const ChannelSignals& s) { return s.vf && !s.sf && !s.vb; }

/// Anti-token moves consumer -> producer this cycle.
inline bool bwdTransfer(const ChannelSignals& s) { return s.vb && !s.sb && !s.vf; }

/// A channel's settled control bits and its three events, taken in one read
/// of each bit: what clock-edge code branches on.
struct ChannelEvents {
  bool vf, sf, vb, sb;
  bool fwd, kill, bwd;

  static ChannelEvents of(bool vf, bool sf, bool vb, bool sb) {
    return {vf, sf, vb, sb, vf && !sf && !vb, vf && vb, vb && !sb && !vf};
  }
};

/// Static structure of a channel: endpoints and payload width.
struct Channel {
  ChannelId id = kNoChannel;
  std::string name;
  unsigned width = 0;
  NodeId producer = kNoNode;
  unsigned producerPort = 0;  ///< index into the producer's output ports
  NodeId consumer = kNoNode;
  unsigned consumerPort = 0;  ///< index into the consumer's input ports
};

/// One-character trace symbol used throughout the paper's Table 1:
/// '-' anti-token, '*' bubble, 'D' valid data (caller renders the letter).
enum class ChannelSymbol { kAntiToken, kBubble, kData };

inline ChannelSymbol channelSymbol(const ChannelSignals& s) {
  if (s.vb) return ChannelSymbol::kAntiToken;
  if (s.vf) return ChannelSymbol::kData;
  return ChannelSymbol::kBubble;
}

}  // namespace esl
