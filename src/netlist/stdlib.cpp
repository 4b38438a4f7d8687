#include "netlist/stdlib.h"

#include <mutex>
#include <optional>

#include "base/rng.h"
#include "elastic/registry.h"
#include "logic/alu.h"
#include "logic/secded.h"

namespace esl::stdlib {

namespace {

void requireSig(const FnSig& sig, unsigned in, unsigned out, const std::string& what) {
  if (sig.inWidths.size() != 1 || sig.inWidths[0] != in || sig.outWidth != out)
    throw NetlistError(what + ": expects " + std::to_string(in) + " -> " +
                       std::to_string(out) + " bits");
}

/// Mask clearing the MSB of every `segment`-bit group: operands under this
/// mask can never carry across a segment boundary.
std::uint64_t noCarryMask(unsigned width, unsigned segment) {
  std::uint64_t mask = 0;
  for (unsigned i = 0; i < width; ++i)
    if (i % segment != segment - 1) mask |= 1ULL << i;
  return mask;
}

BitVec secdedCorrectWord(const BitVec& code) {
  return logic::secdedEncode(logic::secdedDecode(code).data);
}

void registerAll() {
  Registry& r = Registry::instance();

  // --- Fig. 1 ---------------------------------------------------------------
  r.addFn("fig1.f", [](const FnSig& sig, const Params&, const std::string&) -> CombFn {
    if (sig.inWidths.size() != 1 || sig.inWidths[0] != sig.outWidth)
      throw NetlistError("fn fig1.f: unary, width-preserving");
    return [](const std::vector<BitVec>& in) { return fig1Mix(in[0]); };
  });

  // --- §5.1 segmented ALU ---------------------------------------------------
  // The packed operand word is 2*width+2 bits (packAluOperands).
  r.addFn("alu.exact", [](const FnSig& sig, const Params& p,
                          const std::string& pfx) -> CombFn {
    const unsigned w = p.u32(pfx + "width");
    requireSig(sig, 2 * w + 2, w, "fn alu.exact");
    return [w](const std::vector<BitVec>& in) { return logic::aluExact(in[0], w); };
  });
  r.addFn("alu.approx", [](const FnSig& sig, const Params& p,
                           const std::string& pfx) -> CombFn {
    const unsigned w = p.u32(pfx + "width");
    const unsigned seg = p.u32(pfx + "segment");
    requireSig(sig, 2 * w + 2, w, "fn alu.approx");
    return [w, seg](const std::vector<BitVec>& in) {
      return logic::aluApprox(in[0], w, seg);
    };
  });
  r.addFn("alu.err", [](const FnSig& sig, const Params& p,
                        const std::string& pfx) -> CombFn {
    const unsigned w = p.u32(pfx + "width");
    const unsigned seg = p.u32(pfx + "segment");
    requireSig(sig, 2 * w + 2, 1, "fn alu.err");
    return [w, seg](const std::vector<BitVec>& in) {
      return BitVec(1, logic::aluApproxError(in[0], w, seg) ? 1 : 0);
    };
  });

  // --- §5.2 SECDED ----------------------------------------------------------
  r.addFn("secded.decode",
          [](const FnSig& sig, const Params&, const std::string&) -> CombFn {
            requireSig(sig, 72, 64, "fn secded.decode");
            return [](const std::vector<BitVec>& in) {
              return logic::secdedDecode(in[0]).data;
            };
          });
  r.addFn("secded.fixpair",
          [](const FnSig& sig, const Params&, const std::string&) -> CombFn {
            requireSig(sig, 144, 144, "fn secded.fixpair");
            return [](const std::vector<BitVec>& in) {
              return secdedCorrectWord(in[0].slice(0, 72))
                  .concat(secdedCorrectWord(in[0].slice(72, 72)));
            };
          });
  r.addFn("secded.errpair",
          [](const FnSig& sig, const Params&, const std::string&) -> CombFn {
            requireSig(sig, 144, 1, "fn secded.errpair");
            return [](const std::vector<BitVec>& in) {
              const bool e0 = logic::secdedDecode(in[0].slice(0, 72)).status !=
                              logic::SecdedStatus::kOk;
              const bool e1 = logic::secdedDecode(in[0].slice(72, 72)).status !=
                              logic::SecdedStatus::kOk;
              return BitVec(1, (e0 || e1) ? 1 : 0);
            };
          });
  r.addFn("secded.pairsum",
          [](const FnSig& sig, const Params&, const std::string&) -> CombFn {
            requireSig(sig, 144, 64, "fn secded.pairsum");
            return [](const std::vector<BitVec>& in) {
              const BitVec a = logic::secdedPayload(in[0].slice(0, 72));
              const BitVec b = logic::secdedPayload(in[0].slice(72, 72));
              return a + b;
            };
          });

  // --- operand generators ---------------------------------------------------
  r.addGen("vlu.ops", [](unsigned width, const Params& p, const std::string& pfx) {
    const unsigned w = p.u32(pfx + "width");
    if (width != 2 * w + 2)
      throw NetlistError("gen vlu.ops: source width must be 2*width+2");
    return vluOperandGen(w, p.u32(pfx + "segment"), p.u32(pfx + "permille"),
                         p.u64(pfx + "seed"));
  });
  r.addGen("secded.code", [](unsigned width, const Params& p,
                             const std::string& pfx) {
    if (width != logic::kSecdedCodeBits)
      throw NetlistError("gen secded.code: source width must be 72");
    return secdedCodeGen(p.u32(pfx + "flip"), p.u32(pfx + "double", 0),
                         p.u64(pfx + "seed"), p.u64(pfx + "stream"));
  });
}

}  // namespace

void ensureRegistered() {
  static std::once_flag once;
  std::call_once(once, registerAll);
}

BitVec fig1Mix(const BitVec& x) {
  const unsigned w = x.width();
  return ((x << 2) ^ x) + BitVec(w, 7);
}

TokenSource::Generator vluOperandGen(unsigned width, unsigned segment,
                                     unsigned errPermille, std::uint64_t seed) {
  const std::uint64_t clean = noCarryMask(width, segment);
  const std::uint64_t segMask = (1ULL << segment) - 1;
  const std::uint64_t widthMask = width >= 64 ? ~0ULL : ((1ULL << width) - 1);
  return [width, seed, errPermille, clean, segMask,
          widthMask](std::uint64_t i) -> std::optional<BitVec> {
    const std::uint64_t r1 = mix64(i, seed * 3 + 1);
    const std::uint64_t r2 = mix64(i, seed * 3 + 2);
    std::uint64_t a, b;
    if (hashChancePermille(i, errPermille, seed)) {
      // Force a carry out of the lowest segment: a_low = all ones, b_low = 1.
      a = ((r1 & ~segMask) | segMask) & widthMask;
      b = ((r2 & ~segMask) | 1ULL) & widthMask;
    } else {
      a = r1 & clean & widthMask;
      b = r2 & clean & widthMask;
    }
    return logic::packAluOperands(BitVec(width, a), BitVec(width, b),
                                  logic::AluOp::kAdd);
  };
}

TokenSource::Generator secdedCodeGen(unsigned flipPermille, unsigned doublePermille,
                                     std::uint64_t seed, std::uint64_t stream) {
  return [flipPermille, doublePermille, seed,
          stream](std::uint64_t i) -> std::optional<BitVec> {
    const BitVec data(64, mix64(i, seed * 97 + stream));
    BitVec code = logic::secdedEncode(data);
    const std::uint64_t sel = mix64(i, seed * 131 + stream + 5);
    if (hashChancePermille(i, doublePermille, seed + stream + 17)) {
      const unsigned p1 = sel % logic::kSecdedCodeBits;
      const unsigned p2 = (p1 + 1 + (sel >> 8) % (logic::kSecdedCodeBits - 1)) %
                          logic::kSecdedCodeBits;
      code.setBit(p1, !code.bit(p1));
      code.setBit(p2, !code.bit(p2));
    } else if (hashChancePermille(i, flipPermille, seed + stream)) {
      const unsigned p = sel % logic::kSecdedCodeBits;
      code.setBit(p, !code.bit(p));
    }
    return code;
  };
}

}  // namespace esl::stdlib
