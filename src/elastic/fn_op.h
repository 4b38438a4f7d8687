// FnOp: the function catalog's core datapath functions, written once.
//
// A function block built from a core catalog entry (`fn=id`, `addk`, `add`,
// `xor`, `gray`, `joinmux`, `concat`, `permille`) carries its resolved op: a
// kind plus two constants. applyFn evaluates it over any payload type with
// BitVec's operators — BitVec in the interpreter's object view, a 64-bit
// compile::Word in the compiled backend's arena view — so both backends run
// the same definition, and the compiler only copies the op into the node's
// op-table entry.
#pragma once

#include <cstdint>

#include "base/error.h"
#include "base/rng.h"

namespace esl {

/// A catalog datapath function, resolved against its port widths when the
/// block was built: a kind plus two constants.
struct FnOp {
  enum class Kind : std::uint8_t {
    kOpaque,    ///< not a catalog op: the block runs its closure
    kId,        ///< out = in0
    kAddK,      ///< out = (in0 + a) mod 2^w
    kAdd,       ///< out = (in0 + in1) mod 2^w
    kXor,       ///< out = in0 ^ in1 ^ ...
    kGray,      ///< out = in0 ^ (in0 >> 1)
    kJoinMux,   ///< out = in[1 + in0]
    kConcat,    ///< out = in0 | in1 << width(in0)
    kPermille,  ///< out = hashChancePermille(in0, a, b)
  };
  Kind kind = Kind::kOpaque;
  std::uint64_t a = 0;  ///< kAddK: the constant, truncated to the width;
                        ///< kPermille: the threshold
  std::uint64_t b = 0;  ///< kPermille: the salt
};

/// Evaluates a catalog op over `n` operands, `arg(i)` giving operand i as a
/// Payload: BitVec in the object view, compile::Word in the arena view. The
/// one definition of every catalog function; the widths were checked when
/// the op was resolved (Registry::makeFn).
template <typename Payload, typename Arg>
Payload applyFn(const FnOp& op, unsigned n, const Arg& arg) {
  switch (op.kind) {
    case FnOp::Kind::kId:
      return arg(0);
    case FnOp::Kind::kAddK: {
      const Payload x = arg(0);
      return x + Payload(x.width(), op.a);
    }
    case FnOp::Kind::kAdd:
      return arg(0) + arg(1);
    case FnOp::Kind::kXor: {
      Payload acc = arg(0);
      for (unsigned i = 1; i < n; ++i) acc = acc ^ arg(i);
      return acc;
    }
    case FnOp::Kind::kGray: {
      const Payload x = arg(0);
      return x ^ (x >> 1);
    }
    case FnOp::Kind::kJoinMux: {
      const std::uint64_t sel = arg(0).toUint64();
      ESL_CHECK(sel < n - 1u, "join mux: select out of range");
      return arg(1 + static_cast<unsigned>(sel));
    }
    case FnOp::Kind::kConcat:
      return arg(0).concat(arg(1));
    case FnOp::Kind::kPermille:
      return Payload(1, hashChancePermille(arg(0).toUint64(),
                                           static_cast<unsigned>(op.a), op.b)
                            ? 1
                            : 0);
    case FnOp::Kind::kOpaque:
      break;
  }
  throw InternalError("applyFn: an opaque datapath has no catalog op");
}

}  // namespace esl
