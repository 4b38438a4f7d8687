#include "elastic/registry.h"

#include <limits>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "base/rng.h"
#include "elastic/buffer.h"
#include "elastic/eemux.h"
#include "elastic/fork.h"
#include "elastic/shared.h"

namespace esl {

namespace {

/// "delay,area" cost pair attribute.
logic::Cost costPair(const Params& p, const std::string& key, logic::Cost fallback) {
  const std::string v = p.str(key, "");
  if (v.empty()) return fallback;
  const std::size_t comma = v.find(',');
  if (comma == std::string::npos || v.find(',', comma + 1) != std::string::npos)
    throw NetlistError("attribute '" + key + "': expected delay,area");
  const std::string_view items = v;
  return {parseReal(items.substr(0, comma), key),
          parseReal(items.substr(comma + 1), key)};
}

std::string costToken(logic::Cost c) {
  return realToken(c.delay) + "," + realToken(c.area);
}

void addPrefixed(Params& dst, const std::string& key, const Params& src) {
  for (const auto& [k, v] : src.entries()) dst.set(key + "." + k, v);
}

bool endsWithPortRef(const std::string& name, const std::string& tag) {
  const std::size_t at = name.rfind(tag);
  if (at == std::string::npos || at + tag.size() >= name.size()) return false;
  for (std::size_t i = at + tag.size(); i < name.size(); ++i)
    if (name[i] < '0' || name[i] > '9') return false;
  return true;
}

// --- core named functions ---------------------------------------------------

void requireUnary(const FnSig& sig, const std::string& what, bool sameWidth = true) {
  if (sig.inWidths.size() != 1)
    throw NetlistError(what + ": expects exactly one input");
  if (sameWidth && sig.inWidths[0] != sig.outWidth)
    throw NetlistError(what + ": input/output width mismatch");
}

/// The core entries validate the width signature and return a catalog op;
/// what each op computes is applyFn's (elastic/fn_op.h).
void registerCoreFns(Registry& r) {
  using Kind = FnOp::Kind;
  r.addFn("id", [](const FnSig& sig, const Params&, const std::string&) -> Datapath {
    requireUnary(sig, "fn id");
    return FnOp{Kind::kId};
  });
  r.addFn("addk", [](const FnSig& sig, const Params& p,
                     const std::string& pfx) -> Datapath {
    requireUnary(sig, "fn addk");
    // k is a plain integer truncated to the datapath width (synth stages
    // store full 64-bit salted constants), unlike `init=` payloads which
    // must fit their channel exactly.
    return FnOp{Kind::kAddK, BitVec(sig.outWidth, p.u64(pfx + "k")).toUint64()};
  });
  r.addFn("gray", [](const FnSig& sig, const Params&, const std::string&) -> Datapath {
    requireUnary(sig, "fn gray");
    return FnOp{Kind::kGray};
  });
  r.addFn("permille", [](const FnSig& sig, const Params& p,
                         const std::string& pfx) -> Datapath {
    requireUnary(sig, "fn permille", /*sameWidth=*/false);
    if (sig.outWidth != 1) throw NetlistError("fn permille: output must be 1 bit");
    return FnOp{Kind::kPermille, p.u32(pfx + "permille"), p.u64(pfx + "salt", 0)};
  });
  r.addFn("xor", [](const FnSig& sig, const Params&, const std::string&) -> Datapath {
    if (sig.inWidths.empty()) throw NetlistError("fn xor: needs inputs");
    for (const unsigned w : sig.inWidths)
      if (w != sig.outWidth) throw NetlistError("fn xor: width mismatch");
    return FnOp{Kind::kXor};
  });
  r.addFn("add", [](const FnSig& sig, const Params&, const std::string&) -> Datapath {
    if (sig.inWidths.size() != 2 || sig.inWidths[0] != sig.outWidth ||
        sig.inWidths[1] != sig.outWidth)
      throw NetlistError("fn add: expects two inputs of the output width");
    return FnOp{Kind::kAdd};
  });
  r.addFn("concat", [](const FnSig& sig, const Params&, const std::string&) -> Datapath {
    if (sig.inWidths.size() != 2 ||
        sig.inWidths[0] + sig.inWidths[1] != sig.outWidth)
      throw NetlistError("fn concat: output width must be the sum of the inputs");
    return FnOp{Kind::kConcat};
  });
  // Conventional join multiplexer: input 0 selects among inputs 1..n.
  r.addFn("joinmux", [](const FnSig& sig, const Params&, const std::string&) -> Datapath {
    if (sig.inWidths.size() < 3)
      throw NetlistError("fn joinmux: needs a select and >=2 data inputs");
    for (std::size_t i = 1; i < sig.inWidths.size(); ++i)
      if (sig.inWidths[i] != sig.outWidth)
        throw NetlistError("fn joinmux: data width mismatch");
    return FnOp{Kind::kJoinMux};
  });
}

// --- core generators / gates / schedulers -----------------------------------

void registerCoreGensGates(Registry& r) {
  r.addGen("counting",
           [](unsigned width, const Params& p, const std::string& pfx) {
             return TokenSource::counting(width, p.u64(pfx + "base", 0));
           });
  r.addGen("list", [](unsigned width, const Params& p, const std::string& pfx) {
    return TokenSource::listOf(p.u64List(pfx + "values"), width);
  });
  r.addGen("hash", [](unsigned width, const Params& p, const std::string& pfx) {
    const std::uint64_t salt = p.u64(pfx + "salt", 0);
    return [width, salt](std::uint64_t i) -> std::optional<BitVec> {
      return BitVec(width, mix64(i, salt));
    };
  });

  // The next token may first be offered on cycles == phase (mod period).
  r.addGate("period", [](const Params& p, const std::string& pfx) {
    const std::uint64_t period = p.u64(pfx + "period");
    const std::uint64_t phase = p.u64(pfx + "phase", 0);
    if (period <= 1) return TokenSource::Gate{};
    return TokenSource::Gate{
        [period, phase](std::uint64_t c) { return (c + phase) % period == 0; }};
  });
}

void registerCoreScheds(Registry& r) {
  r.addSched("static", [](unsigned k, const Params& p, const std::string& pfx) {
    return std::make_unique<sched::StaticScheduler>(k, p.u32(pfx + "pick", 0));
  });
  r.addSched("rr", [](unsigned k, const Params&, const std::string&) {
    return std::make_unique<sched::RoundRobinScheduler>(k);
  });
  r.addSched("last", [](unsigned k, const Params&, const std::string&) {
    return std::make_unique<sched::LastServedScheduler>(k);
  });
  r.addSched("2bit", [](unsigned k, const Params&, const std::string&)
                 -> std::unique_ptr<sched::Scheduler> {
    if (k != 2) throw NetlistError("sched 2bit: arbitrates exactly 2 channels");
    return std::make_unique<sched::TwoBitScheduler>();
  });
  r.addSched("timeout", [](unsigned k, const Params& p, const std::string& pfx) {
    return std::make_unique<sched::TimeoutScheduler>(k, p.u32(pfx + "timeout", 1));
  });
  r.addSched("bounded-fair", [](unsigned k, const Params&, const std::string&) {
    return std::make_unique<sched::BoundedFairScheduler>(k);
  });
  r.addSched("starving", [](unsigned k, const Params&, const std::string&) {
    return std::make_unique<sched::StarvingScheduler>(k);
  });
}

// --- core node kinds --------------------------------------------------------

void registerCoreKinds(Registry& r) {
  r.addKind(
      "eb",
      [](Netlist& nl, const std::string& name, const Params& p) -> Node& {
        const unsigned width = p.u32("width");
        // The buffer compares its counts as int: every one must fit.
        const auto checkInt = [](const char* key, std::int64_t v) {
          if (v < std::numeric_limits<int>::min() ||
              v > std::numeric_limits<int>::max())
            throw NetlistError(std::string("attribute '") + key + "': value " +
                               std::to_string(v) + " is outside the range of int");
        };
        const unsigned cap = p.u32("cap", 2);
        const unsigned acap = p.u32("acap", 2);
        const std::int64_t ainit = p.i64("ainit", 0);
        checkInt("cap", cap);
        checkInt("acap", acap);
        checkInt("ainit", ainit);
        return nl.make<ElasticBuffer>(name, width, cap, p.bitsList("init", width),
                                      acap, static_cast<int>(ainit));
      },
      [](const Node& n) {
        const auto& eb = static_cast<const ElasticBuffer&>(n);
        Params p;
        p.setU64("width", eb.width());
        if (eb.capacity() != 2) p.setU64("cap", eb.capacity());
        if (!eb.initTokens().empty()) p.setBitsList("init", eb.initTokens());
        if (eb.antiCapacity() != 2) p.setU64("acap", eb.antiCapacity());
        if (eb.initAntiTokens() != 0) p.setI64("ainit", eb.initAntiTokens());
        return p;
      });

  r.addKind(
      "eb0",
      [](Netlist& nl, const std::string& name, const Params& p) -> Node& {
        const unsigned width = p.u32("width");
        std::optional<BitVec> init;
        if (p.has("init")) init = p.bits("init", width);
        return nl.make<ElasticBuffer0>(name, width, init);
      },
      [](const Node& n) {
        const auto& eb = static_cast<const ElasticBuffer0&>(n);
        Params p;
        p.setU64("width", eb.width());
        if (eb.initToken()) p.setBits("init", *eb.initToken());
        return p;
      });

  r.addKind(
      "broken-eb",
      [](Netlist& nl, const std::string& name, const Params& p) -> Node& {
        return nl.make<BrokenBuffer>(name, p.u32("width"));
      },
      [](const Node& n) {
        Params p;
        p.setU64("width", n.inputWidth(0));
        return p;
      });

  r.addKind(
      "fork",
      [](Netlist& nl, const std::string& name, const Params& p) -> Node& {
        return nl.make<ForkNode>(name, p.u32("width"), p.u32("branches"));
      },
      [](const Node& n) {
        Params p;
        p.setU64("width", n.inputWidth(0));
        p.setU64("branches", static_cast<const ForkNode&>(n).branches());
        return p;
      });

  r.addKind(
      "ee-mux",
      [](Netlist& nl, const std::string& name, const Params& p) -> Node& {
        return nl.make<EarlyEvalMux>(name, p.u32("n"), p.u32("selw", 1),
                                     p.u32("width"));
      },
      [](const Node& n) {
        const auto& mux = static_cast<const EarlyEvalMux&>(n);
        Params p;
        p.setU64("n", mux.dataInputs());
        if (n.inputWidth(0) != 1) p.setU64("selw", n.inputWidth(0));
        p.setU64("width", n.outputWidth(0));
        return p;
      });

  r.addKind(
      "func",
      [&r](Netlist& nl, const std::string& name, const Params& p) -> Node& {
        FnSig sig;
        sig.inWidths = p.u32List("in");
        sig.outWidth = p.u32("out");
        if (sig.inWidths.empty())
          throw NetlistError("func '" + name + "': needs at least one input");
        return nl.make<FuncNode>(
            name, sig.inWidths, sig.outWidth, r.makeFn(sig, p, "fn"),
            logic::Cost{p.real("delay", 1.0), p.real("area", 1.0)});
      },
      [](const Node& n) {
        // Raw lambda FuncNodes are opaque — except the join mux, whose
        // behaviour is fully determined by its catalog op and port widths
        // (transforms create them via makeJoinMux without attributes).
        const auto& f = static_cast<const FuncNode&>(n);
        if (f.datapath().op.kind != FnOp::Kind::kJoinMux)
          throw NetlistError("func '" + n.name() +
                             "': built from a raw C++ lambda; construct via "
                             "makeFuncNode/the registry to serialize it");
        Params p;
        std::vector<std::uint64_t> in;
        for (unsigned i = 0; i < n.numInputs(); ++i) in.push_back(n.inputWidth(i));
        p.setU64List("in", in);
        p.setU64("out", n.outputWidth(0));
        p.set("fn", "joinmux");
        p.setReal("delay", f.datapathCost().delay);
        p.setReal("area", f.datapathCost().area);
        return p;
      });

  r.addKind(
      "source",
      [&r](Netlist& nl, const std::string& name, const Params& p) -> Node& {
        const unsigned width = p.u32("width");
        return nl.make<TokenSource>(name, width, r.makeGen(width, p, "gen"),
                                    r.makeGate(p, "gate"));
      });

  r.addKind(
      "sink",
      [&r](Netlist& nl, const std::string& name, const Params& p) -> Node& {
        return nl.make<TokenSink>(name, p.u32("width"), r.makeGate(p, "ready"),
                                  p.u32("anti", 0), r.makeGate(p, "antigate"));
      },
      [](const Node& n) {
        const auto& sink = static_cast<const TokenSink&>(n);
        if (sink.hasGates())
          throw NetlistError("sink '" + n.name() +
                             "': gate closures are opaque; construct via the "
                             "registry to serialize them");
        Params p;
        p.setU64("width", n.inputWidth(0));
        if (sink.antiBudget() != 0) p.setU64("anti", sink.antiBudget());
        return p;
      });

  r.addKind(
      "nondet-source",
      [](Netlist& nl, const std::string& name, const Params& p) -> Node& {
        return nl.make<NondetSource>(name, p.u32("width"), p.u32("killcap", 2),
                                     p.u32("databits", 0), p.u32("maxidle", 2));
      },
      [](const Node& n) {
        const auto& src = static_cast<const NondetSource&>(n);
        Params p;
        p.setU64("width", src.width());
        if (src.killCreditCap() != 2) p.setU64("killcap", src.killCreditCap());
        if (src.dataBits() != 0) p.setU64("databits", src.dataBits());
        if (src.maxIdle() != 2) p.setU64("maxidle", src.maxIdle());
        return p;
      });

  r.addKind(
      "nondet-sink",
      [](Netlist& nl, const std::string& name, const Params& p) -> Node& {
        return nl.make<NondetSink>(name, p.u32("width"), p.u32("maxstops", 2),
                                   p.u64("anti", 0) != 0);
      },
      [](const Node& n) {
        const auto& sink = static_cast<const NondetSink&>(n);
        Params p;
        p.setU64("width", sink.width());
        if (sink.maxConsecutiveStops() != 2)
          p.setU64("maxstops", sink.maxConsecutiveStops());
        if (sink.emitsAntiTokens()) p.setU64("anti", 1);
        return p;
      });

  r.addKind(
      "shared",
      [&r](Netlist& nl, const std::string& name, const Params& p) -> Node& {
        const unsigned k = p.u32("k");
        const unsigned inW = p.u32("in");
        const unsigned outW = p.u32("out");
        return nl.make<SharedModule>(
            name, k, inW, outW, unaryAdapter(r.makeFn({{inW}, outW}, p, "fn")),
            r.makeSched(k, p, "sched"),
            logic::Cost{p.real("delay", 1.0), p.real("area", 1.0)});
      });

  r.addKind(
      "stalling-vlu",
      [&r](Netlist& nl, const std::string& name, const Params& p) -> Node& {
        const unsigned inW = p.u32("in");
        const unsigned outW = p.u32("out");
        return nl.make<StallingVLU>(
            name, inW, outW, unaryAdapter(r.makeFn({{inW}, outW}, p, "exact")),
            [err = unaryAdapter(r.makeFn({{inW}, 1}, p, "err"))](
                const BitVec& x) { return err(x).bit(0); },
            costPair(p, "acost", {1.0, 1.0}), costPair(p, "ecost", {1.0, 1.0}),
            costPair(p, "rcost", {1.0, 1.0}));
      });
}

}  // namespace

std::function<BitVec(const BitVec&)> unaryAdapter(const Datapath& datapath) {
  return [fn = datapath.closure()](const BitVec& x) {
    return fn(std::vector<BitVec>{x});
  };
}

Registry::Registry() {
  registerCoreFns(*this);
  registerCoreGensGates(*this);
  registerCoreScheds(*this);
  registerCoreKinds(*this);
}

Registry& Registry::instance() {
  static Registry r;
  return r;
}

void Registry::addKind(const std::string& kind, NodeFactory factory,
                       NodeDescriber describer) {
  ESL_CHECK(kinds_.emplace(kind, Kind{std::move(factory), std::move(describer)}).second,
            "Registry: duplicate node kind '" + kind + "'");
}

void Registry::addFn(const std::string& name, FnFactory factory) {
  ESL_CHECK(fns_.emplace(name, std::move(factory)).second,
            "Registry: duplicate fn '" + name + "'");
}

void Registry::addGen(const std::string& name, GenFactory factory) {
  ESL_CHECK(gens_.emplace(name, std::move(factory)).second,
            "Registry: duplicate gen '" + name + "'");
}

void Registry::addGate(const std::string& name, GateFactory factory) {
  ESL_CHECK(gates_.emplace(name, std::move(factory)).second,
            "Registry: duplicate gate '" + name + "'");
}

void Registry::addSched(const std::string& name, SchedFactory factory) {
  ESL_CHECK(scheds_.emplace(name, std::move(factory)).second,
            "Registry: duplicate sched '" + name + "'");
}

Node& Registry::makeNode(Netlist& nl, const NodeSpec& spec) const {
  validateIrName(spec.name, "node name");
  const auto it = kinds_.find(spec.kind);
  if (it == kinds_.end())
    throw NetlistError("unknown node kind '" + spec.kind + "' for node '" +
                       spec.name + "'");
  // The factory runs against a private copy, which the node then keeps:
  // Params tracks reads through mutable state for unconsumed(), and the spec
  // is const — it may be built again, or from several threads at once.
  Params params = spec.params;
  Node& n = it->second.factory(nl, spec.name, params);
  if (const std::string unknown = params.unconsumed(); !unknown.empty())
    throw NetlistError("node '" + spec.name + "' (" + spec.kind +
                       "): unknown attribute(s): " + unknown);
  n.setBuildParams(std::move(params));
  return n;
}

NodeSpec Registry::describeNode(const Node& node) const {
  NodeSpec spec;
  spec.kind = node.kindName();
  spec.name = node.name();
  if (node.hasBuildParams()) {
    spec.params = node.buildParams();
    return spec;
  }
  const auto it = kinds_.find(spec.kind);
  if (it == kinds_.end() || !it->second.describer)
    throw NetlistError("node '" + node.name() + "' of kind '" + spec.kind +
                       "' is not serializable (no attributes, no describer)");
  spec.params = it->second.describer(node);
  return spec;
}

Datapath Registry::makeFn(const FnSig& sig, const Params& p,
                          const std::string& key) const {
  const std::string& name = p.str(key);
  const auto it = fns_.find(name);
  if (it == fns_.end()) throw NetlistError("unknown fn '" + name + "'");
  return it->second(sig, p, key + ".");
}

TokenSource::Generator Registry::makeGen(unsigned width, const Params& p,
                                         const std::string& key) const {
  const std::string& name = p.str(key);
  const auto it = gens_.find(name);
  if (it == gens_.end()) throw NetlistError("unknown gen '" + name + "'");
  return it->second(width, p, key + ".");
}

TokenSource::Gate Registry::makeGate(const Params& p, const std::string& key) const {
  if (!p.has(key)) return {};
  const std::string& name = p.str(key);
  const auto it = gates_.find(name);
  if (it == gates_.end()) throw NetlistError("unknown gate '" + name + "'");
  return it->second(p, key + ".");
}

std::unique_ptr<sched::Scheduler> Registry::makeSched(unsigned channels,
                                                      const Params& p,
                                                      const std::string& key) const {
  const std::string& name = p.str(key);
  const auto it = scheds_.find(name);
  if (it == scheds_.end()) throw NetlistError("unknown sched '" + name + "'");
  return it->second(channels, p, key + ".");
}

bool Registry::describeScheduler(const sched::Scheduler& s, Params& out,
                                 const std::string& key) {
  if (const auto* st = dynamic_cast<const sched::StaticScheduler*>(&s)) {
    out.set(key, "static");
    if (st->pick() != 0) out.setU64(key + ".pick", st->pick());
    return true;
  }
  if (dynamic_cast<const sched::RoundRobinScheduler*>(&s) != nullptr) {
    out.set(key, "rr");
    return true;
  }
  if (dynamic_cast<const sched::LastServedScheduler*>(&s) != nullptr) {
    out.set(key, "last");
    return true;
  }
  if (dynamic_cast<const sched::TwoBitScheduler*>(&s) != nullptr) {
    out.set(key, "2bit");
    return true;
  }
  if (const auto* t = dynamic_cast<const sched::TimeoutScheduler*>(&s)) {
    out.set(key, "timeout");
    if (t->timeout() != 1) out.setU64(key + ".timeout", t->timeout());
    return true;
  }
  if (dynamic_cast<const sched::BoundedFairScheduler*>(&s) != nullptr) {
    out.set(key, "bounded-fair");
    return true;
  }
  if (dynamic_cast<const sched::StarvingScheduler*>(&s) != nullptr) {
    out.set(key, "starving");
    return true;
  }
  return false;  // oracle and custom policies close over C++ state
}

void validateIrToken(const std::string& name, const std::string& what) {
  if (name.empty()) throw NetlistError(what + ": empty");
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-' ||
                    c == '@';
    if (!ok)
      throw NetlistError(what + " '" + name + "': illegal character '" +
                         std::string(1, c) + "'");
  }
}

void validateIrName(const std::string& name, const std::string& what) {
  validateIrToken(name, what);
  if (endsWithPortRef(name, ".out") || endsWithPortRef(name, ".in"))
    throw NetlistError(what + " '" + name +
                       "': must not end in .out<N>/.in<N> (reserved for "
                       "channel endpoint references)");
}

// ---------------------------------------------------------------------------
// NetlistSpec
// ---------------------------------------------------------------------------

Netlist NetlistSpec::build() const {
  Netlist nl;
  nl.reserve(nodes.size(), channels.size());
  const Registry& reg = Registry::instance();
  // Keyed by the names this spec holds; it is const while the table lives.
  std::unordered_map<std::string_view, NodeId> byName;
  byName.reserve(nodes.size());
  for (const NodeSpec& spec : nodes) {
    Node& n = reg.makeNode(nl, spec);
    if (!byName.emplace(spec.name, n.id()).second)
      throw NetlistError("duplicate node name '" + spec.name + "'");
  }
  for (const ChannelSpec& ch : channels) {
    const auto findEnd = [&](const std::string& name) -> Node& {
      const auto it = byName.find(name);
      if (it == byName.end())
        throw NetlistError("channel references unknown node '" + name + "'");
      return nl.node(it->second);
    };
    Node& prod = findEnd(ch.producer);
    Node& cons = findEnd(ch.consumer);
    if (ch.producerPort >= prod.numOutputs())
      throw NetlistError("channel: no output port " +
                         std::to_string(ch.producerPort) + " on '" + ch.producer +
                         "'");
    if (ch.consumerPort >= cons.numInputs())
      throw NetlistError("channel: no input port " +
                         std::to_string(ch.consumerPort) + " on '" + ch.consumer +
                         "'");
    nl.connect(prod, ch.producerPort, cons, ch.consumerPort, ch.name);
  }
  nl.validate();
  return nl;
}

NetlistSpec NetlistSpec::fromNetlist(const Netlist& nl) {
  NetlistSpec spec;
  const Registry& reg = Registry::instance();
  const std::vector<NodeId> nodeIds = nl.nodeIds();
  const std::vector<ChannelId> channelIds = nl.channelIds();
  spec.nodes.reserve(nodeIds.size());
  spec.channels.reserve(channelIds.size());
  std::unordered_set<std::string_view> names;  // views of the netlist's names
  names.reserve(nodeIds.size());
  for (const NodeId id : nodeIds) {
    const Node& n = nl.node(id);
    validateIrName(n.name(), "node name");
    if (!names.insert(n.name()).second)
      throw NetlistError("netlist not serializable: duplicate node name '" +
                         n.name() + "'");
    spec.nodes.push_back(reg.describeNode(n));
  }
  for (const ChannelId id : channelIds) {
    const Channel& ch = nl.channel(id);
    // A name the format cannot represent must fail here (at save time), not
    // when the printed file is reloaded.
    if (!ch.name.empty()) validateIrToken(ch.name, "channel name");
    spec.channels.push_back({nl.node(ch.producer).name(), ch.producerPort,
                             nl.node(ch.consumer).name(), ch.consumerPort,
                             ch.name});
  }
  return spec;
}

// ---------------------------------------------------------------------------
// IR-aware construction helpers
// ---------------------------------------------------------------------------

FuncNode& makeFuncNode(Netlist& nl, const std::string& name,
                       const std::vector<unsigned>& inWidths, unsigned outWidth,
                       const std::string& fnName, const Params& fnParams,
                       logic::Cost cost) {
  NodeSpec spec;
  spec.kind = "func";
  spec.name = name;
  std::vector<std::uint64_t> in(inWidths.begin(), inWidths.end());
  spec.params.setU64List("in", in);
  spec.params.setU64("out", outWidth);
  spec.params.set("fn", fnName);
  addPrefixed(spec.params, "fn", fnParams);
  spec.params.setReal("delay", cost.delay);
  spec.params.setReal("area", cost.area);
  return static_cast<FuncNode&>(Registry::instance().makeNode(nl, spec));
}

TokenSource& makeSourceNode(Netlist& nl, const std::string& name, unsigned width,
                            const std::string& genName, const Params& genParams,
                            const std::string& gateName, const Params& gateParams) {
  NodeSpec spec;
  spec.kind = "source";
  spec.name = name;
  spec.params.setU64("width", width);
  spec.params.set("gen", genName);
  addPrefixed(spec.params, "gen", genParams);
  if (!gateName.empty()) {
    spec.params.set("gate", gateName);
    addPrefixed(spec.params, "gate", gateParams);
  }
  return static_cast<TokenSource&>(Registry::instance().makeNode(nl, spec));
}

SharedModule& makeSharedNode(Netlist& nl, const std::string& name, unsigned channels,
                             unsigned inWidth, unsigned outWidth,
                             const std::string& fnName, const Params& fnParams,
                             const std::string& schedName, const Params& schedParams,
                             logic::Cost fnCost) {
  NodeSpec spec;
  spec.kind = "shared";
  spec.name = name;
  spec.params.setU64("k", channels);
  spec.params.setU64("in", inWidth);
  spec.params.setU64("out", outWidth);
  spec.params.set("fn", fnName);
  addPrefixed(spec.params, "fn", fnParams);
  spec.params.set("sched", schedName);
  addPrefixed(spec.params, "sched", schedParams);
  spec.params.setReal("delay", fnCost.delay);
  spec.params.setReal("area", fnCost.area);
  return static_cast<SharedModule&>(Registry::instance().makeNode(nl, spec));
}

StallingVLU& makeVluNode(Netlist& nl, const std::string& name, unsigned inWidth,
                         unsigned outWidth, const std::string& exactName,
                         const Params& exactParams, const std::string& errName,
                         const Params& errParams, logic::Cost approxCost,
                         logic::Cost exactCost, logic::Cost errCost) {
  NodeSpec spec;
  spec.kind = "stalling-vlu";
  spec.name = name;
  spec.params.setU64("in", inWidth);
  spec.params.setU64("out", outWidth);
  spec.params.set("exact", exactName);
  addPrefixed(spec.params, "exact", exactParams);
  spec.params.set("err", errName);
  addPrefixed(spec.params, "err", errParams);
  spec.params.set("acost", costToken(approxCost));
  spec.params.set("ecost", costToken(exactCost));
  spec.params.set("rcost", costToken(errCost));
  return static_cast<StallingVLU&>(Registry::instance().makeNode(nl, spec));
}

}  // namespace esl
