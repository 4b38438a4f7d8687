#include "transform/transform.h"

#include <queue>

#include "elastic/registry.h"

namespace esl::transform {

namespace {

FuncNode* asFunc(Netlist& nl, NodeId id) {
  return nl.hasNode(id) ? dynamic_cast<FuncNode*>(&nl.node(id)) : nullptr;
}

bool isJoinMux(const FuncNode* f) {
  return f != nullptr && f->datapath().op.kind == FnOp::Kind::kJoinMux;
}

FuncNode& requireMux(Netlist& nl, NodeId id) {
  FuncNode* mux = asFunc(nl, id);
  if (!isJoinMux(mux))
    throw TransformError("node is not a join multiplexer");
  return *mux;
}

FuncNode& requireUnaryFunc(Netlist& nl, NodeId id) {
  FuncNode* f = asFunc(nl, id);
  if (f == nullptr) throw TransformError("node is not a function block");
  if (f->numInputs() != 1 || f->numOutputs() != 1)
    throw TransformError("function block must be 1-in/1-out for this transform");
  return *f;
}

}  // namespace

ElasticBuffer& insertBubble(Netlist& nl, ChannelId ch, std::string name) {
  if (!nl.hasChannel(ch)) throw TransformError("insertBubble: unknown channel");
  const unsigned width = nl.channel(ch).width;
  if (name.empty()) name = "bubble@" + nl.channel(ch).name;
  auto& eb = nl.make<ElasticBuffer>(std::move(name), width);
  nl.insertOnChannel(ch, eb);
  return eb;
}

void removeBubble(Netlist& nl, NodeId ebId) {
  if (!nl.hasNode(ebId)) throw TransformError("removeBubble: unknown node");
  auto* eb = dynamic_cast<ElasticBuffer*>(&nl.node(ebId));
  if (eb == nullptr) throw TransformError("removeBubble: node is not an EB");
  if (!eb->initTokens().empty())
    throw TransformError("removeBubble: EB is not a bubble (holds initial tokens)");
  nl.bypassNode(ebId);
  nl.removeNode(ebId);
}

std::vector<NodeId> retimeBackward(Netlist& nl, NodeId ebId) {
  if (!nl.hasNode(ebId)) throw TransformError("retimeBackward: unknown node");
  auto* eb = dynamic_cast<ElasticBuffer*>(&nl.node(ebId));
  if (eb == nullptr) throw TransformError("retimeBackward: node is not an EB");
  if (!eb->initTokens().empty())
    throw TransformError("retimeBackward: only empty EBs can move backward "
                         "(token values cannot be inverted through the function)");
  const ChannelId upCh = eb->input(0);
  const NodeId funcId = nl.channel(upCh).producer;
  FuncNode* func = asFunc(nl, funcId);
  if (func == nullptr)
    throw TransformError("retimeBackward: EB is not directly after a function block");

  nl.bypassNode(ebId);
  nl.removeNode(ebId);
  std::vector<NodeId> ebs;
  for (unsigned i = 0; i < func->numInputs(); ++i) {
    auto& newEb = nl.make<ElasticBuffer>(
        func->name() + ".in" + std::to_string(i) + ".eb", func->inputWidth(i));
    nl.insertOnChannel(func->input(i), newEb);
    ebs.push_back(newEb.id());
  }
  return ebs;
}

NodeId retimeForward(Netlist& nl, NodeId funcId) {
  FuncNode* func = asFunc(nl, funcId);
  if (func == nullptr) throw TransformError("retimeForward: node is not a function");
  if (func->numOutputs() != 1) throw TransformError("retimeForward: need one output");

  // Every input must be fed directly by an EB; all with equal token counts.
  std::vector<ElasticBuffer*> inEbs;
  for (unsigned i = 0; i < func->numInputs(); ++i) {
    const NodeId producer = nl.channel(func->input(i)).producer;
    auto* eb = dynamic_cast<ElasticBuffer*>(&nl.node(producer));
    if (eb == nullptr)
      throw TransformError("retimeForward: input " + std::to_string(i) +
                           " is not fed by an EB");
    inEbs.push_back(eb);
  }
  const std::size_t tokenCount = inEbs.front()->initTokens().size();
  for (const ElasticBuffer* eb : inEbs)
    if (eb->initTokens().size() != tokenCount)
      throw TransformError("retimeForward: input EBs hold different token counts");

  // Recompute the retimed tokens through the function.
  const CombFn fn = func->datapath().closure();
  std::vector<BitVec> outTokens;
  for (std::size_t k = 0; k < tokenCount; ++k) {
    std::vector<BitVec> args;
    for (ElasticBuffer* eb : inEbs) args.push_back(eb->initTokens()[k]);
    outTokens.push_back(fn(args));
  }

  // Remove the input EBs, insert the output EB.
  for (ElasticBuffer* eb : inEbs) {
    const NodeId id = eb->id();
    nl.bypassNode(id);
    nl.removeNode(id);
  }
  auto& outEb = nl.make<ElasticBuffer>(func->name() + ".out.eb", func->outputWidth(0),
                                       std::max<unsigned>(2, tokenCount),
                                       std::move(outTokens));
  nl.insertOnChannel(func->output(0), outEb);
  return outEb.id();
}

ShannonResult shannonDecompose(Netlist& nl, NodeId muxId, NodeId funcId) {
  FuncNode& mux = requireMux(nl, muxId);
  FuncNode& func = requireUnaryFunc(nl, funcId);
  if (nl.channel(func.input(0)).producer != muxId)
    throw TransformError("shannonDecompose: function is not directly after the mux");

  const unsigned dataInputs = mux.numInputs() - 1;
  const unsigned selWidth = mux.inputWidth(0);
  const unsigned outWidth = func.outputWidth(0);

  // New mux over the transformed width.
  auto& newMux = makeJoinMux(nl, mux.name(), dataInputs, selWidth, outWidth);

  // Duplicate the function onto every data input.
  ShannonResult result;
  for (unsigned i = 0; i < dataInputs; ++i) {
    const ChannelId dataCh = mux.input(1 + i);
    // The copy carries the source's datapath — its catalog op, so a copy
    // evaluates in place on both backends, or its closure — and, when it has
    // them, its attributes, so duplicated registry-built functions stay
    // serializable.
    auto& copy = nl.make<FuncNode>(func.name() + std::to_string(i),
                                   std::vector<unsigned>{func.inputWidth(0)}, outWidth,
                                   func.datapath(), func.datapathCost());
    if (func.hasBuildParams()) copy.setBuildParams(func.buildParams());
    nl.rebindConsumer(dataCh, copy, 0);
    nl.connect(copy, 0, newMux, 1 + i);
    result.copies.push_back(copy.id());
  }
  nl.rebindConsumer(mux.input(0), newMux, 0);

  // Output of func becomes the output of the new mux.
  const ChannelId outCh = func.output(0);
  nl.rebindProducer(outCh, newMux, 0);

  // Dispose of the old func and mux (and the channel between them).
  nl.disconnect(func.input(0));
  nl.removeNode(funcId);
  nl.removeNode(muxId);
  result.mux = newMux.id();
  return result;
}

NodeId convertToEarlyEval(Netlist& nl, NodeId muxId) {
  FuncNode& mux = requireMux(nl, muxId);
  const unsigned dataInputs = mux.numInputs() - 1;
  const unsigned selWidth = mux.inputWidth(0);
  const unsigned width = mux.outputWidth(0);

  auto& ee = nl.make<EarlyEvalMux>(mux.name() + ".ee", dataInputs, selWidth, width);
  nl.rebindConsumer(mux.input(0), ee, 0);
  for (unsigned i = 0; i < dataInputs; ++i)
    nl.rebindConsumer(mux.input(1 + i), ee, 1 + i);
  nl.rebindProducer(mux.output(0), ee, 0);
  nl.removeNode(muxId);
  return ee.id();
}

NodeId shareFunctions(Netlist& nl, const std::vector<NodeId>& funcs, NodeId eeMuxId,
                      std::unique_ptr<sched::Scheduler> scheduler) {
  if (!nl.hasNode(eeMuxId)) throw TransformError("shareFunctions: unknown mux");
  auto* ee = dynamic_cast<EarlyEvalMux*>(&nl.node(eeMuxId));
  if (ee == nullptr)
    throw TransformError("shareFunctions: node is not an early-evaluation mux");
  if (funcs.size() != ee->dataInputs())
    throw TransformError("shareFunctions: need one function per mux data input");

  std::vector<FuncNode*> blocks;
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    FuncNode& f = requireUnaryFunc(nl, funcs[i]);
    if (nl.channel(f.output(0)).consumer != eeMuxId ||
        nl.channel(f.output(0)).consumerPort != 1 + i)
      throw TransformError("shareFunctions: funcs[" + std::to_string(i) +
                           "] does not feed mux data input " + std::to_string(i));
    blocks.push_back(&f);
  }
  const unsigned inWidth = blocks.front()->inputWidth(0);
  const unsigned outWidth = blocks.front()->outputWidth(0);
  for (const FuncNode* f : blocks)
    if (f->inputWidth(0) != inWidth || f->outputWidth(0) != outWidth)
      throw TransformError("shareFunctions: function widths differ");

  // Serialization attributes for the shared module: the function spec comes
  // from the absorbed block's attributes, the scheduler from its policy
  // description. Either may be unavailable (raw lambda, oracle policy) — the
  // module still works, it just cannot be printed to `.esl`.
  Params sharedParams;
  if (blocks.front()->hasBuildParams()) {
    Params sched;
    if (Registry::describeScheduler(*scheduler, sched, "sched")) {
      sharedParams.setU64("k", static_cast<std::uint64_t>(funcs.size()));
      sharedParams.setU64("in", inWidth);
      sharedParams.setU64("out", outWidth);
      for (const auto& [key, value] : blocks.front()->buildParams().entries())
        if (key == "fn" || key.rfind("fn.", 0) == 0) sharedParams.set(key, value);
      for (const auto& [key, value] : sched.entries()) sharedParams.set(key, value);
      sharedParams.setReal("delay", blocks.front()->datapathCost().delay);
      sharedParams.setReal("area", blocks.front()->datapathCost().area);
    }
  }

  auto& shared = nl.make<SharedModule>(
      blocks.front()->name() + ".shared", static_cast<unsigned>(funcs.size()), inWidth,
      outWidth, unaryAdapter(blocks.front()->datapath()), std::move(scheduler),
      blocks.front()->datapathCost());
  if (!sharedParams.empty()) shared.setBuildParams(std::move(sharedParams));

  for (std::size_t i = 0; i < blocks.size(); ++i) {
    FuncNode& f = *blocks[i];
    nl.rebindConsumer(f.input(0), shared, static_cast<unsigned>(i));
    nl.rebindProducer(f.output(0), shared, static_cast<unsigned>(i));
    nl.removeNode(f.id());
  }
  return shared.id();
}

NodeId speculate(Netlist& nl, NodeId muxId, NodeId funcId,
                 std::unique_ptr<sched::Scheduler> scheduler) {
  const ShannonResult shannon = shannonDecompose(nl, muxId, funcId);
  const NodeId ee = convertToEarlyEval(nl, shannon.mux);
  return shareFunctions(nl, shannon.copies, ee, std::move(scheduler));
}

bool selectFeedsBack(const Netlist& nl, NodeId muxId, NodeId funcId) {
  if (!nl.hasNode(muxId) || !nl.hasNode(funcId)) return false;
  const Node& mux = nl.node(muxId);
  const Node& func = nl.node(funcId);
  if (mux.numInputs() == 0 || func.numOutputs() == 0) return false;

  // BFS from the func output: does any path reach the producer of the select?
  const NodeId selProducer = nl.channel(mux.input(0)).producer;
  std::queue<NodeId> frontier;
  std::vector<bool> seen;
  auto push = [&](NodeId id) {
    if (id >= seen.size()) seen.resize(id + 1, false);
    if (!seen[id]) {
      seen[id] = true;
      frontier.push(id);
    }
  };
  push(nl.channel(func.output(0)).consumer);
  while (!frontier.empty()) {
    const NodeId id = frontier.front();
    frontier.pop();
    if (id == selProducer) return true;
    const Node& n = nl.node(id);
    for (unsigned o = 0; o < n.numOutputs(); ++o)
      if (n.outputBound(o)) push(nl.channel(n.output(o)).consumer);
  }
  return false;
}

std::vector<SpeculationCandidate> findSpeculationCandidates(const Netlist& nl) {
  std::vector<SpeculationCandidate> out;
  // const_cast-free: scan via ids, dynamic_cast on const nodes.
  for (const NodeId id : nl.nodeIds()) {
    const auto* mux = dynamic_cast<const FuncNode*>(&nl.node(id));
    if (!isJoinMux(mux) || !mux->outputBound(0)) continue;
    const NodeId next = nl.channel(mux->output(0)).consumer;
    const auto* func = dynamic_cast<const FuncNode*>(&nl.node(next));
    if (func == nullptr || func->numInputs() != 1 || func->numOutputs() != 1) continue;
    SpeculationCandidate cand;
    cand.mux = id;
    cand.func = next;
    cand.onCriticalCycle = selectFeedsBack(nl, id, next);
    out.push_back(cand);
  }
  return out;
}

}  // namespace esl::transform
