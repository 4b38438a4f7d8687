#include "elastic/context.h"

#include <algorithm>
#include <limits>

#include "base/executor.h"
#include "compile/arena.h"

namespace esl {

SimContext::SimContext(const Netlist& netlist) : netlist_(netlist) {
  netlist_.validate();
  reset();
}

SimContext::~SimContext() = default;

void SimContext::reset() {
  cycle_ = 0;
  havePrev_ = false;
  violations_.clear();
  for (auto& [ch, log] : logs_) log.clear();
  ensureChoiceMap();
  hasFixedChoices_ = false;
  std::fill(choiceKnown_.begin(), choiceKnown_.end(), 0);
  // Every node rejoins: the forced relayout gives each its reset record.
  recordOff_.clear();
  topologySeen_ = ~std::uint64_t{0};  // force cache + layout + full-seed refresh
  ensureTopologyCache();
  // The cache refresh re-laid the boards through the value-preserving adopt
  // path; a reset starts from all-zero signals.
  board_.clearValues();
  prevBoard_.clearValues();
  invalidateSignals();
}

void SimContext::ensureTopologyCache() {
  if (topologySeen_ == netlist_.topologyVersion() && shardsSeen_ == shards_)
    return;
  liveNodes_ = netlist_.nodeIds();
  seedNodes_.clear();
  cycleSeedNodes_.clear();
  choiceNodes_.clear();
  nodeUnaudited_.assign(netlist_.nodeCapacity(), 0);
  nodeStateDriven_.assign(netlist_.nodeCapacity(), 0);
  nodeEdgeOnEvents_.assign(netlist_.nodeCapacity(), 0);
  nodeStateful_.assign(netlist_.nodeCapacity(), 0);
  for (const NodeId id : liveNodes_) {
    const Node& node = netlist_.node(id);
    const Node::EvalPurity purity = node.evalPurity();
    if (purity != Node::EvalPurity::kCombPure) {
      seedNodes_.push_back(id);
      nodeStateful_[id] = 1;
    }
    if (purity == Node::EvalPurity::kUnaudited) nodeUnaudited_[id] = 1;
    if (purity == Node::EvalPurity::kStateDriven) nodeStateDriven_[id] = 1;
    // Unaudited nodes made no promise about what evalComb reads, so they are
    // conservatively re-seeded into every settle along with the declared
    // per-cycle readers (cycle counter / choice bits).
    if (node.evalReadsPerCycleInputs() ||
        purity == Node::EvalPurity::kUnaudited)
      cycleSeedNodes_.push_back(id);
    if (node.choiceCount() > 0) choiceNodes_.push_back(id);
    if (node.edgeActivity() == Node::EdgeActivity::kOnEvents)
      nodeEdgeOnEvents_[id] = 1;
  }
  liveChannels_ = netlist_.channelIds();

  // Shard plan: contiguous blocks of the live-node order, balanced by count.
  // Blocks are snapped to 64-id boundaries so each worklist-bitmap word (and
  // each interior plane group) has exactly one owner — shard workers then
  // push and mark with plain stores.
  plan_.shards = shards_;
  plan_.nodeShard.assign(netlist_.nodeCapacity(), 0);
  for (const Shard& sh : shardState_) {
    retiredWork_.evaluations += sh.work.evaluations;
    retiredWork_.wordsSearched += sh.work.wordsSearched;
  }
  shardState_.assign(shards_, Shard{});
  const std::size_t n = liveNodes_.size();
  const std::size_t block = shards_ == 0 ? n : (n + shards_ - 1) / shards_;
  for (std::size_t i = 0; i < n; ++i) {
    unsigned s =
        block == 0 ? 0
                   : static_cast<unsigned>(std::min<std::size_t>(i / block, shards_ - 1));
    if (i > 0 && (liveNodes_[i] >> 6) == (liveNodes_[i - 1] >> 6))
      s = plan_.nodeShard[liveNodes_[i - 1]];  // same bitmap word → same owner
    plan_.nodeShard[liveNodes_[i]] = s;
    shardState_[s].owned.push_back(liveNodes_[i]);
  }
  for (Shard& sh : shardState_) {
    sh.loW = sh.owned.empty() ? 0 : sh.owned.front() >> 6;
    const std::size_t hiW = sh.owned.empty() ? 0 : sh.owned.back() >> 6;
    sh.pendingWords.assign((hiW - sh.loW) / 64 + 1, 0);
    sh.alwaysEdge.clear();
    for (const NodeId id : sh.owned)
      if (!nodeEdgeOnEvents_[id]) sh.alwaysEdge.push_back(id);
  }

  // Re-layout the boards for the new topology/partition, preserving the
  // per-channel values of surviving channels (channels created since the last
  // reset — insertOnChannel, connect during interactive surgery — get zeroed
  // slots before any kernel touches them). One layout serves every board:
  // the others start as copies of it, all signals zero.
  SignalBoard fresh;
  fresh.layout(netlist_, &plan_);
  sweepScratch_ = fresh;
  ccPre_ = fresh;
  ccEvent_ = fresh;
  // The monitor's previous cycle survives the relayout too (new channels read
  // as all-zero): it must still see a Retry+ token that was stopped on the
  // cycle before a mid-run surgery.
  SignalBoard prev = fresh;
  prev.adoptValuesFrom(prevBoard_);
  prevBoard_ = std::move(prev);
  fresh.adoptValuesFrom(board_);
  board_ = std::move(fresh);
  const std::vector<bool> persistent = netlist_.channelPersistence();
  persistentMask_.assign(board_.groupCount(), 0);
  for (const ChannelId ch : liveChannels_) {
    const std::uint32_t slot = board_.slotOf(ch);
    if (persistent[ch]) persistentMask_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  }

  pendingBits_.assign((netlist_.nodeCapacity() + 63) / 64, 0);
  evalMeta_.assign(netlist_.nodeCapacity(), 0);
  edgeBits_.assign((netlist_.nodeCapacity() + 63) / 64, 0);
  edgeWordGen_.assign((netlist_.nodeCapacity() + 63) / 64, 0);
  groupHot_.assign(board_.groupCount(), 0);
  // Hot-dispatch caches: raw node pointers and the channel→reader adjacency
  // as CSR with board slots pre-resolved, built from the channel list by a
  // counting pass. A node's entries are its channels in id order, each with
  // the node at the other endpoint (a self-loop lists its producer end
  // first). Built here (serially), so shard workers never touch the
  // netlist's lazy mutable caches.
  nodePtr_.assign(netlist_.nodeCapacity(), nullptr);
  for (const NodeId id : liveNodes_) nodePtr_[id] = &netlist_.node(id);
  adjOffset_.assign(netlist_.nodeCapacity() + 1, 0);
  for (const ChannelId ch : liveChannels_) {
    const Channel& c = netlist_.channel(ch);
    ++adjOffset_[c.producer + 1];
    ++adjOffset_[c.consumer + 1];
  }
  for (std::size_t i = 1; i < adjOffset_.size(); ++i)
    adjOffset_[i] += adjOffset_[i - 1];
  adjFlat_.resize(adjOffset_.back());
  std::vector<std::uint32_t> next(adjOffset_.begin(), adjOffset_.end() - 1);
  for (const ChannelId ch : liveChannels_) {
    const Channel& c = netlist_.channel(ch);
    const std::uint32_t slot = board_.slotOf(ch);
    adjFlat_[next[c.producer]++] = {slot, c.consumer};
    adjFlat_[next[c.consumer]++] = {slot, c.producer};
  }
  layoutRecords();
  compileOps();
  topologySeen_ = netlist_.topologyVersion();
  shardsSeen_ = shards_;
  needFullSeed_ = true;
  changeTrackValid_ = false;
  edgeTrackValid_ = false;
  sparseSeedValid_ = false;
}

void SimContext::layoutRecords() {
  std::vector<std::uint32_t> off(netlist_.nodeCapacity(), kNoRecord);
  std::uint64_t words = 0;  // checked against the 32-bit offsets below
  unsigned prevShard = ~0u;
  for (const NodeId id : liveNodes_) {
    if (shards_ > 1 && plan_.nodeShard[id] != prevShard) {
      // Cache-line-align each shard's first record so concurrent shard
      // workers never false-share one across the slice border.
      words = (words + 7) & ~std::uint64_t{7};
      prevShard = plan_.nodeShard[id];
    }
    off[id] = static_cast<std::uint32_t>(words);
    words += nodePtr_[id]->recordWords();
    ESL_CHECK(words <= std::numeric_limits<std::uint32_t>::max(),
              "node '" + nodePtr_[id]->name() + "': the design's records need " +
                  std::to_string(words) + " words, above the limit of 4294967295");
  }
  std::vector<std::uint64_t> fresh(words, 0);
  for (const NodeId id : liveNodes_) {
    const Node& node = *nodePtr_[id];
    std::uint64_t* rec = fresh.data() + off[id];
    if (id < recordOff_.size() && recordOff_[id] != kNoRecord)
      std::copy_n(records_.data() + recordOff_[id], node.recordWords(), rec);
    else
      node.reset(rec);  // joined since the last layout (or the context reset)
  }
  records_ = std::move(fresh);
  recordOff_ = std::move(off);
}

void SimContext::setShards(unsigned n) {
  Executor::checkLaneCount(n, "shard count");
  if (n == 0) n = 1;
  if (n == shards_) return;
  // The re-layout below permutes board slots and records, and builds the op
  // table against the new layout.
  shards_ = n;
  exec_.reset();
  invalidateSignals();
  ensureTopologyCache();  // re-partition + re-layout, preserving signal values
}

void SimContext::setBackend(Backend backend) {
  if (backend == backend_) return;
  backend_ = backend;
  // Against the current layout: a stale one is re-laid, with the op table,
  // at the next phase.
  if (topologySeen_ == netlist_.topologyVersion() && shardsSeen_ == shards_)
    compileOps();
}

void SimContext::compileOps() {
  if (backend_ == Backend::kCompiled)
    program_ = compile::compileProgram(netlist_, board_, recordOff_);
  else
    program_ = {};
}

void SimContext::bindOps() {
  raw_ = {&board_, board_.ctrlData(), board_.payloadData(), board_.changedData(),
          records_.data()};
}

// Each specialized op is its node kind's comb/edge template instantiated for
// the arena view; kGeneric falls back to the node's virtual evalComb/clockEdge.
// Flattening inlines every instantiation into the kind switch, so an op costs
// no call — the templates are too large for the default inlining budget.

[[gnu::flatten]] void SimContext::evalOp(NodeId id) {
  const compile::Op& op = program_.ops[id];
  if (op.code == compile::OpCode::kGeneric) return op.node->evalComb(*this);
  const compile::SlotAddr* ports = program_.ports.data() + op.portBase;
  compile::visitKind(op.code, [&]<typename K>() {
    K::comb(compile::ArenaView<K>(*this, raw_, op, ports,
                                  raw_.records + op.stateOff));
  });
}

[[gnu::flatten]] void SimContext::edgeOp(NodeId id) {
  const compile::Op& op = program_.ops[id];
  if (op.code == compile::OpCode::kGeneric) return op.node->clockEdge(*this);
  const compile::SlotAddr* ports = program_.ports.data() + op.portBase;
  compile::visitKind(op.code, [&]<typename K>() {
    K::edge(compile::ArenaView<K>(*this, raw_, op, ports,
                                  raw_.records + op.stateOff));
  });
}

const std::vector<SimContext::Transfer>& SimContext::transfers(ChannelId ch) const {
  static const std::vector<Transfer> kNone;
  const auto it = logs_.find(ch);
  return it == logs_.end() ? kNone : it->second;
}

void SimContext::parallelShards(const std::function<void(unsigned)>& fn) {
  exec().parallelFor(shards_,
                     [&](std::size_t s, unsigned) { fn(static_cast<unsigned>(s)); });
}

Executor& SimContext::exec() {
  if (!exec_) exec_ = std::make_unique<Executor>(shards_);
  return *exec_;
}

void SimContext::ensureChoiceMap() {
  choiceOffset_.clear();
  totalChoices_ = 0;
  const auto ids = netlist_.nodeIds();
  const NodeId maxId = ids.empty() ? 0 : ids.back();
  choiceOffset_.assign(maxId + 1, 0);
  for (const NodeId id : ids) {
    choiceOffset_[id] = totalChoices_;
    totalChoices_ += netlist_.node(id).choiceCount();
  }
  choiceKnown_.assign((totalChoices_ + 63) / 64, 0);
  choiceValue_.assign((totalChoices_ + 63) / 64, 0);
}

void SimContext::setChoicesFrom(const std::vector<bool>& bits) {
  ESL_CHECK(bits.size() == totalChoices_, "setChoices: wrong bit count");
  fixedChoices_ = bits;  // copy-assign reuses fixedChoices_'s capacity
  hasFixedChoices_ = true;
  std::fill(choiceKnown_.begin(), choiceKnown_.end(), 0);
}

void SimContext::setChoiceProvider(std::function<bool(NodeId, unsigned)> fn) {
  choiceProvider_ = std::move(fn);
}

bool SimContext::choice(const Node& node, unsigned idx) {
  ESL_CHECK(idx < node.choiceCount(), "choice index out of range on " + node.name());
  const unsigned slot = choiceOffset_.at(node.id()) + idx;
  const std::uint64_t mask = std::uint64_t{1} << (slot & 63);
  if (choiceKnown_[slot / 64] & mask) return (choiceValue_[slot / 64] & mask) != 0;
  bool value = false;
  if (hasFixedChoices_)
    value = fixedChoices_[slot];
  else if (choiceProvider_)
    value = choiceProvider_(node.id(), idx);
  choiceKnown_[slot / 64] |= mask;
  if (value)
    choiceValue_[slot / 64] |= mask;
  else
    choiceValue_[slot / 64] &= ~mask;
  return value;
}

void SimContext::rebuildHotGroups() {
  // Runs only alongside a shadow refresh (reset/rewiring/sweep interludes):
  // one linear sweep re-derives which interior groups carry tokens. Boundary
  // groups are never listed — the sharded edge scans that (small) region
  // unconditionally, and in serial mode every group is interior.
  std::fill(groupHot_.begin(), groupHot_.end(), 0);
  for (unsigned s = 0; s < shards_; ++s) {
    Shard& sh = shardState_[s];
    sh.hotGroups.clear();
    const auto [lo, hi] = board_.shardGroupRange(s);
    for (std::size_t g = lo; g < hi; ++g) {
      if (board_.activityAtGroup(g) != 0) {
        groupHot_[g] = 1;
        sh.hotGroups.push_back(static_cast<std::uint32_t>(g));
      }
    }
  }
}

void SimContext::resolveAllChoices() {
  // Settles over more than one shard pre-resolve every slot single-threaded
  // so the cache is read-only under workers. Identical to lazy resolution
  // because the provider is order-independent (a pure per-cycle function of
  // node/index).
  if (totalChoices_ == 0) return;
  for (const NodeId id : choiceNodes_) {
    const Node& node = *nodePtr_[id];
    const unsigned count = node.choiceCount();
    for (unsigned i = 0; i < count; ++i) (void)choice(node, i);
  }
}

void SimContext::settle() {
  if (crossCheck_) {
    settleCrossChecked();
  } else if (kernel_ == SettleKernel::kSweep) {
    settleSweep();
  } else {
    settleEvent();
  }
}

void SimContext::settleSweep() {
  ensureTopologyCache();
  changeTrackValid_ = false;  // sweep writes bypass the consume loop
  edgeTrackValid_ = false;    // ... and the settled-board guarantee
  const std::vector<NodeId>& ids = liveNodes_;
  const unsigned maxIters = static_cast<unsigned>(2 * ids.size() + 8);
  SignalBoard& before = sweepScratch_;
  for (unsigned iter = 0; iter < maxIters; ++iter) {
    before.copyValuesFrom(board_);
    for (const NodeId id : ids) nodePtr_[id]->evalComb(*this);
    if (board_.sameValuesAs(before) && iter > 0) return;
    if (board_.sameValuesAs(before) && ids.empty()) return;
  }
  throw CombinationalCycleError(
      "combinational network did not stabilize after " + std::to_string(maxIters) +
      " sweeps (combinational cycle in data or control)");
}

void SimContext::settleEvent() {
  ensureTopologyCache();  // the op table is current before addressing it
  if (backend_ == Backend::kCompiled) {
    bindOps();
    settleWith([this](NodeId id) { evalOp(id); });
  } else {
    settleWith([this](NodeId id) { nodePtr_[id]->evalComb(*this); });
  }
}

void SimContext::seedShards() {
  // Seeding tiers: after reset/rewiring every node; after a full (untracked)
  // edge or an unpackState every stateful node; in dirty-tracked steady state
  // only the per-cycle readers plus the nodes each shard clocked at the
  // preceding edge.
  const auto pushOwned = [&](NodeId id) {
    pushInto(shardState_[plan_.nodeShard[id]], id);
  };
  if (needFullSeed_) {
    for (const NodeId id : liveNodes_) pushOwned(id);
  } else if (!sparseSeedValid_) {
    for (const NodeId id : seedNodes_) pushOwned(id);
  } else {
    for (const NodeId id : cycleSeedNodes_) pushOwned(id);
    for (Shard& sh : shardState_)
      for (const NodeId id : sh.clocked) pushInto(sh, id);
  }
  needFullSeed_ = false;
}

void SimContext::clearWorklists() {
  std::fill(pendingBits_.begin(), pendingBits_.end(), 0);
  for (Shard& sh : shardState_) {
    std::fill(sh.pendingWords.begin(), sh.pendingWords.end(), 0);
    sh.pending = 0;
  }
}

SimContext::SettleWork SimContext::settleWork() const {
  SettleWork total = retiredWork_;
  for (const Shard& sh : shardState_) {
    total.evaluations += sh.work.evaluations;
    total.wordsSearched += sh.work.wordsSearched;
  }
  return total;
}

void SimContext::settleCrossChecked() {
  ensureTopologyCache();  // refresh layout (and the scratch boards) FIRST
  ccPre_.copyValuesFrom(board_);
  settleEvent();
  ccEvent_.copyValuesFrom(board_);
  board_.copyValuesFrom(ccPre_);
  settleSweep();
  const SignalBoard& event = ccEvent_;
  for (const ChannelId id : netlist_.channelIds()) {
    const std::uint32_t slot = board_.slotOf(id);
    if (board_.channelEqualsAt(slot, event)) continue;
    const auto bit = [](bool v) { return v ? '1' : '0'; };
    const ChannelSignals s = board_.snapshotAt(slot);
    const ChannelSignals e = event.snapshotAt(slot);
    throw InternalError(
        std::string("settle cross-check: kernels disagree on channel '") +
        netlist_.channel(id).name + "' at cycle " + std::to_string(cycle_) +
        ": sweep vf/sf/vb/sb=" + bit(s.vf) + bit(s.sf) + bit(s.vb) + bit(s.sb) +
        " data=" + s.data.toHex() + ", event-driven vf/sf/vb/sb=" + bit(e.vf) +
        bit(e.sf) + bit(e.vb) + bit(e.sb) + " data=" + e.data.toHex());
  }
}

void SimContext::checkProtocol() {
  ensureTopologyCache();
  if (protocolScanFindsViolation()) reportProtocolViolations();
}

bool SimContext::protocolScanFindsViolation() const {
  // One mask per §3.1 rule, 64 channels at a time. A clean group — every
  // group of a sound design — costs a few word ops and no per-channel work;
  // payloads are compared only for the stopped tokens that persisted.
  const std::size_t groups = board_.groupCount();
  for (std::size_t g = 0; g < groups; ++g) {
    const std::uint64_t vf = board_.planeWord(g, SignalBoard::kVf);
    const std::uint64_t vb = board_.planeWord(g, SignalBoard::kVb);
    const std::uint64_t stop =
        board_.planeWord(g, SignalBoard::kSf) | board_.planeWord(g, SignalBoard::kSb);
    // Kill and stop are mutually exclusive, in both polarities.
    if (vf & vb & stop) return true;
    if (!havePrev_) continue;
    const std::uint64_t pvf = prevBoard_.planeWord(g, SignalBoard::kVf);
    const std::uint64_t pvb = prevBoard_.planeWord(g, SignalBoard::kVb);
    // Last cycle's stopped tokens (persistent channels only) and anti-tokens
    // must still be there.
    const std::uint64_t retryF =
        pvf & prevBoard_.planeWord(g, SignalBoard::kSf) & ~pvb & persistentMask_[g];
    const std::uint64_t retryB = pvb & prevBoard_.planeWord(g, SignalBoard::kSb) & ~pvf;
    if ((retryF & ~vf) | (retryB & ~vb)) return true;
    // ... and a persisting stopped token must keep its data.
    for (std::uint64_t held = retryF & vf; held != 0; held &= held - 1) {
      const auto slot = static_cast<std::uint32_t>(g * 64 + __builtin_ctzll(held));
      if (!board_.dataEqualsAt(slot, prevBoard_)) return true;
    }
  }
  return false;
}

void SimContext::reportProtocolViolations() {
  auto report = [&](const Channel& ch, const std::string& what) {
    const std::string msg = "cycle " + std::to_string(cycle_) + ", channel '" +
                            ch.name + "': " + what;
    violations_.push_back(msg);
    if (throwOnViolation_) throw ProtocolError(msg);
  };

  for (const ChannelId id : liveChannels_) {
    const Channel& ch = netlist_.channel(id);
    const std::uint32_t slot = board_.slotOf(id);
    const bool vf = board_.bitAt(slot, SignalBoard::kVf);
    const bool vb = board_.bitAt(slot, SignalBoard::kVb);

    // Invariant (paper §3.1): kill and stop are mutually exclusive, in both
    // polarities.
    if (vf && vb && board_.bitAt(slot, SignalBoard::kSf))
      report(ch, "token killed and stopped (V+ S+ V-)");
    if (vf && vb && board_.bitAt(slot, SignalBoard::kSb))
      report(ch, "anti-token killed and stopped (V- S- V+)");

    if (!havePrev_) continue;
    const bool pvf = prevBoard_.bitAt(slot, SignalBoard::kVf);
    const bool pvb = prevBoard_.bitAt(slot, SignalBoard::kVb);
    const bool persistent = (persistentMask_[slot >> 6] >> (slot & 63)) & 1;

    // Retry+: a stopped token must persist (with its data) next cycle.
    if (pvf && prevBoard_.bitAt(slot, SignalBoard::kSf) && !pvb && persistent) {
      if (!vf)
        report(ch, "Retry+ violated: stopped token vanished");
      else if (!board_.dataEqualsAt(slot, prevBoard_))
        report(ch, "Retry+ persistence violated: data changed during retry");
    }
    // Retry-: a stopped anti-token must persist next cycle.
    if (pvb && prevBoard_.bitAt(slot, SignalBoard::kSb) && !pvf && !vb)
      report(ch, "Retry- violated: stopped anti-token vanished");
  }
}

void SimContext::edge() {
  ensureTopologyCache();
  if (crossCheck_)
    edgeAudited();
  else if (!edgeTrackValid_)
    edgeFull();
  else
    edgeEvent();
  edgeEpilogue();
}

void SimContext::edgeFull() {
  for (const NodeId id : liveNodes_) nodePtr_[id]->clockEdge(*this);
  sparseSeedValid_ = false;  // anything may have changed state
}

void SimContext::edgeEvent() {
  if (backend_ == Backend::kCompiled) {
    bindOps();
    edgeWith([this](NodeId id) { edgeOp(id); });
  } else {
    edgeWith([this](NodeId id) { nodePtr_[id]->clockEdge(*this); });
  }
}

void SimContext::edgeAudited() {
  // Reference clockEdge sweep over every node, auditing the EdgeActivity
  // declarations: a node the sparse path would have skipped (kOnEvents, no
  // adjacent event) must not change its serialized state. Channel events are
  // recomputed from the settled board — cross-check settles end on the sweep
  // kernel, whose writes land in the same planes.
  std::vector<std::uint8_t> nodeHasEvent(netlist_.nodeCapacity(), 0);
  scanEventGroups(0, board_.groupCount(), [&](NodeId id) {
    if (id != kNoNode) nodeHasEvent[id] = 1;
  });
  // Compiled backend: additionally audit every specialized clock-edge op
  // against the interpreted clockEdge — run the op, rewind the node's record
  // words, run clockEdge over them (the record it leaves is the one kept, so
  // statistics count once), and require byte-identical packState().
  const bool auditCompiled = backend_ == Backend::kCompiled;
  if (auditCompiled) bindOps();
  for (Shard& sh : shardState_) sh.clocked.clear();
  for (const NodeId id : liveNodes_) {
    const Node& node = *nodePtr_[id];
    std::uint64_t* rec = record(id);
    const bool wouldSkip = nodeEdgeOnEvents_[id] && !nodeHasEvent[id];
    if (!wouldSkip) {
      if (nodeStateful_[id]) shardState_[plan_.nodeShard[id]].clocked.push_back(id);
      if (auditCompiled && program_.ops[id].code != compile::OpCode::kGeneric) {
        auditRecord_.assign(rec, rec + node.recordWords());
        edgeOp(id);
        StateWriter op;
        node.packState(rec, op);
        std::copy(auditRecord_.begin(), auditRecord_.end(), rec);
        node.clockEdge(*this);
        StateWriter ref;
        node.packState(rec, ref);
        if (op.take() != ref.take())
          throw InternalError(
              "edge cross-check: compiled clockEdge op for node '" +
              node.name() + "' (" + node.kindName() +
              ") disagrees with the interpreted edge at cycle " +
              std::to_string(cycle_));
      } else {
        node.clockEdge(*this);
      }
      continue;
    }
    StateWriter before;
    node.packState(rec, before);
    node.clockEdge(*this);
    StateWriter after;
    node.packState(rec, after);
    if (before.take() != after.take())
      throw InternalError(
          "edge cross-check: node '" + node.name() + "' (" + node.kindName() +
          ") declares EdgeActivity::kOnEvents but changed state at cycle " +
          std::to_string(cycle_) + " without an adjacent channel event");
  }
  // The audit above just proved the skipped nodes kept their state, so the
  // sparse seed bookkeeping is as valid as after a dirty-tracked edge. This
  // deliberately routes the NEXT cross-checked settle through the sparse
  // seeding path: a node that reads the cycle counter or choice bits in
  // evalComb without declaring evalReadsPerCycleInputs() now shows up as a
  // kernel disagreement instead of hiding behind full re-seeding.
  sparseSeedValid_ = true;
}

void SimContext::edgeEpilogue() {
  for (auto& [ch, log] : logs_) {
    const std::uint32_t slot = board_.slotOf(ch);
    if (slot != SignalBoard::kNoSlot && board_.bitAt(slot, SignalBoard::kVf) &&
        !board_.bitAt(slot, SignalBoard::kSf) && !board_.bitAt(slot, SignalBoard::kVb))
      log.push_back({cycle_, board_.dataAt(slot)});
  }
  // The protocol monitor is the only reader of the previous cycle, and it
  // compares payloads only for stopped tokens: keep the control planes and
  // those payloads, and nothing at all when it is off.
  if (protocolChecking_) {
    prevBoard_.copyControlAndStoppedDataFrom(board_);
    havePrev_ = true;
  } else {
    havePrev_ = false;
  }
  hasFixedChoices_ = false;
  std::fill(choiceKnown_.begin(), choiceKnown_.end(), 0);
  ++cycle_;
}

void SimContext::step() {
  settle();
  if (protocolChecking_) checkProtocol();
  edge();
}

namespace {
constexpr SignalBoard::Plane kPlanes[] = {SignalBoard::kVf, SignalBoard::kSf,
                                          SignalBoard::kVb, SignalBoard::kSb};
/// The channel's four control bits, vf in bit 0 ... sb in bit 3.
std::uint8_t controlBits(const SignalBoard& b, std::uint32_t slot) {
  std::uint8_t bits = 0;
  for (unsigned p = 0; p < 4; ++p)
    bits |= static_cast<std::uint8_t>(b.bitAt(slot, kPlanes[p]) << p);
  return bits;
}
/// vf sf and no vb: a stopped token, whose payload the monitor keeps.
bool stoppedToken(std::uint8_t bits) { return (bits & 0b0111) == 0b0011; }
}  // namespace

std::vector<std::uint8_t> SimContext::packState() {
  StateWriter w(StateKind::kSnapshot);
  packSnapshot(w);
  return w.seal();
}

void SimContext::packSnapshot(StateWriter& w) {
  ensureTopologyCache();  // a node spliced in since the last cycle has a record
  w.writeU64(cycle_);
  const std::size_t nodes = w.beginSection();
  packNodeState(w);
  w.endSection(nodes);
  w.writeBool(havePrev_);
  if (!havePrev_) return;
  w.writeU32(static_cast<std::uint32_t>(liveChannels_.size()));
  for (const ChannelId id : liveChannels_)
    w.writeU8(controlBits(prevBoard_, prevBoard_.slotOf(id)));
  for (const ChannelId id : liveChannels_) {
    const std::uint32_t slot = prevBoard_.slotOf(id);
    if (stoppedToken(controlBits(prevBoard_, slot)))
      w.writeBitVec(prevBoard_.dataAt(slot));
  }
}

void SimContext::packStateInto(std::vector<std::uint8_t>& out) {
  ensureTopologyCache();
  StateWriter w(std::move(out));
  packNodeState(w);
  out = w.take();
}

void SimContext::packNodeState(StateWriter& w) const {
  for (const NodeId id : liveNodes_)
    nodePtr_[id]->packState(records_.data() + recordOff_[id], w);
}

void SimContext::stageKeptCycle(StateReader& r) {
  // Staged on the sweep's scratch board (laid out like prevBoard_) without
  // clearing it: the commit, edgeEpilogue's copy, reads only what is set here.
  SignalBoard& kept = sweepScratch_;
  ESL_CHECK(r.readU32() == liveChannels_.size(),
            "unpackState: the kept cycle covers another channel count "
            "(netlist/state mismatch)");
  for (const ChannelId id : liveChannels_) {
    const std::uint8_t bits = r.readU8();
    ESL_CHECK(bits < 16, "unpackState: kept-cycle control bits out of range");
    for (unsigned p = 0; p < 4; ++p)
      kept.setBitAt(kept.slotOf(id), kPlanes[p], (bits >> p) & 1);
  }
  for (const ChannelId id : liveChannels_) {
    const std::uint32_t slot = kept.slotOf(id);
    if (!stoppedToken(controlBits(kept, slot))) continue;
    const Channel& ch = netlist_.channel(id);
    kept.setDataAt(slot, r.readPayload(ch.width, ch.name));
  }
}

void SimContext::unpackState(const std::vector<std::uint8_t>& bytes,
                             const std::string& origin) {
  unpackSnapshot(StateReader::open(bytes, StateKind::kSnapshot, origin));
}

void SimContext::unpackSnapshot(StateReader r) {
  ensureTopologyCache();
  // All or nothing: every section is decoded and checked before any of it is
  // committed, the node records into a scratch copy of the arena.
  const std::uint64_t cycle = r.readU64();
  const StateReader nodes = r.section();
  const std::uint8_t kept = r.readU8();
  ESL_CHECK(kept <= 1, "unpackState: kept-cycle flag is neither 0 nor 1");
  if (kept) stageKeptCycle(r);
  ESL_CHECK(r.done(), "unpackState: trailing bytes (netlist/state mismatch)");
  stageNodeState(nodes);
  records_.swap(unpackRecords_);
  cycle_ = cycle;
  havePrev_ = kept;
  if (kept) prevBoard_.copyControlAndStoppedDataFrom(sweepScratch_);
  sparseSeedValid_ = false;  // arbitrary state replacement: reseed stateful set
}

void SimContext::unpackNodeState(const std::vector<std::uint8_t>& bytes) {
  ensureTopologyCache();
  stageNodeState(StateReader(bytes));
  records_.swap(unpackRecords_);
  havePrev_ = false;
  sparseSeedValid_ = false;
}

void SimContext::stageNodeState(StateReader r) {
  // Statistics and memos are not packed: the staged records start as copies,
  // so those words carry over.
  unpackRecords_.assign(records_.begin(), records_.end());
  for (const NodeId id : liveNodes_)
    nodePtr_[id]->unpackState(unpackRecords_.data() + recordOff_[id], r);
  ESL_CHECK(r.done(), "unpackState: trailing bytes (netlist/state mismatch)");
}

}  // namespace esl
