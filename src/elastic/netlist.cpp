#include "elastic/netlist.h"

#include <algorithm>
#include <utility>

namespace esl {

NodeId Netlist::addNode(std::unique_ptr<Node> node) {
  ESL_CHECK(node != nullptr, "Netlist::addNode: null node");
  const NodeId id = static_cast<NodeId>(nodes_.size());
  node->setId(id);
  nodes_.push_back(std::move(node));
  ++topoVersion_;
  return id;
}

void Netlist::reserve(std::size_t nodes, std::size_t channels) {
  nodes_.reserve(nodes_.size() + nodes);
  channels_.reserve(channels_.size() + channels);
  channelLive_.reserve(channelLive_.size() + channels);
}

void Netlist::removeNode(NodeId id) {
  ESL_CHECK(hasNode(id), "Netlist::removeNode: unknown node");
  Node& n = *nodes_[id];
  for (unsigned p = 0; p < n.numInputs(); ++p)
    ESL_CHECK(!n.inputBound(p),
              "Netlist::removeNode: input still connected on " + n.name());
  for (unsigned p = 0; p < n.numOutputs(); ++p)
    ESL_CHECK(!n.outputBound(p),
              "Netlist::removeNode: output still connected on " + n.name());
  nodes_[id].reset();
  ++topoVersion_;
}

ChannelId Netlist::connect(Node& producer, unsigned producerPort, Node& consumer,
                           unsigned consumerPort, std::string name) {
  ESL_CHECK(producerPort < producer.numOutputs(),
            "connect: bad producer port on " + producer.name());
  ESL_CHECK(consumerPort < consumer.numInputs(),
            "connect: bad consumer port on " + consumer.name());
  ESL_CHECK(!producer.outputBound(producerPort),
            "connect: producer port already bound on " + producer.name());
  ESL_CHECK(!consumer.inputBound(consumerPort),
            "connect: consumer port already bound on " + consumer.name());
  const unsigned width = producer.outputWidth(producerPort);
  ESL_CHECK(width == consumer.inputWidth(consumerPort),
            "connect: width mismatch " + producer.name() + " -> " + consumer.name());

  const auto id = static_cast<ChannelId>(channels_.size());
  Channel ch;
  ch.id = id;
  ch.name = name.empty() ? freshChannelName(producer, producerPort) : std::move(name);
  ch.width = width;
  ch.producer = producer.id();
  ch.producerPort = producerPort;
  ch.consumer = consumer.id();
  ch.consumerPort = consumerPort;
  channels_.push_back(std::move(ch));
  channelLive_.push_back(true);

  producer.bindOutput(producerPort, id);
  consumer.bindInput(consumerPort, id);
  ++topoVersion_;
  return id;
}

void Netlist::disconnect(ChannelId chId) {
  ESL_CHECK(hasChannel(chId), "disconnect: unknown channel");
  Channel& ch = channels_[chId];
  node(ch.producer).bindOutput(ch.producerPort, kNoChannel);
  node(ch.consumer).bindInput(ch.consumerPort, kNoChannel);
  channelLive_[chId] = false;
  ++topoVersion_;
}

void Netlist::rebindConsumer(ChannelId chId, Node& consumer, unsigned consumerPort) {
  ESL_CHECK(hasChannel(chId), "rebindConsumer: unknown channel");
  Channel& ch = channels_[chId];
  ESL_CHECK(consumerPort < consumer.numInputs(), "rebindConsumer: bad port");
  ESL_CHECK(!consumer.inputBound(consumerPort), "rebindConsumer: port already bound");
  ESL_CHECK(ch.width == consumer.inputWidth(consumerPort),
            "rebindConsumer: width mismatch");
  node(ch.consumer).bindInput(ch.consumerPort, kNoChannel);
  ch.consumer = consumer.id();
  ch.consumerPort = consumerPort;
  consumer.bindInput(consumerPort, chId);
  ++topoVersion_;
}

void Netlist::rebindProducer(ChannelId chId, Node& producer, unsigned producerPort) {
  ESL_CHECK(hasChannel(chId), "rebindProducer: unknown channel");
  Channel& ch = channels_[chId];
  ESL_CHECK(producerPort < producer.numOutputs(), "rebindProducer: bad port");
  ESL_CHECK(!producer.outputBound(producerPort), "rebindProducer: port already bound");
  ESL_CHECK(ch.width == producer.outputWidth(producerPort),
            "rebindProducer: width mismatch");
  node(ch.producer).bindOutput(ch.producerPort, kNoChannel);
  ch.producer = producer.id();
  ch.producerPort = producerPort;
  producer.bindOutput(producerPort, chId);
  ++topoVersion_;
}

ChannelId Netlist::insertOnChannel(ChannelId chId, Node& mid) {
  ESL_CHECK(hasChannel(chId), "insertOnChannel: unknown channel");
  ESL_CHECK(mid.numInputs() == 1 && mid.numOutputs() == 1,
            "insertOnChannel: node must be 1-in/1-out");
  Channel& ch = channels_[chId];
  Node& consumer = node(ch.consumer);
  const unsigned consumerPort = ch.consumerPort;
  // Detach the old consumer, attach the new node, then connect downstream
  // (which bumps the version).
  consumer.bindInput(consumerPort, kNoChannel);
  ch.consumer = mid.id();
  ch.consumerPort = 0;
  mid.bindInput(0, chId);
  return connect(mid, 0, consumer, consumerPort);
}

ChannelId Netlist::bypassNode(NodeId id) {
  ESL_CHECK(hasNode(id), "bypassNode: unknown node");
  Node& n = *nodes_[id];
  ESL_CHECK(n.numInputs() == 1 && n.numOutputs() == 1,
            "bypassNode: node must be 1-in/1-out");
  ESL_CHECK(n.inputBound(0) && n.outputBound(0), "bypassNode: node not fully connected");
  const ChannelId up = n.input(0);
  const ChannelId down = n.output(0);
  Channel& downCh = channels_[down];
  Node& consumer = node(downCh.consumer);
  const unsigned consumerPort = downCh.consumerPort;
  disconnect(down);
  Channel& upCh = channels_[up];
  node(upCh.consumer).bindInput(upCh.consumerPort, kNoChannel);
  upCh.consumer = consumer.id();
  upCh.consumerPort = consumerPort;
  consumer.bindInput(consumerPort, up);
  ++topoVersion_;
  return up;
}

bool Netlist::hasNode(NodeId id) const {
  return id < nodes_.size() && nodes_[id] != nullptr;
}

Node& Netlist::node(NodeId id) {
  ESL_CHECK(hasNode(id), "Netlist::node: unknown node id " + std::to_string(id));
  return *nodes_[id];
}

const Node& Netlist::node(NodeId id) const {
  ESL_CHECK(hasNode(id), "Netlist::node: unknown node id " + std::to_string(id));
  return *nodes_[id];
}

void Netlist::rebuildNameIndex() const {
  nodeByName_.clear();
  channelByName_.clear();
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (nodes_[i]) nodeByName_.emplace(nodes_[i]->name(), static_cast<NodeId>(i));
  for (std::size_t i = 0; i < channels_.size(); ++i)
    if (channelLive_[i])
      channelByName_.emplace(channels_[i].name, static_cast<ChannelId>(i));
  nameIndexVersion_ = topoVersion_;
}

const Node* Netlist::findNode(const std::string& name) const {
  if (nameIndexVersion_ != topoVersion_) rebuildNameIndex();
  const auto it = nodeByName_.find(name);
  return it == nodeByName_.end() ? nullptr : nodes_[it->second].get();
}

Node* Netlist::findNode(const std::string& name) {
  return const_cast<Node*>(std::as_const(*this).findNode(name));
}

void Netlist::renameNode(NodeId id, std::string name) {
  ESL_CHECK(hasNode(id), "Netlist::renameNode: unknown node");
  nodes_[id]->rename(std::move(name));
  // The rename invalidates the name index only, but versions are unified;
  // renames are rare and never happen mid-simulation.
  ++topoVersion_;
}

bool Netlist::hasChannel(ChannelId ch) const {
  return ch < channels_.size() && channelLive_[ch];
}

const Channel& Netlist::channel(ChannelId ch) const {
  ESL_CHECK(hasChannel(ch), "Netlist::channel: unknown channel id " + std::to_string(ch));
  return channels_[ch];
}

Channel& Netlist::channelMutable(ChannelId ch) {
  ESL_CHECK(hasChannel(ch), "Netlist::channel: unknown channel id " + std::to_string(ch));
  // Handing out a mutable Channel can invalidate any per-topology structure
  // (the name index, and the SignalBoard arena, which is sized from channel
  // widths). Bump the version so caches re-derive — and the width audit in
  // validate()/SignalBoard::layout() rejects a width that no longer matches
  // the endpoint ports instead of silently corrupting payload storage.
  ++topoVersion_;
  return channels_[ch];
}

const Channel* Netlist::findChannel(const std::string& name) const {
  if (nameIndexVersion_ != topoVersion_) rebuildNameIndex();
  const auto it = channelByName_.find(name);
  return it == channelByName_.end() ? nullptr : &channels_[it->second];
}

std::vector<NodeId> Netlist::nodeIds() const {
  std::vector<NodeId> ids;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (nodes_[i]) ids.push_back(static_cast<NodeId>(i));
  return ids;
}

std::vector<ChannelId> Netlist::channelIds() const {
  std::vector<ChannelId> ids;
  for (std::size_t i = 0; i < channels_.size(); ++i)
    if (channelLive_[i]) ids.push_back(static_cast<ChannelId>(i));
  return ids;
}

void Netlist::validate() const {
  for (const NodeId id : nodeIds()) {
    const Node& n = node(id);
    for (unsigned p = 0; p < n.numInputs(); ++p)
      ESL_CHECK(n.inputBound(p), "validate: unbound input port " + std::to_string(p) +
                                     " on node " + n.name());
    for (unsigned p = 0; p < n.numOutputs(); ++p)
      ESL_CHECK(n.outputBound(p), "validate: unbound output port " + std::to_string(p) +
                                      " on node " + n.name());
  }
  for (const ChannelId id : channelIds()) {
    const Channel& ch = channel(id);
    ESL_CHECK(hasNode(ch.producer) && hasNode(ch.consumer),
              "validate: dangling channel " + ch.name);
    ESL_CHECK(node(ch.producer).output(ch.producerPort) == id,
              "validate: producer binding inconsistent for " + ch.name);
    ESL_CHECK(node(ch.consumer).input(ch.consumerPort) == id,
              "validate: consumer binding inconsistent for " + ch.name);
    // Channel widths are load-bearing: the SignalBoard payload arena is laid
    // out from them. connect() checks them at creation; re-check here so a
    // post-hoc width edit (channelMutable-style surgery) is rejected at
    // build/validate time, before any kernel trusts the layout.
    ESL_CHECK(node(ch.producer).outputWidth(ch.producerPort) == ch.width &&
                  node(ch.consumer).inputWidth(ch.consumerPort) == ch.width,
              "validate: channel width drifted from its endpoint ports on " +
                  ch.name);
  }
}


std::vector<bool> Netlist::channelPersistence() const {
  // Non-persistence starts at the outputs of non-persistent blocks and flows
  // downstream through combinational (kDerived) outputs until it reaches a
  // registered one: a single worklist pass, each channel marked at most once.
  std::vector<bool> persistent(channels_.size(), true);
  std::vector<ChannelId> work;
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    if (!channelLive_[i]) continue;
    const Channel& c = channels_[i];
    if (node(c.producer).outputPersistence(c.producerPort) ==
        Node::Persistence::kNonPersistent) {
      persistent[i] = false;
      work.push_back(c.id);
    }
  }
  while (!work.empty()) {
    const Node& consumer = node(channels_[work.back()].consumer);
    work.pop_back();
    for (unsigned p = 0; p < consumer.numOutputs(); ++p) {
      if (!consumer.outputBound(p) ||
          consumer.outputPersistence(p) != Node::Persistence::kDerived)
        continue;
      const ChannelId out = consumer.output(p);
      if (!persistent[out]) continue;
      persistent[out] = false;
      work.push_back(out);
    }
  }
  return persistent;
}

logic::Cost Netlist::totalCost() const {
  logic::Cost total;
  for (const NodeId id : nodeIds()) total = total + node(id).cost();
  return total;
}

std::string Netlist::freshChannelName(const Node& producer, unsigned port) const {
  return producer.name() + ".out" + std::to_string(port);
}

}  // namespace esl
