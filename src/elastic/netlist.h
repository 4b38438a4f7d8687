// Netlist: the elastic system graph — nodes connected by channels.
//
// "An elastic system can be defined as a collection of blocks and FIFOs
// connected by channels" (paper §3). The netlist owns the nodes, tracks
// channel endpoints, validates connectivity, and supports the re-wiring
// operations the transformation kit (src/transform) needs.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "elastic/node.h"

namespace esl {

class Netlist {
 public:
  Netlist() = default;
  Netlist(const Netlist&) = delete;
  Netlist& operator=(const Netlist&) = delete;
  Netlist(Netlist&&) = default;
  Netlist& operator=(Netlist&&) = default;

  /// Constructs a node in place and registers it. Returns a stable reference.
  template <typename T, typename... Args>
  T& make(Args&&... args) {
    auto owned = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *owned;
    addNode(std::move(owned));
    return ref;
  }

  NodeId addNode(std::unique_ptr<Node> node);

  /// Reserves room for `nodes` more nodes and `channels` more channels.
  void reserve(std::size_t nodes, std::size_t channels);

  /// Removes a node; all its channels must be unbound/removed first.
  void removeNode(NodeId id);

  /// Creates a channel producer.out[producerPort] -> consumer.in[consumerPort].
  /// Width is taken from the producer port and checked against the consumer.
  ChannelId connect(Node& producer, unsigned producerPort, Node& consumer,
                    unsigned consumerPort, std::string name = {});

  /// Deletes a channel, unbinding both endpoints.
  void disconnect(ChannelId ch);

  /// Moves the consumer endpoint of `ch` to another node/port (re-wiring).
  void rebindConsumer(ChannelId ch, Node& consumer, unsigned consumerPort);
  /// Moves the producer endpoint of `ch` to another node/port.
  void rebindProducer(ChannelId ch, Node& producer, unsigned producerPort);

  /// Splices `node` (1 input, 1 output) into channel `ch`:
  /// producer -> node stays on `ch`; a new channel node -> consumer is made.
  /// Returns the new downstream channel.
  ChannelId insertOnChannel(ChannelId ch, Node& node);

  /// Removes a 1-in/1-out node from the middle of a path, reconnecting its
  /// upstream channel to its downstream consumer. The downstream channel is
  /// deleted. Returns the surviving channel.
  ChannelId bypassNode(NodeId id);

  bool hasNode(NodeId id) const;
  Node& node(NodeId id);
  const Node& node(NodeId id) const;
  /// First node with the given name, or nullptr. O(1) amortized: both name
  /// lookups hit a hash index rebuilt lazily per topologyVersion().
  Node* findNode(const std::string& name);
  const Node* findNode(const std::string& name) const;

  /// Renames a node, keeping the name index coherent (the reason Node has no
  /// public rename of its own).
  void renameNode(NodeId id, std::string name);

  bool hasChannel(ChannelId ch) const;
  const Channel& channel(ChannelId ch) const;
  Channel& channelMutable(ChannelId ch);
  /// First channel with the given name, or nullptr. Same index as findNode.
  const Channel* findChannel(const std::string& name) const;

  /// Live node ids in insertion order.
  std::vector<NodeId> nodeIds() const;
  /// Live channel ids in insertion order.
  std::vector<ChannelId> channelIds() const;
  std::size_t channelCapacity() const { return channels_.size(); }
  std::size_t nodeCapacity() const { return nodes_.size(); }

  /// Bumped by every structural mutation (add/remove node, connect,
  /// disconnect, rebind, splice, rename). What is derived from the topology
  /// — the lazy name index here; a SimContext's board, records and channel
  /// adjacency — compares it to detect staleness and is rebuilt from the
  /// node and channel lists.
  std::uint64_t topologyVersion() const { return topoVersion_; }

  /// Throws NetlistError unless every port of every node is bound and every
  /// channel has both endpoints with matching widths.
  void validate() const;

  /// Sums node costs (area report input).
  logic::Cost totalCost() const;

  /// Retry+ persistence of every channel, indexed by ChannelId
  /// (channelCapacity() entries; dead ids read true). Resolves
  /// Node::Persistence::kDerived transitively: a channel obeys Retry+
  /// persistence unless its producer (or any combinational ancestor) is a
  /// non-persistent block (paper §4.2).
  std::vector<bool> channelPersistence() const;

 private:
  std::string freshChannelName(const Node& producer, unsigned port) const;
  void rebuildNameIndex() const;

  std::vector<std::unique_ptr<Node>> nodes_;  // nullptr = removed slot
  std::vector<Channel> channels_;             // id == kNoChannel marks removed
  std::vector<bool> channelLive_;

  std::uint64_t topoVersion_ = 0;

  // Name -> id index behind findNode/findChannel, rebuilt lazily whenever
  // the topology version moves (renameNode bumps it too). A duplicated name
  // resolves to its first insertion.
  mutable std::unordered_map<std::string, NodeId> nodeByName_;
  mutable std::unordered_map<std::string, ChannelId> channelByName_;
  mutable std::uint64_t nameIndexVersion_ = ~std::uint64_t{0};
};

}  // namespace esl
