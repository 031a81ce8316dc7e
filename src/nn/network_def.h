#ifndef MODELHUB_NN_NETWORK_DEF_H_
#define MODELHUB_NN_NETWORK_DEF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "nn/layer_def.h"

namespace modelhub {

/// The structural definition of a DNN: a named DAG of LayerDef nodes plus
/// the input shape. This is the "N" component of a model version (Sec.
/// III-A: Node(id, node, A) and Edge(from, to) tables) and the object DQL
/// slice/construct/mutate operate on. It carries no learned weights.
class NetworkDef {
 public:
  NetworkDef() = default;

  /// A network named `name` accepting C x H x W single-sample inputs.
  NetworkDef(std::string name, int64_t in_channels, int64_t in_height,
             int64_t in_width);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  int64_t in_channels() const { return in_channels_; }
  int64_t in_height() const { return in_height_; }
  int64_t in_width() const { return in_width_; }

  const std::vector<LayerDef>& nodes() const { return nodes_; }
  const std::vector<std::pair<std::string, std::string>>& edges() const {
    return edges_;
  }

  /// Appends `layer` and connects it after the current chain tail (the
  /// common way architectures are built). Fails on duplicate names.
  Status Append(LayerDef layer);

  /// Adds a node without connecting it.
  Status AddNode(LayerDef layer);

  /// Adds a directed edge between existing nodes.
  Status AddEdge(const std::string& from, const std::string& to);

  /// Returns the layer definition for `name`.
  Result<LayerDef> GetNode(const std::string& name) const;

  bool HasNode(const std::string& name) const;

  /// Successor / predecessor node names (the DQL `next` / `prev`
  /// attributes).
  std::vector<std::string> Next(const std::string& name) const;
  std::vector<std::string> Prev(const std::string& name) const;

  /// Names of nodes matching an anchored POSIX-extended regex — the DQL
  /// selector operator m["conv[1,3,5]"]. Returns names in insertion order.
  /// A pattern over 4096 bytes is InvalidArgument and is never compiled.
  Result<std::vector<std::string>> Select(const std::string& pattern) const;

  /// Inserts `layer` on the outgoing edge(s) of `after`: after -> X becomes
  /// after -> layer -> X (the DQL mutate/insert operation). If `after` has
  /// no outgoing edge the new node becomes the chain tail.
  Status InsertAfter(const std::string& after, LayerDef layer);

  /// Removes a node, reconnecting each predecessor to each successor (the
  /// DQL delete operation).
  Status DeleteNode(const std::string& name);

  /// Extracts the sub-network of all paths from `start` to `end` inclusive
  /// (the DQL slice operator). Input shape is preserved.
  Result<NetworkDef> Slice(const std::string& start,
                           const std::string& end) const;

  /// Full structural validation: unique names, per-layer hyperparameters,
  /// edge endpoints exist, acyclic.
  Status Validate() const;

  /// Topological order of node names; fails if the graph has a cycle.
  Result<std::vector<std::string>> TopoOrder() const;

  /// True when the DAG is a single chain (every node has <= 1 in and <= 1
  /// out edge, one source, one sink). The runtime engine executes chains.
  bool IsChain() const;

  /// Total learnable parameter count |W| (Table I), given shape inference
  /// from the input shape. Fails if the graph is not an executable DAG.
  Result<int64_t> ParameterCount() const;

  /// Line-based text serialization (stable; used by DLV commits).
  std::string Serialize() const;

  /// Inverse of Serialize.
  static Result<NetworkDef> Parse(const std::string& text);

  bool operator==(const NetworkDef& other) const;

 private:
  int FindIndex(const std::string& name) const;

  std::string name_;
  int64_t in_channels_ = 0;
  int64_t in_height_ = 0;
  int64_t in_width_ = 0;
  std::vector<LayerDef> nodes_;
  std::vector<std::pair<std::string, std::string>> edges_;
};

/// The output shape (C, H, W per sample) of one node after shape inference.
struct NodeShape {
  std::string name;
  int64_t c = 0;
  int64_t h = 0;
  int64_t w = 0;
};

/// Infers per-node output shapes along an executable chain, in topological
/// order. Fails if the definition is invalid, is not a chain, or a conv /
/// pool output shape underflows.
Result<std::vector<NodeShape>> InferChainShapes(const NetworkDef& def);

/// Per-node shapes of an executable DAG: the (first) input shape feeding
/// the node and its output shape.
struct DagNodeShape {
  std::string name;
  NodeShape in;
  NodeShape out;
};

/// Shape inference for general executable DAGs, in topological order.
/// Executable means: exactly one source (which consumes the network
/// input) and one sink; every kEltwiseAdd node has exactly two
/// predecessors with equal output shapes; every other non-source node has
/// exactly one predecessor. Fan-out (one node feeding several successors,
/// as in residual blocks) is unrestricted.
Result<std::vector<DagNodeShape>> InferDagShapes(const NetworkDef& def);

}  // namespace modelhub

#endif  // MODELHUB_NN_NETWORK_DEF_H_
