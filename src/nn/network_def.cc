#include "nn/network_def.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "common/macros.h"

namespace modelhub {

namespace {

/// Longest selector Select compiles. libstdc++'s regex compiler recurses
/// once per pattern element, so a 100 000-byte selector from one DQL query
/// overflows the stack; layer-name patterns are far shorter than this.
constexpr size_t kMaxSelectorBytes = 4096;

/// Non-throwing integer / float parsing for untrusted serialized input.
bool ParseInt64(const std::string& text, int64_t* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno == ERANGE || end != text.c_str() + text.size()) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

bool ParseFloat(const std::string& text, float* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const float v = std::strtof(text.c_str(), &end);
  if (errno == ERANGE || end != text.c_str() + text.size()) return false;
  *out = v;
  return true;
}

}  // namespace

NetworkDef::NetworkDef(std::string name, int64_t in_channels,
                       int64_t in_height, int64_t in_width)
    : name_(std::move(name)),
      in_channels_(in_channels),
      in_height_(in_height),
      in_width_(in_width) {}

int NetworkDef::FindIndex(const std::string& name) const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Status NetworkDef::AddNode(LayerDef layer) {
  MH_RETURN_IF_ERROR(layer.Validate());
  if (FindIndex(layer.name) >= 0) {
    return Status::AlreadyExists("duplicate node name: " + layer.name);
  }
  nodes_.push_back(std::move(layer));
  return Status::OK();
}

Status NetworkDef::Append(LayerDef layer) {
  const std::string tail =
      nodes_.empty() ? std::string() : nodes_.back().name;
  MH_RETURN_IF_ERROR(AddNode(std::move(layer)));
  if (!tail.empty()) {
    return AddEdge(tail, nodes_.back().name);
  }
  return Status::OK();
}

Status NetworkDef::AddEdge(const std::string& from, const std::string& to) {
  if (FindIndex(from) < 0) return Status::NotFound("no node: " + from);
  if (FindIndex(to) < 0) return Status::NotFound("no node: " + to);
  for (const auto& e : edges_) {
    if (e.first == from && e.second == to) {
      return Status::AlreadyExists("duplicate edge " + from + "->" + to);
    }
  }
  edges_.emplace_back(from, to);
  return Status::OK();
}

Result<LayerDef> NetworkDef::GetNode(const std::string& name) const {
  const int i = FindIndex(name);
  if (i < 0) return Status::NotFound("no node: " + name);
  return nodes_[i];
}

bool NetworkDef::HasNode(const std::string& name) const {
  return FindIndex(name) >= 0;
}

std::vector<std::string> NetworkDef::Next(const std::string& name) const {
  std::vector<std::string> out;
  for (const auto& e : edges_) {
    if (e.first == name) out.push_back(e.second);
  }
  return out;
}

std::vector<std::string> NetworkDef::Prev(const std::string& name) const {
  std::vector<std::string> out;
  for (const auto& e : edges_) {
    if (e.second == name) out.push_back(e.first);
  }
  return out;
}

Result<std::vector<std::string>> NetworkDef::Select(
    const std::string& pattern) const {
  if (pattern.size() > kMaxSelectorBytes) {
    return Status::InvalidArgument(
        "selector regex longer than " + std::to_string(kMaxSelectorBytes) +
        " bytes");
  }
  std::regex re;
  try {
    re = std::regex(pattern, std::regex::extended);
  } catch (const std::regex_error&) {
    return Status::InvalidArgument("bad selector regex: " + pattern);
  }
  std::vector<std::string> out;
  for (const auto& node : nodes_) {
    if (std::regex_match(node.name, re)) out.push_back(node.name);
  }
  return out;
}

Status NetworkDef::InsertAfter(const std::string& after, LayerDef layer) {
  if (FindIndex(after) < 0) return Status::NotFound("no node: " + after);
  MH_RETURN_IF_ERROR(AddNode(layer));
  const std::string inserted = layer.name;
  // Collect the successors first: AddEdge below mutates edges_.
  std::vector<std::string> successors;
  for (const auto& e : edges_) {
    if (e.first == after) successors.push_back(e.second);
  }
  if (successors.empty()) {
    // `after` is the tail: the new node becomes the tail.
    return AddEdge(after, inserted);
  }
  // Split every after -> X into after -> inserted -> X.
  edges_.erase(std::remove_if(edges_.begin(), edges_.end(),
                              [&](const auto& e) { return e.first == after; }),
               edges_.end());
  MH_RETURN_IF_ERROR(AddEdge(after, inserted));
  std::sort(successors.begin(), successors.end());
  successors.erase(std::unique(successors.begin(), successors.end()),
                   successors.end());
  for (const auto& successor : successors) {
    MH_RETURN_IF_ERROR(AddEdge(inserted, successor));
  }
  return Status::OK();
}

Status NetworkDef::DeleteNode(const std::string& name) {
  const int idx = FindIndex(name);
  if (idx < 0) return Status::NotFound("no node: " + name);
  const std::vector<std::string> preds = Prev(name);
  const std::vector<std::string> succs = Next(name);
  edges_.erase(std::remove_if(edges_.begin(), edges_.end(),
                              [&](const auto& e) {
                                return e.first == name || e.second == name;
                              }),
               edges_.end());
  nodes_.erase(nodes_.begin() + idx);
  for (const auto& p : preds) {
    for (const auto& s : succs) {
      bool exists = false;
      for (const auto& e : edges_) {
        if (e.first == p && e.second == s) exists = true;
      }
      if (!exists) edges_.emplace_back(p, s);
    }
  }
  return Status::OK();
}

Result<NetworkDef> NetworkDef::Slice(const std::string& start,
                                     const std::string& end) const {
  if (FindIndex(start) < 0) return Status::NotFound("no node: " + start);
  if (FindIndex(end) < 0) return Status::NotFound("no node: " + end);
  // Forward reachability from start.
  std::set<std::string> fwd;
  std::vector<std::string> stack = {start};
  while (!stack.empty()) {
    const std::string n = stack.back();
    stack.pop_back();
    if (!fwd.insert(n).second) continue;
    for (const auto& s : Next(n)) stack.push_back(s);
  }
  // Backward reachability from end.
  std::set<std::string> bwd;
  stack = {end};
  while (!stack.empty()) {
    const std::string n = stack.back();
    stack.pop_back();
    if (!bwd.insert(n).second) continue;
    for (const auto& p : Prev(n)) stack.push_back(p);
  }
  std::set<std::string> keep;
  std::set_intersection(fwd.begin(), fwd.end(), bwd.begin(), bwd.end(),
                        std::inserter(keep, keep.begin()));
  if (keep.empty() || keep.count(start) == 0 || keep.count(end) == 0) {
    return Status::InvalidArgument("slice: no path from " + start + " to " +
                                   end);
  }
  NetworkDef out(name_ + ":" + start + ".." + end, in_channels_, in_height_,
                 in_width_);
  for (const auto& node : nodes_) {
    if (keep.count(node.name)) {
      MH_RETURN_IF_ERROR(out.AddNode(node));
    }
  }
  for (const auto& e : edges_) {
    if (keep.count(e.first) && keep.count(e.second)) {
      MH_RETURN_IF_ERROR(out.AddEdge(e.first, e.second));
    }
  }
  return out;
}

Status NetworkDef::Validate() const {
  if (in_channels_ <= 0 || in_height_ <= 0 || in_width_ <= 0) {
    return Status::InvalidArgument("network " + name_ + ": bad input shape");
  }
  std::set<std::string> names;
  for (const auto& node : nodes_) {
    MH_RETURN_IF_ERROR(node.Validate());
    if (!names.insert(node.name).second) {
      return Status::InvalidArgument("duplicate node name: " + node.name);
    }
  }
  for (const auto& e : edges_) {
    if (names.count(e.first) == 0 || names.count(e.second) == 0) {
      return Status::InvalidArgument("edge references missing node: " +
                                     e.first + "->" + e.second);
    }
  }
  return TopoOrder().status();
}

Result<std::vector<std::string>> NetworkDef::TopoOrder() const {
  std::map<std::string, int> in_degree;
  for (const auto& node : nodes_) in_degree[node.name] = 0;
  for (const auto& e : edges_) in_degree[e.second]++;
  // Kahn's algorithm, preferring insertion order for determinism.
  std::vector<std::string> order;
  std::vector<bool> done(nodes_.size(), false);
  while (order.size() < nodes_.size()) {
    bool progressed = false;
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (done[i] || in_degree[nodes_[i].name] != 0) continue;
      done[i] = true;
      order.push_back(nodes_[i].name);
      for (const auto& s : Next(nodes_[i].name)) in_degree[s]--;
      progressed = true;
    }
    if (!progressed) {
      return Status::InvalidArgument("network " + name_ + " has a cycle");
    }
  }
  return order;
}

bool NetworkDef::IsChain() const {
  if (nodes_.empty()) return false;
  int sources = 0;
  int sinks = 0;
  for (const auto& node : nodes_) {
    const size_t out_deg = Next(node.name).size();
    const size_t in_deg = Prev(node.name).size();
    if (out_deg > 1 || in_deg > 1) return false;
    if (in_deg == 0) ++sources;
    if (out_deg == 0) ++sinks;
  }
  return sources == 1 && sinks == 1 && TopoOrder().ok();
}

Result<int64_t> NetworkDef::ParameterCount() const {
  MH_ASSIGN_OR_RETURN(std::vector<DagNodeShape> shapes, InferDagShapes(*this));
  int64_t total = 0;
  for (const auto& ns : shapes) {
    MH_ASSIGN_OR_RETURN(LayerDef node, GetNode(ns.name));
    if (node.kind == LayerKind::kConv) {
      total += node.num_output * ns.in.c * node.kernel * node.kernel +
               node.num_output;
    } else if (node.kind == LayerKind::kFull) {
      total +=
          node.num_output * (ns.in.c * ns.in.h * ns.in.w) + node.num_output;
    }
  }
  return total;
}

std::string NetworkDef::Serialize() const {
  std::ostringstream out;
  out << "network " << name_ << "\n";
  out << "input " << in_channels_ << " " << in_height_ << " " << in_width_
      << "\n";
  for (const auto& node : nodes_) {
    out << "node " << node.name << " " << LayerKindToString(node.kind);
    const std::string attrs = node.AttributesString();
    if (!attrs.empty()) out << " " << attrs;
    out << "\n";
  }
  for (const auto& e : edges_) {
    out << "edge " << e.first << " " << e.second << "\n";
  }
  return out.str();
}

Result<NetworkDef> NetworkDef::Parse(const std::string& text) {
  NetworkDef def;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "network") {
      ls >> def.name_;
    } else if (tag == "input") {
      ls >> def.in_channels_ >> def.in_height_ >> def.in_width_;
      if (ls.fail()) {
        return Status::Corruption("network parse: bad input line");
      }
    } else if (tag == "node") {
      LayerDef node;
      std::string kind;
      ls >> node.name >> kind;
      MH_ASSIGN_OR_RETURN(node.kind, LayerKindFromString(kind));
      std::string attr;
      while (ls >> attr) {
        const size_t eq = attr.find('=');
        if (eq == std::string::npos) {
          return Status::Corruption("network parse: bad attribute " + attr);
        }
        const std::string key = attr.substr(0, eq);
        const std::string value = attr.substr(eq + 1);
        bool ok = true;
        if (key == "n") {
          ok = ParseInt64(value, &node.num_output);
        } else if (key == "k") {
          ok = ParseInt64(value, &node.kernel);
        } else if (key == "s") {
          ok = ParseInt64(value, &node.stride);
        } else if (key == "p") {
          ok = ParseInt64(value, &node.pad);
        } else if (key == "mode") {
          node.pool_mode = value == "avg" ? PoolMode::kAvg : PoolMode::kMax;
        } else if (key == "ratio") {
          ok = ParseFloat(value, &node.dropout_ratio);
        } else if (key == "size") {
          ok = ParseInt64(value, &node.lrn_local_size);
        } else if (key == "alpha") {
          ok = ParseFloat(value, &node.lrn_alpha);
        } else if (key == "beta") {
          ok = ParseFloat(value, &node.lrn_beta);
        } else if (key == "k0") {
          ok = ParseFloat(value, &node.lrn_k);
        } else {
          return Status::Corruption("network parse: unknown attribute " +
                                    key);
        }
        if (!ok) {
          return Status::Corruption("network parse: bad value for " + key +
                                    ": " + value);
        }
      }
      MH_RETURN_IF_ERROR(def.AddNode(std::move(node)));
    } else if (tag == "edge") {
      std::string from;
      std::string to;
      ls >> from >> to;
      MH_RETURN_IF_ERROR(def.AddEdge(from, to));
    } else {
      return Status::Corruption("network parse: unknown tag " + tag);
    }
  }
  return def;
}

bool NetworkDef::operator==(const NetworkDef& other) const {
  return name_ == other.name_ && in_channels_ == other.in_channels_ &&
         in_height_ == other.in_height_ && in_width_ == other.in_width_ &&
         nodes_ == other.nodes_ && edges_ == other.edges_;
}

Result<std::vector<NodeShape>> InferChainShapes(const NetworkDef& def) {
  if (!def.IsChain()) {
    return Status::InvalidArgument("network " + def.name() +
                                   " is not an executable chain");
  }
  MH_ASSIGN_OR_RETURN(std::vector<DagNodeShape> shapes, InferDagShapes(def));
  std::vector<NodeShape> out;
  for (const auto& ns : shapes) {
    out.push_back(NodeShape{ns.name, ns.out.c, ns.out.h, ns.out.w});
  }
  return out;
}

namespace {

/// Output shape of one layer given its (first) input shape.
Result<NodeShape> LayerOutputShape(const LayerDef& node, const NodeShape& in) {
  NodeShape out{node.name, in.c, in.h, in.w};
  switch (node.kind) {
    case LayerKind::kConv: {
      const int64_t oh =
          (in.h + 2 * node.pad - node.kernel) / node.stride + 1;
      const int64_t ow =
          (in.w + 2 * node.pad - node.kernel) / node.stride + 1;
      if (oh <= 0 || ow <= 0) {
        return Status::InvalidArgument("conv " + node.name +
                                       ": output shape underflow");
      }
      out.c = node.num_output;
      out.h = oh;
      out.w = ow;
      break;
    }
    case LayerKind::kPool: {
      const int64_t oh = (in.h - node.kernel) / node.stride + 1;
      const int64_t ow = (in.w - node.kernel) / node.stride + 1;
      if (oh <= 0 || ow <= 0) {
        return Status::InvalidArgument("pool " + node.name +
                                       ": output shape underflow");
      }
      out.h = oh;
      out.w = ow;
      break;
    }
    case LayerKind::kFull:
      out.c = node.num_output;
      out.h = 1;
      out.w = 1;
      break;
    case LayerKind::kFlatten:
      out.c = in.c * in.h * in.w;
      out.h = 1;
      out.w = 1;
      break;
    default:
      break;  // Shape-preserving layers (incl. kEltwiseAdd).
  }
  return out;
}

}  // namespace

Result<std::vector<DagNodeShape>> InferDagShapes(const NetworkDef& def) {
  MH_RETURN_IF_ERROR(def.Validate());
  MH_ASSIGN_OR_RETURN(std::vector<std::string> order, def.TopoOrder());
  if (order.empty()) {
    return Status::InvalidArgument("network " + def.name() + " is empty");
  }
  // Structural checks: one source, one sink, in-degrees by kind.
  int sources = 0;
  int sinks = 0;
  for (const auto& name : order) {
    if (def.Prev(name).empty()) ++sources;
    if (def.Next(name).empty()) ++sinks;
  }
  if (sources != 1 || sinks != 1) {
    return Status::InvalidArgument(
        "network " + def.name() + " must have exactly one source and sink");
  }

  const NodeShape input_shape{"", def.in_channels(), def.in_height(),
                              def.in_width()};
  std::map<std::string, NodeShape> out_shapes;
  std::vector<DagNodeShape> result;
  for (const auto& name : order) {
    MH_ASSIGN_OR_RETURN(LayerDef node, def.GetNode(name));
    const std::vector<std::string> preds = def.Prev(name);
    NodeShape in;
    if (node.kind == LayerKind::kEltwiseAdd) {
      if (preds.size() != 2) {
        return Status::InvalidArgument("add node " + name +
                                       " needs exactly two inputs");
      }
      const NodeShape& a = out_shapes[preds[0]];
      const NodeShape& b = out_shapes[preds[1]];
      if (a.c != b.c || a.h != b.h || a.w != b.w) {
        return Status::InvalidArgument("add node " + name +
                                       ": input shape mismatch");
      }
      in = a;
    } else if (preds.empty()) {
      in = input_shape;  // The single source.
    } else if (preds.size() == 1) {
      in = out_shapes[preds[0]];
    } else {
      return Status::InvalidArgument("node " + name +
                                     " has multiple inputs but is not add");
    }
    MH_ASSIGN_OR_RETURN(NodeShape out, LayerOutputShape(node, in));
    out_shapes[name] = out;
    result.push_back(DagNodeShape{name, in, out});
  }
  return result;
}

}  // namespace modelhub
