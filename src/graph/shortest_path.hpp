// Single-source shortest paths (Dijkstra, with a BFS fast path for
// unit-weight graphs) and path extraction. All tracking-cost accounting
// reduces to distances computed here.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace mot {

struct ShortestPathTree {
  NodeId source = kInvalidNode;
  std::vector<Weight> distance;   // kInfiniteDistance if unreachable
  std::vector<NodeId> parent;     // kInvalidNode for source/unreachable

  // Nodes on the shortest path source -> target, inclusive of both ends.
  // Empty if target is unreachable.
  std::vector<NodeId> path_to(NodeId target) const;
};

// Full Dijkstra from `source`.
ShortestPathTree dijkstra(const Graph& graph, NodeId source);

struct BallMember {
  NodeId node = kInvalidNode;
  Weight distance = 0.0;
};

// Dijkstra truncated at a radius, for cluster construction, where only a
// bounded neighborhood matters. The scratch is sized once per graph and
// reset through the previous ball, so a call costs the ball and the
// edges leaving it, not n.
class BallSearch {
 public:
  // The nodes within `radius` of `source` (distance <= radius), each once
  // with its distance, in settle order. Valid until the next call.
  std::span<const BallMember> around(const Graph& graph, NodeId source,
                                     Weight radius);

 private:
  std::vector<Weight> distance_;  // kInfiniteDistance outside the ball
  std::vector<BallMember> ball_;
  std::vector<BallMember> heap_;  // min-heap on distance
};

// BFS distances for graphs whose edges all weigh exactly 1 (grids, rings).
// Falls back on a contract failure if the graph is weighted.
ShortestPathTree bfs_unit(const Graph& graph, NodeId source);

// True when every edge weight equals 1 (enables the BFS fast path).
bool has_unit_weights(const Graph& graph);

// Exact eccentricity of `source` (max distance to any node).
Weight eccentricity(const Graph& graph, NodeId source);

// Exact diameter by running SSSP from every node. O(n * SSSP); fine for
// the experiment sizes (<= a few thousand nodes).
Weight exact_diameter(const Graph& graph);

// Two-sweep lower bound on the diameter (exact on trees, excellent on
// grids): eccentricity of the farthest node from an arbitrary start.
Weight approx_diameter(const Graph& graph);

}  // namespace mot
