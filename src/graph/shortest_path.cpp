#include "graph/shortest_path.hpp"

#include <algorithm>
#include <deque>
#include <queue>

#include "par/thread_pool.hpp"
#include "util/check.hpp"

namespace mot {

std::vector<NodeId> ShortestPathTree::path_to(NodeId target) const {
  MOT_EXPECTS(target < distance.size());
  if (distance[target] == kInfiniteDistance) return {};
  std::vector<NodeId> path;
  for (NodeId at = target; at != kInvalidNode; at = parent[at]) {
    path.push_back(at);
    if (at == source) break;
  }
  std::reverse(path.begin(), path.end());
  MOT_ENSURES(!path.empty() && path.front() == source);
  return path;
}

namespace {

struct QueueEntry {
  Weight distance;
  NodeId node;
  bool operator>(const QueueEntry& other) const {
    return distance > other.distance;
  }
};

}  // namespace

ShortestPathTree dijkstra(const Graph& graph, NodeId source) {
  MOT_EXPECTS(source < graph.num_nodes());
  ShortestPathTree tree;
  tree.source = source;
  tree.distance.assign(graph.num_nodes(), kInfiniteDistance);
  tree.parent.assign(graph.num_nodes(), kInvalidNode);
  tree.distance[source] = 0.0;

  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue;
  queue.push({0.0, source});
  while (!queue.empty()) {
    const auto [dist, node] = queue.top();
    queue.pop();
    if (dist > tree.distance[node]) continue;  // stale entry
    for (const Edge& e : graph.neighbors(node)) {
      const Weight candidate = dist + e.weight;
      if (candidate < tree.distance[e.to]) {
        tree.distance[e.to] = candidate;
        tree.parent[e.to] = node;
        queue.push({candidate, e.to});
      }
    }
  }
  return tree;
}

std::span<const BallMember> BallSearch::around(const Graph& graph,
                                               NodeId source, Weight radius) {
  MOT_EXPECTS(source < graph.num_nodes());
  MOT_EXPECTS(radius >= 0.0);
  if (distance_.size() != graph.num_nodes()) {
    distance_.assign(graph.num_nodes(), kInfiniteDistance);
  } else {
    for (const BallMember& member : ball_) {
      distance_[member.node] = kInfiniteDistance;
    }
  }
  ball_.clear();
  // dijkstra()'s relaxation, cut at the radius. Every node given a
  // distance is pushed with it and later settled, so the settled list is
  // also the list of scratch slots the next call resets.
  const auto later = [](const BallMember& a, const BallMember& b) {
    return a.distance > b.distance;
  };
  distance_[source] = 0.0;
  heap_.assign(1, {source, 0.0});
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const BallMember top = heap_.back();
    heap_.pop_back();
    if (top.distance > distance_[top.node]) continue;  // stale entry
    ball_.push_back(top);
    for (const Edge& e : graph.neighbors(top.node)) {
      const Weight candidate = top.distance + e.weight;
      if (candidate > radius) continue;
      if (candidate < distance_[e.to]) {
        distance_[e.to] = candidate;
        heap_.push_back({e.to, candidate});
        std::push_heap(heap_.begin(), heap_.end(), later);
      }
    }
  }
  return ball_;
}

ShortestPathTree bfs_unit(const Graph& graph, NodeId source) {
  MOT_EXPECTS(source < graph.num_nodes());
  ShortestPathTree tree;
  tree.source = source;
  tree.distance.assign(graph.num_nodes(), kInfiniteDistance);
  tree.parent.assign(graph.num_nodes(), kInvalidNode);
  tree.distance[source] = 0.0;
  std::deque<NodeId> queue{source};
  while (!queue.empty()) {
    const NodeId node = queue.front();
    queue.pop_front();
    for (const Edge& e : graph.neighbors(node)) {
      MOT_EXPECTS(e.weight == 1.0);
      if (tree.distance[e.to] == kInfiniteDistance) {
        tree.distance[e.to] = tree.distance[node] + 1.0;
        tree.parent[e.to] = node;
        queue.push_back(e.to);
      }
    }
  }
  return tree;
}

bool has_unit_weights(const Graph& graph) {
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (const Edge& e : graph.neighbors(u)) {
      if (e.weight != 1.0) return false;
    }
  }
  return true;
}

namespace {

Weight eccentricity_of_tree(const ShortestPathTree& tree) {
  Weight ecc = 0.0;
  for (const Weight d : tree.distance) {
    MOT_CHECK(d != kInfiniteDistance);  // callers require connectivity
    ecc = std::max(ecc, d);
  }
  return ecc;
}

}  // namespace

Weight eccentricity(const Graph& graph, NodeId source) {
  return eccentricity_of_tree(dijkstra(graph, source));
}

Weight exact_diameter(const Graph& graph) {
  const std::size_t n = graph.num_nodes();
  if (n == 0) return 0.0;
  // One SSSP per node: independent, so fan the sources across the pool.
  // Unit-weight graphs (grids, rings — the common experiment topologies)
  // take the BFS fast path instead of paying Dijkstra's heap.
  const bool unit = has_unit_weights(graph);
  std::vector<Weight> ecc(n, 0.0);
  par::parallel_for_each(n, [&](std::size_t u) {
    const auto source = static_cast<NodeId>(u);
    ecc[u] = eccentricity_of_tree(unit ? bfs_unit(graph, source)
                                       : dijkstra(graph, source));
  });
  return *std::max_element(ecc.begin(), ecc.end());
}

Weight approx_diameter(const Graph& graph) {
  if (graph.num_nodes() <= 1) return 0.0;
  const ShortestPathTree first = dijkstra(graph, 0);
  NodeId farthest = 0;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    MOT_CHECK(first.distance[u] != kInfiniteDistance);
    if (first.distance[u] > first.distance[farthest]) farthest = u;
  }
  return eccentricity(graph, farthest);
}

}  // namespace mot
