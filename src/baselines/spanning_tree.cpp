#include "baselines/spanning_tree.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "graph/shortest_path.hpp"
#include "util/check.hpp"

namespace mot {

std::uint64_t EdgeRates::key(NodeId u, NodeId v) {
  const NodeId lo = std::min(u, v);
  const NodeId hi = std::max(u, v);
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

void EdgeRates::record(NodeId u, NodeId v, double rate) {
  MOT_EXPECTS(u != v && rate >= 0.0);
  rates_[key(u, v)] += rate;
}

double EdgeRates::rate(NodeId u, NodeId v) const {
  const auto it = rates_.find(key(u, v));
  return it == rates_.end() ? 0.0 : it->second;
}

bool SpanningTree::is_valid() const {
  const std::size_t n = parent.size();
  if (root >= n || parent[root] != root) return false;
  for (NodeId v = 0; v < n; ++v) {
    // Walk to the root; bounded by n steps (cycle detection).
    NodeId at = v;
    std::size_t steps = 0;
    while (at != root) {
      at = parent[at];
      if (++steps > n) return false;
    }
  }
  return true;
}

void recompute_depths(SpanningTree& tree) {
  const std::size_t n = tree.parent.size();
  tree.depth.assign(n, -1);
  tree.depth[tree.root] = 0;
  tree.max_depth = 0;
  for (NodeId v = 0; v < n; ++v) {
    // Walk up until a node with known depth, then unwind.
    std::vector<NodeId> path;
    NodeId at = v;
    while (tree.depth[at] < 0) {
      path.push_back(at);
      at = tree.parent[at];
      MOT_CHECK(path.size() <= n);  // acyclic
    }
    int d = tree.depth[at];
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      tree.depth[*it] = ++d;
    }
    tree.max_depth = std::max(tree.max_depth, tree.depth[v]);
  }
}

NodeId choose_sink(const Graph& graph) {
  const std::size_t n = graph.num_nodes();
  MOT_EXPECTS(n >= 1);
  if (graph.has_positions()) {
    double cx = 0.0;
    double cy = 0.0;
    for (NodeId v = 0; v < n; ++v) {
      cx += graph.position(v).x;
      cy += graph.position(v).y;
    }
    cx /= static_cast<double>(n);
    cy /= static_cast<double>(n);
    NodeId best = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    for (NodeId v = 0; v < n; ++v) {
      const double dx = graph.position(v).x - cx;
      const double dy = graph.position(v).y - cy;
      const double d = dx * dx + dy * dy;
      if (d < best_dist) {
        best_dist = d;
        best = v;
      }
    }
    return best;
  }
  // No embedding: pick the node with minimum eccentricity.
  NodeId best = 0;
  Weight best_ecc = kInfiniteDistance;
  for (NodeId v = 0; v < n; ++v) {
    const Weight ecc = eccentricity(graph, v);
    if (ecc < best_ecc) {
      best_ecc = ecc;
      best = v;
    }
  }
  return best;
}

bool Dendrogram::is_valid() const {
  if (root < 0 || static_cast<std::size_t>(root) >= nodes.size()) {
    return false;
  }
  if (nodes[root].parent != root) return false;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    std::size_t at = i;
    std::size_t steps = 0;
    while (static_cast<std::int32_t>(at) != root) {
      if (nodes[at].parent < 0) return false;
      at = static_cast<std::size_t>(nodes[at].parent);
      if (++steps > nodes.size()) return false;  // cycle
    }
    if (nodes[i].host == kInvalidNode) return false;
  }
  return true;
}

int Dendrogram::depth_of(std::size_t node) const {
  int depth = 0;
  std::size_t at = node;
  while (static_cast<std::int32_t>(at) != root) {
    at = static_cast<std::size_t>(nodes[at].parent);
    ++depth;
  }
  return depth;
}

int Dendrogram::max_depth() const {
  int deepest = 0;
  for (std::size_t leaf = 0; leaf < num_sensors; ++leaf) {
    deepest = std::max(deepest, depth_of(leaf));
  }
  return deepest;
}

Dendrogram build_stun_dendrogram(const Graph& graph, const EdgeRates& rates,
                                 NodeId sink, int threshold_buckets) {
  const std::size_t n = graph.num_nodes();
  MOT_EXPECTS(sink < n && threshold_buckets >= 1);

  // Drain-And-Balance as the paper describes it (Section 1.3): "subsets
  // are obtained by partitioning the sensors using detection rate
  // thresholds and high detection rate subsets are merged first" into
  // balanced subtrees. Sensors are bucketed by their detection rate (sum
  // of incident edge rates); within the active pool components pair up by
  // rate mass — rate-driven, geometry-oblivious pairing, which is exactly
  // the structural weakness Lin et al. and this paper demonstrate.
  std::vector<double> node_rate(n, 0.0);
  for (NodeId v = 0; v < n; ++v) {
    for (const Edge& e : graph.neighbors(v)) {
      node_rate[v] += rates.rate(v, e.to);
    }
  }

  // Sensors sorted by rate descending (ties by ID) and cut into classes.
  std::vector<NodeId> by_rate(n);
  std::iota(by_rate.begin(), by_rate.end(), 0);
  std::sort(by_rate.begin(), by_rate.end(), [&](NodeId a, NodeId b) {
    if (node_rate[a] != node_rate[b]) return node_rate[a] > node_rate[b];
    return a < b;
  });

  Dendrogram dendrogram;
  dendrogram.num_sensors = n;
  dendrogram.nodes.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    dendrogram.nodes[v] = {-1, v, node_rate[v]};
  }

  // Hosting: an internal logical node is hosted at the host of its
  // higher-rate ("drain") child.
  auto merge_pair = [&dendrogram](std::int32_t a,
                                  std::int32_t b) -> std::int32_t {
    Dendrogram::Node internal;
    internal.rate_mass =
        dendrogram.nodes[a].rate_mass + dendrogram.nodes[b].rate_mass;
    const bool a_drains =
        dendrogram.nodes[a].rate_mass > dendrogram.nodes[b].rate_mass ||
        (dendrogram.nodes[a].rate_mass == dendrogram.nodes[b].rate_mass &&
         a < b);
    internal.host =
        a_drains ? dendrogram.nodes[a].host : dendrogram.nodes[b].host;
    const auto index = static_cast<std::int32_t>(dendrogram.nodes.size());
    dendrogram.nodes[a].parent = index;
    dendrogram.nodes[b].parent = index;
    dendrogram.nodes.push_back(internal);
    return index;
  };

  const std::size_t class_size =
      std::max<std::size_t>(1, n / static_cast<std::size_t>(threshold_buckets));
  std::vector<std::int32_t> pool;  // active components (dendrogram nodes)
  std::size_t consumed = 0;
  while (consumed < n) {
    // Activate the next rate class.
    const std::size_t class_end = std::min(n, consumed + class_size);
    for (; consumed < class_end; ++consumed) {
      pool.push_back(static_cast<std::int32_t>(by_rate[consumed]));
    }
    const bool last_class = consumed >= n;
    // Balanced pairing: sort the pool by rate mass and merge neighbors.
    // Intermediate classes are drained down to a single carried subtree;
    // the final class merges everything into the root.
    while (pool.size() > 1) {
      std::sort(pool.begin(), pool.end(),
                [&dendrogram](std::int32_t a, std::int32_t b) {
                  const double ra = dendrogram.nodes[a].rate_mass;
                  const double rb = dendrogram.nodes[b].rate_mass;
                  if (ra != rb) return ra > rb;
                  return a < b;
                });
      std::vector<std::int32_t> next;
      for (std::size_t i = 0; i + 1 < pool.size(); i += 2) {
        next.push_back(merge_pair(pool[i], pool[i + 1]));
      }
      if (pool.size() % 2 == 1) next.push_back(pool.back());
      pool = std::move(next);
    }
    if (last_class) break;
  }
  MOT_CHECK(pool.size() == 1);

  dendrogram.root = pool[0];
  dendrogram.nodes[dendrogram.root].parent = dendrogram.root;
  // The sink hosts the root: it answers for the whole region.
  dendrogram.nodes[dendrogram.root].host = sink;
  MOT_ENSURES(dendrogram.is_valid());
  return dendrogram;
}

SpanningTree build_dat(const Graph& graph, const EdgeRates& rates,
                       NodeId sink) {
  const std::size_t n = graph.num_nodes();
  MOT_EXPECTS(sink < n);
  const ShortestPathTree from_sink = dijkstra(graph, sink);

  SpanningTree tree;
  tree.root = sink;
  tree.parent.resize(n);
  tree.parent[sink] = sink;
  for (NodeId v = 0; v < n; ++v) {
    if (v == sink) continue;
    MOT_CHECK(from_sink.distance[v] != kInfiniteDistance);
    // Deviation avoidance: the parent must lie on a shortest path to the
    // sink; among such predecessors take the highest detection rate.
    NodeId best = kInvalidNode;
    double best_rate = -1.0;
    for (const Edge& e : graph.neighbors(v)) {
      const bool on_shortest_path =
          std::abs(from_sink.distance[e.to] + e.weight -
                   from_sink.distance[v]) < 1e-9;
      if (!on_shortest_path) continue;
      const double r = rates.rate(v, e.to);
      if (r > best_rate || (r == best_rate && e.to < best)) {
        best_rate = r;
        best = e.to;
      }
    }
    MOT_CHECK(best != kInvalidNode);
    tree.parent[v] = best;
  }
  recompute_depths(tree);
  MOT_ENSURES(tree.is_valid());
  return tree;
}

namespace {

// Recursive-quadrant zone labels: zone_path(v)[d] is the quadrant index
// of v at quadtree depth d. Two nodes belong to the same depth-d zone iff
// their paths share a prefix of length d.
std::vector<std::vector<std::uint8_t>> zone_paths(const Graph& graph,
                                                  int max_depth) {
  const std::size_t n = graph.num_nodes();
  double min_x = std::numeric_limits<double>::infinity();
  double min_y = min_x;
  double max_x = -min_x;
  double max_y = -min_x;
  for (NodeId v = 0; v < n; ++v) {
    const auto& p = graph.position(v);
    min_x = std::min(min_x, p.x);
    min_y = std::min(min_y, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }
  max_x += 1e-9;
  max_y += 1e-9;

  std::vector<std::vector<std::uint8_t>> paths(n);
  for (NodeId v = 0; v < n; ++v) {
    double lo_x = min_x;
    double hi_x = max_x;
    double lo_y = min_y;
    double hi_y = max_y;
    const auto& p = graph.position(v);
    paths[v].reserve(max_depth);
    for (int d = 0; d < max_depth; ++d) {
      const double cx = (lo_x + hi_x) / 2.0;
      const double cy = (lo_y + hi_y) / 2.0;
      const int qx = p.x < cx ? 0 : 1;
      const int qy = p.y < cy ? 0 : 1;
      paths[v].push_back(static_cast<std::uint8_t>(qy * 2 + qx));
      (qx == 0 ? hi_x : lo_x) = cx;
      (qy == 0 ? hi_y : lo_y) = cy;
    }
  }
  return paths;
}

std::size_t common_prefix(const std::vector<std::uint8_t>& a,
                          const std::vector<std::uint8_t>& b) {
  std::size_t len = 0;
  while (len < a.size() && len < b.size() && a[len] == b[len]) ++len;
  return len;
}

}  // namespace

SpanningTree build_zdat(const Graph& graph, const DistanceOracle& oracle,
                        NodeId sink, std::size_t zone_capacity,
                        int max_zone_depth) {
  (void)oracle;
  (void)zone_capacity;
  const std::size_t n = graph.num_nodes();
  MOT_EXPECTS(sink < n);
  MOT_EXPECTS(graph.has_positions());  // zones need an embedding

  // Z-DAT is an in-network deviation-avoidance tree (every tree path to
  // the sink is a shortest path in G) whose parent choice prefers the
  // neighbor sharing the deepest recursive zone with the child, so a
  // subtree stays inside its zone as long as possible.
  const ShortestPathTree from_sink = dijkstra(graph, sink);
  const auto zones = zone_paths(graph, max_zone_depth);

  SpanningTree tree;
  tree.root = sink;
  tree.parent.resize(n);
  tree.parent[sink] = sink;
  for (NodeId v = 0; v < n; ++v) {
    if (v == sink) continue;
    MOT_CHECK(from_sink.distance[v] != kInfiniteDistance);
    NodeId best = kInvalidNode;
    std::size_t best_prefix = 0;
    for (const Edge& e : graph.neighbors(v)) {
      const bool on_shortest_path =
          std::abs(from_sink.distance[e.to] + e.weight -
                   from_sink.distance[v]) < 1e-9;
      if (!on_shortest_path) continue;
      const std::size_t prefix = common_prefix(zones[v], zones[e.to]);
      if (best == kInvalidNode || prefix > best_prefix ||
          (prefix == best_prefix && e.to < best)) {
        best = e.to;
        best_prefix = prefix;
      }
    }
    MOT_CHECK(best != kInvalidNode);
    tree.parent[v] = best;
  }
  recompute_depths(tree);
  MOT_ENSURES(tree.is_valid());
  return tree;
}

}  // namespace mot
