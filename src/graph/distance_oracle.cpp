#include "graph/distance_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "graph/shortest_path.hpp"
#include "util/check.hpp"

namespace mot {

namespace {

// One-entry per-thread memo of the last row fetched. Oracles get
// process-unique ids, so a stale entry can never alias a new oracle
// that reuses a freed address.
struct RowMemo {
  std::uint64_t oracle_id = 0;
  NodeId source = kInvalidNode;
  const std::vector<Weight>* row = nullptr;
};
thread_local RowMemo t_row_memo;

std::atomic<std::uint64_t> g_next_oracle_id{1};

}  // namespace

CachedDistanceOracle::CachedDistanceOracle(const Graph& graph)
    : graph_(&graph),
      unit_weights_(has_unit_weights(graph)),
      oracle_id_(g_next_oracle_id.fetch_add(1, std::memory_order_relaxed)),
      rows_(graph.num_nodes(), nullptr) {}

const std::vector<Weight>* CachedDistanceOracle::try_row(
    NodeId source) const {
  const Shard& shard = shards_[shard_of(source)];
  std::shared_lock<std::shared_mutex> lock(shard.mutex);
  return rows_[source];
}

const std::vector<Weight>* CachedDistanceOracle::row(NodeId source) const {
  Shard& shard = shards_[shard_of(source)];
  std::unique_lock<std::shared_mutex> lock(shard.mutex);
  if (rows_[source] != nullptr) return rows_[source];  // lost the race
  ShortestPathTree tree = unit_weights_ ? bfs_unit(*graph_, source)
                                        : dijkstra(*graph_, source);
  shard.owned.push_back(std::make_unique<const std::vector<Weight>>(
      std::move(tree.distance)));
  rows_[source] = shard.owned.back().get();
  cached_count_.fetch_add(1, std::memory_order_relaxed);
  return rows_[source];
}

Weight CachedDistanceOracle::distance(NodeId u, NodeId v) const {
  MOT_EXPECTS(u < graph_->num_nodes() && v < graph_->num_nodes());
  if (u == v) return 0.0;
  RowMemo& memo = t_row_memo;
  if (memo.oracle_id == oracle_id_) {
    if (memo.source == u) return (*memo.row)[v];
    if (memo.source == v) return (*memo.row)[u];
  }
  const std::vector<Weight>* row_ptr = try_row(u);
  if (row_ptr == nullptr) {
    // Prefer an already-cached endpoint as the source (distances are
    // symmetric), falling back to materializing u's row.
    const std::vector<Weight>* other = try_row(v);
    if (other != nullptr) {
      memo = {oracle_id_, v, other};
      return (*other)[u];
    }
    row_ptr = row(u);
  }
  memo = {oracle_id_, u, row_ptr};
  return (*row_ptr)[v];
}

GridDistanceOracle::GridDistanceOracle(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols) {
  MOT_EXPECTS(rows >= 1 && cols >= 1);
}

Weight GridDistanceOracle::distance(NodeId u, NodeId v) const {
  MOT_EXPECTS(u < num_nodes() && v < num_nodes());
  const auto ur = u / cols_;
  const auto uc = u % cols_;
  const auto vr = v / cols_;
  const auto vc = v % cols_;
  const auto dr = ur > vr ? ur - vr : vr - ur;
  const auto dc = uc > vc ? uc - vc : vc - uc;
  return static_cast<Weight>(dr + dc);
}

std::optional<GridShape> detect_grid(const Graph& graph) {
  const std::size_t n = graph.num_nodes();
  if (n == 0 || !has_unit_weights(graph)) return std::nullopt;
  // Infer cols from node 0's smallest "vertical" neighbor: in the
  // canonical numbering node 0 connects to node 1 (if cols > 1) and node
  // `cols` (if rows > 1).
  for (std::size_t cols = 1; cols <= n; ++cols) {
    if (n % cols != 0) continue;
    const std::size_t rows = n / cols;
    // Verify the full edge set matches a rows x cols 4-grid.
    std::size_t expected_edges =
        rows * (cols - 1) + cols * (rows - 1);
    if (graph.num_edges() != expected_edges) continue;
    bool ok = true;
    for (NodeId u = 0; u < n && ok; ++u) {
      const std::size_t r = u / cols;
      const std::size_t c = u % cols;
      std::size_t expected_degree = 0;
      auto expect = [&](std::size_t rr, std::size_t cc) {
        ++expected_degree;
        const auto v = static_cast<NodeId>(rr * cols + cc);
        if (graph.edge_weight(u, v) != 1.0) ok = false;
      };
      if (c + 1 < cols) expect(r, c + 1);
      if (c > 0) expect(r, c - 1);
      if (r + 1 < rows) expect(r + 1, c);
      if (r > 0) expect(r - 1, c);
      if (graph.degree(u) != expected_degree) ok = false;
    }
    if (ok) return GridShape{rows, cols};
  }
  return std::nullopt;
}

std::unique_ptr<DistanceOracle> make_distance_oracle(const Graph& graph) {
  if (const auto shape = detect_grid(graph)) {
    return std::make_unique<GridDistanceOracle>(shape->rows, shape->cols);
  }
  return std::make_unique<CachedDistanceOracle>(graph);
}

namespace {

// Greedy cover of B(center, radius) by radius/2 balls; the greedy cover
// size upper-bounds the optimal one, so it never over-reports dimension
// by more than the greedy factor.
std::size_t half_ball_cover_size(const Graph& graph, NodeId center,
                                 Weight radius, BallSearch& balls) {
  std::vector<NodeId> members;
  for (const BallMember& m : balls.around(graph, center, radius)) {
    members.push_back(m.node);
  }
  std::sort(members.begin(), members.end());
  std::vector<bool> covered(members.size(), false);
  std::size_t cover_size = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (covered[i]) continue;
    ++cover_size;
    for (const BallMember& m : balls.around(graph, members[i], radius / 2.0)) {
      const auto it = std::lower_bound(members.begin(), members.end(), m.node);
      if (it != members.end() && *it == m.node) {
        covered[static_cast<std::size_t>(it - members.begin())] = true;
      }
    }
  }
  return cover_size;
}

}  // namespace

double estimate_doubling_dimension(const Graph& graph, Rng& rng,
                                   std::size_t sample_count) {
  MOT_EXPECTS(graph.num_nodes() >= 2 && sample_count >= 1);
  const Weight diameter = approx_diameter(graph);

  // Centers: the highest-degree node (hubs betray high dimension) plus a
  // random sample. Radii: powers of two up to the diameter — the scale at
  // which a hub ball cannot be halved is easy to miss with random radii.
  std::vector<NodeId> centers;
  NodeId hub = 0;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (graph.degree(v) > graph.degree(hub)) hub = v;
  }
  centers.push_back(hub);
  for (std::size_t s = 0; s + 1 < sample_count; ++s) {
    centers.push_back(static_cast<NodeId>(rng.below(graph.num_nodes())));
  }

  std::size_t worst_cover = 1;
  BallSearch balls;
  for (const NodeId center : centers) {
    for (Weight radius = 1.0; radius <= std::max(1.0, diameter);
         radius *= 2.0) {
      worst_cover = std::max(
          worst_cover, half_ball_cover_size(graph, center, radius, balls));
    }
  }
  return std::log2(static_cast<double>(worst_cover));
}

}  // namespace mot
