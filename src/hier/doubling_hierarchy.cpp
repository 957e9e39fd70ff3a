#include "hier/doubling_hierarchy.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/log.hpp"

namespace mot {

namespace {

// Safety bound on hierarchy height: 2^64 exceeds any representable
// diameter, so the level loop must terminate long before this.
constexpr int kMaxLevels = 60;

}  // namespace

std::unique_ptr<DoublingHierarchy> DoublingHierarchy::build(
    const Graph& graph, const DistanceOracle& oracle, const Params& params) {
  MOT_EXPECTS(graph.num_nodes() >= 1);
  MOT_EXPECTS(params.parent_radius_factor >= 1.0);

  auto hierarchy = std::unique_ptr<DoublingHierarchy>(new DoublingHierarchy());
  hierarchy->graph_ = &graph;
  hierarchy->oracle_ = &oracle;

  Rng rng(params.seed);
  const std::size_t n = graph.num_nodes();

  auto index_members = [n](Level& level) {
    level.membership.assign(n, false);
    level.slot.assign(n, kNoSlot);
    for (std::uint32_t i = 0; i < level.member_list.size(); ++i) {
      const NodeId v = level.member_list[i];
      level.membership[v] = true;
      level.slot[v] = i;
    }
  };

  // Level 0: every sensor.
  Level bottom;
  bottom.member_list.resize(n);
  for (NodeId v = 0; v < n; ++v) bottom.member_list[v] = v;
  index_members(bottom);
  hierarchy->levels_.push_back(std::move(bottom));

  // Refine: V_{l+1} = MIS of (V_l, {(u,v) : dist_G(u,v) < 2^{l+1}}).
  // Each member's ball yields its neighbors, listed by ascending slot.
  BallSearch balls;
  for (int level = 0; hierarchy->levels_[level].member_list.size() > 1;
       ++level) {
    MOT_CHECK(level < kMaxLevels);
    const Level& current = hierarchy->levels_[level];
    const Weight radius = std::ldexp(1.0, level + 1);  // 2^{l+1}

    MisInstance instance;
    instance.vertices = current.member_list;
    instance.neighbors.resize(current.member_list.size());
    for (std::uint32_t i = 0; i < current.member_list.size(); ++i) {
      auto& neighbors = instance.neighbors[i];
      const NodeId center = current.member_list[i];
      for (const BallMember& m : balls.around(graph, center, radius)) {
        if (m.node != center && m.distance < radius &&
            current.membership[m.node]) {
          neighbors.push_back(current.slot[m.node]);
        }
      }
      std::sort(neighbors.begin(), neighbors.end());
    }

    MisResult mis = luby_mis(instance, rng);
    hierarchy->total_mis_rounds_ += mis.rounds;

    Level next;
    next.member_list = std::move(mis.members);
    index_members(next);
    hierarchy->levels_.push_back(std::move(next));
  }

  // Parent structure: for target level t, scan a bounded ball around each
  // V_t member and register it in the parent set of every V_{t-1} member
  // found (radius factor * 2^t, the paper's 4 * 2^{l+1}). Accumulated
  // per-child, then flattened into the CSR arrays the climb loop reads.
  for (int target = 1; target <= hierarchy->height(); ++target) {
    Level& upper = hierarchy->levels_[target];
    const Level& lower = hierarchy->levels_[target - 1];
    const std::size_t lower_count = lower.member_list.size();
    const Weight radius =
        params.parent_radius_factor * std::ldexp(1.0, target);

    // Parent lists and best (distance, parent), per lower member slot.
    std::vector<std::vector<NodeId>> sets(lower_count);
    std::vector<std::pair<Weight, NodeId>> best(
        lower_count, {kInfiniteDistance, kInvalidNode});
    for (const NodeId parent : upper.member_list) {
      for (const BallMember& m : balls.around(graph, parent, radius)) {
        if (!lower.membership[m.node]) continue;
        const std::uint32_t s = lower.slot[m.node];
        sets[s].push_back(parent);
        if (m.distance < best[s].first ||
            (m.distance == best[s].first && parent < best[s].second)) {
          best[s] = {m.distance, parent};
        }
      }
    }

    upper.parent_offsets.assign(lower_count + 1, 0);
    std::size_t total = 0;
    for (std::uint32_t s = 0; s < lower_count; ++s) {
      upper.parent_offsets[s] = total;
      total += sets[s].size();
    }
    upper.parent_offsets[lower_count] = total;
    upper.parent_data.reserve(total);
    upper.default_parents.resize(lower_count);
    for (std::uint32_t s = 0; s < lower_count; ++s) {
      std::sort(sets[s].begin(), sets[s].end());
      upper.parent_data.insert(upper.parent_data.end(), sets[s].begin(),
                               sets[s].end());
      // Maximality of the MIS guarantees a parent within 2^t < radius.
      MOT_CHECK(best[s].second != kInvalidNode);
      upper.default_parents[s] = best[s].second;
    }
  }

  hierarchy->cluster_slots_ = std::vector<
      std::atomic<const std::vector<NodeId>*>>(
      static_cast<std::size_t>(hierarchy->height() + 1) * n);
  for (auto& slot : hierarchy->cluster_slots_) {
    slot.store(nullptr, std::memory_order_relaxed);
  }

  MOT_ENSURES(hierarchy->levels_.back().member_list.size() == 1);
  MOT_LOG_DEBUG("DoublingHierarchy: n=%zu height=%d root=%u mis_rounds=%zu",
                n, hierarchy->height(),
                hierarchy->levels_.back().member_list[0],
                hierarchy->total_mis_rounds_);
  return hierarchy;
}

DoublingHierarchy::State DoublingHierarchy::export_state() const {
  State state;
  state.num_nodes = graph_->num_nodes();
  state.total_mis_rounds = total_mis_rounds_;
  state.levels.reserve(levels_.size());
  for (const Level& level : levels_) {
    LevelState out;
    out.member_list = level.member_list;
    out.parent_offsets = level.parent_offsets;
    out.parent_data = level.parent_data;
    out.default_parents = level.default_parents;
    state.levels.push_back(std::move(out));
  }
  return state;
}

std::unique_ptr<DoublingHierarchy> DoublingHierarchy::from_state(
    const Graph& graph, const DistanceOracle& oracle, const State& state) {
  const std::size_t n = graph.num_nodes();
  // Structural validation first; the state came off a disk and gets no
  // benefit of the doubt. Everything checked here is what group()/home()
  // index into without further bounds checks.
  if (n < 1 || state.num_nodes != n) return nullptr;
  if (state.levels.empty()) return nullptr;
  if (state.levels.back().member_list.size() != 1) return nullptr;
  for (std::size_t l = 0; l < state.levels.size(); ++l) {
    const LevelState& level = state.levels[l];
    if (level.member_list.empty()) return nullptr;
    if (!std::is_sorted(level.member_list.begin(), level.member_list.end())) {
      return nullptr;
    }
    for (const NodeId v : level.member_list) {
      if (v >= n) return nullptr;
    }
    if (l == 0) {
      // Bottom level must be the identity: group(u, 0) aliases slot u.
      if (level.member_list.size() != n) return nullptr;
      if (!level.parent_offsets.empty() || !level.parent_data.empty() ||
          !level.default_parents.empty()) {
        return nullptr;
      }
      continue;
    }
    const LevelState& lower = state.levels[l - 1];
    const std::size_t lower_count = lower.member_list.size();
    // Members of level l must be a subset of level l-1 (nested MIS).
    for (const NodeId v : level.member_list) {
      if (!std::binary_search(lower.member_list.begin(),
                              lower.member_list.end(), v)) {
        return nullptr;
      }
    }
    // CSR shape: one offset range and one default parent per lower slot;
    // every parent set non-empty, sorted, drawn from this level's
    // members, and containing the default parent.
    if (level.parent_offsets.size() != lower_count + 1) return nullptr;
    if (level.default_parents.size() != lower_count) return nullptr;
    if (level.parent_offsets.front() != 0 ||
        level.parent_offsets.back() != level.parent_data.size()) {
      return nullptr;
    }
    for (std::size_t s = 0; s < lower_count; ++s) {
      const std::size_t begin = level.parent_offsets[s];
      const std::size_t end = level.parent_offsets[s + 1];
      if (begin > end || end > level.parent_data.size()) return nullptr;
      if (begin == end) return nullptr;
      const auto first = level.parent_data.begin() + begin;
      const auto last = level.parent_data.begin() + end;
      if (!std::is_sorted(first, last)) return nullptr;
      for (auto it = first; it != last; ++it) {
        if (!std::binary_search(level.member_list.begin(),
                                level.member_list.end(), *it)) {
          return nullptr;
        }
      }
      if (!std::binary_search(first, last, level.default_parents[s])) {
        return nullptr;
      }
    }
  }

  auto hierarchy = std::unique_ptr<DoublingHierarchy>(new DoublingHierarchy());
  hierarchy->graph_ = &graph;
  hierarchy->oracle_ = &oracle;
  hierarchy->total_mis_rounds_ = state.total_mis_rounds;
  hierarchy->levels_.reserve(state.levels.size());
  for (const LevelState& in : state.levels) {
    Level level;
    level.member_list = in.member_list;
    level.parent_offsets = in.parent_offsets;
    level.parent_data = in.parent_data;
    level.default_parents = in.default_parents;
    level.membership.assign(n, false);
    level.slot.assign(n, kNoSlot);
    for (std::uint32_t i = 0; i < level.member_list.size(); ++i) {
      const NodeId v = level.member_list[i];
      level.membership[v] = true;
      level.slot[v] = i;
    }
    hierarchy->levels_.push_back(std::move(level));
  }
  hierarchy->cluster_slots_ = std::vector<
      std::atomic<const std::vector<NodeId>*>>(
      static_cast<std::size_t>(hierarchy->height() + 1) * n);
  for (auto& slot : hierarchy->cluster_slots_) {
    slot.store(nullptr, std::memory_order_relaxed);
  }
  return hierarchy;
}

NodeId DoublingHierarchy::root() const {
  MOT_CHECK(levels_.back().member_list.size() == 1);
  return levels_.back().member_list[0];
}

bool DoublingHierarchy::is_member(int level, NodeId node) const {
  MOT_EXPECTS(level >= 0 && level <= height());
  MOT_EXPECTS(node < graph_->num_nodes());
  return levels_[level].membership[node];
}

NodeId DoublingHierarchy::default_parent(int level, NodeId member) const {
  MOT_EXPECTS(level >= 0 && level < height());
  const std::uint32_t slot = levels_[level].slot[member];
  MOT_EXPECTS(slot != kNoSlot);
  return levels_[level + 1].default_parents[slot];
}

NodeId DoublingHierarchy::home(NodeId u, int level) const {
  MOT_EXPECTS(level >= 0 && level <= height());
  NodeId at = u;
  for (int l = 1; l <= level; ++l) {
    at = default_parent(l - 1, at);
  }
  return at;
}

std::span<const NodeId> DoublingHierarchy::group(NodeId u, int level) const {
  MOT_EXPECTS(level >= 0 && level <= height());
  MOT_EXPECTS(u < graph_->num_nodes());
  if (level == 0) {
    // The level-0 group is the node itself; alias into the bottom member
    // list, where member_list[u] == u.
    return {levels_[0].member_list.data() + u, 1};
  }
  const NodeId anchor = home(u, level - 1);
  const Level& lower = levels_[level - 1];
  const Level& upper = levels_[level];
  const std::uint32_t slot = lower.slot[anchor];
  MOT_CHECK(slot != kNoSlot);
  const std::size_t begin = upper.parent_offsets[slot];
  const std::size_t end = upper.parent_offsets[slot + 1];
  return {upper.parent_data.data() + begin, end - begin};
}

std::span<const NodeId> DoublingHierarchy::members(int level) const {
  MOT_EXPECTS(level >= 0 && level <= height());
  return levels_[level].member_list;
}

std::span<const NodeId> DoublingHierarchy::cluster(int level,
                                                   NodeId center) const {
  MOT_EXPECTS(level >= 0 && level <= height());
  MOT_EXPECTS(center < graph_->num_nodes());
  auto& slot =
      cluster_slots_[static_cast<std::size_t>(level) * graph_->num_nodes() +
                     center];
  const std::vector<NodeId>* cached = slot.load(std::memory_order_acquire);
  if (cached != nullptr) return *cached;

  std::lock_guard<std::mutex> lock(cluster_mutex_);
  cached = slot.load(std::memory_order_relaxed);  // lost the race?
  if (cached == nullptr) {
    const Weight radius = std::ldexp(1.0, level);  // 2^level
    std::vector<NodeId> members;
    for (const BallMember& m : cluster_balls_.around(*graph_, center, radius)) {
      members.push_back(m.node);
    }
    std::sort(members.begin(), members.end());
    cluster_owned_.push_back(
        std::make_unique<const std::vector<NodeId>>(std::move(members)));
    cached = cluster_owned_.back().get();
    slot.store(cached, std::memory_order_release);
  }
  return *cached;
}

}  // namespace mot
