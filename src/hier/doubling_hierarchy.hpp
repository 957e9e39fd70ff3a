// The constant-doubling overlay HS of Section 2.2.
//
// Levels are nested maximal independent sets: V_0 = V; V_{l+1} is a Luby
// MIS of the connectivity graph I_l = (V_l, E_l) where E_l joins members
// at graph distance < 2^{l+1}. The top level has a single node, the root.
//
// For each member w of V_l:
//   * its default parent home(w) is the nearest member of V_{l+1}
//     (guaranteed within 2^{l+1} by maximality);
//   * its parent set is every member of V_{l+1} within 4 * 2^{l+1},
//     sorted by node ID (the global visit order that avoids the
//     Section 3.1 race).
//
// The visit group of a bottom node u at level l is the parent set of
// home^{l-1}(u). Lemma 2.1 (detection paths of u and v meet by level
// ceil(log2 dist(u, v)) + 1) and Lemma 2.2 (path-length bound geometric
// in the level) hold by construction and are enforced by property tests.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/shortest_path.hpp"
#include "hier/hierarchy.hpp"
#include "hier/mis.hpp"
#include "util/rng.hpp"

namespace mot {

class DoublingHierarchy final : public Hierarchy {
 public:
  struct Params {
    std::uint64_t seed = 1;
    // Parent-set radius multiplier; the paper uses 4 (times 2^{l+1}).
    double parent_radius_factor = 4.0;
  };

  // Builds HS over `graph` (must be connected). `oracle` must outlive the
  // hierarchy and answer exact distances on `graph`.
  static std::unique_ptr<DoublingHierarchy> build(
      const Graph& graph, const DistanceOracle& oracle, const Params& params);

  // Value-typed image of the built overlay: exactly the per-level CSR
  // arrays (members, parent sets, default parents) that build() derives
  // from the MIS refinement — the expensive part of construction. The
  // derived indexes (membership bitmaps, dense slots, cluster cache) are
  // recomputed on restore. This is what the durable snapshot persists.
  struct LevelState {
    std::vector<NodeId> member_list;
    std::vector<std::size_t> parent_offsets;
    std::vector<NodeId> parent_data;
    std::vector<NodeId> default_parents;

    bool operator==(const LevelState&) const = default;
  };
  struct State {
    std::size_t num_nodes = 0;
    std::size_t total_mis_rounds = 0;
    std::vector<LevelState> levels;  // levels[0] = bottom

    bool operator==(const State&) const = default;
  };

  State export_state() const;

  // Reconstructs a hierarchy from an exported state without re-running
  // the MIS refinement. The state is untrusted (it crossed a disk):
  // structural validation failures return nullptr, never abort. `graph`
  // and `oracle` must describe the same network the state was exported
  // from (the durable layer checks a world fingerprint before calling).
  static std::unique_ptr<DoublingHierarchy> from_state(
      const Graph& graph, const DistanceOracle& oracle, const State& state);

  int height() const override { return static_cast<int>(levels_.size()) - 1; }
  NodeId root() const override;
  std::span<const NodeId> group(NodeId u, int level) const override;
  std::span<const NodeId> cluster(int level, NodeId center) const override;
  std::span<const NodeId> members(int level) const override;
  NodeId primary(NodeId u, int level) const override { return home(u, level); }
  const Graph& graph() const override { return *graph_; }
  const DistanceOracle& oracle() const override { return *oracle_; }

  // Default parent of `member` at `level` (a member of level + 1).
  NodeId default_parent(int level, NodeId member) const;

  // home^level(u): the canonical level-`level` ancestor of bottom node u.
  NodeId home(NodeId u, int level) const;

  bool is_member(int level, NodeId node) const;

  // Total MIS rounds across all levels (construction-cost reporting).
  std::size_t total_mis_rounds() const { return total_mis_rounds_; }

 private:
  // Parent/member tables are flat contiguous arrays: the climb inner
  // loop (home -> group -> span) is pure indexed loads with no hashing,
  // and — being immutable after build() — they are safe to share across
  // the parallel sweep engine's worker threads.
  struct Level {
    std::vector<NodeId> member_list;          // sorted
    std::vector<bool> membership;             // indexed by NodeId
    // Dense rank of each member within member_list, kNoSlot for
    // non-members. Indexed by NodeId.
    std::vector<std::uint32_t> slot;
    // Parent sets in CSR form, keyed by the dense slot of a member of
    // the level *below*: the parents of lower member with slot s are
    // parent_data[parent_offsets[s] .. parent_offsets[s + 1]), sorted by
    // ID and containing default_parents[s].
    std::vector<std::size_t> parent_offsets;
    std::vector<NodeId> parent_data;
    std::vector<NodeId> default_parents;      // by lower member slot
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  DoublingHierarchy() = default;

  const Graph* graph_ = nullptr;
  const DistanceOracle* oracle_ = nullptr;
  std::vector<Level> levels_;  // levels_[0] = bottom
  std::size_t total_mis_rounds_ = 0;

  // Lazy cache of load-balancing clusters (ball of radius 2^level), one
  // slot per (level, center). Readers do an acquire load of the slot;
  // the first thread to need an entry computes it under cluster_mutex_
  // and publishes the pointer with a release store. Entries are
  // immutable once published, so concurrent cluster() calls are safe.
  mutable std::vector<std::atomic<const std::vector<NodeId>*>>
      cluster_slots_;  // size (height + 1) * num_nodes
  mutable std::vector<std::unique_ptr<const std::vector<NodeId>>>
      cluster_owned_;  // guarded by cluster_mutex_
  mutable BallSearch cluster_balls_;  // guarded by cluster_mutex_
  mutable std::mutex cluster_mutex_;
};

}  // namespace mot
