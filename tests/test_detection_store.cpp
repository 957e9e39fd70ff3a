// tracking::DetectionStore against a naive std::map reference, plus the
// chain engine's invariant checked after every operation of a seeded
// run for each algorithm.
#include "tracking/detection_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "expt/experiment.hpp"
#include "util/rng.hpp"

namespace mot {
namespace {

using tracking::DetectionStore;
using tracking::DlEntry;
using tracking::ObjectChain;

constexpr std::size_t kNodes = 6;
constexpr int kLevels = 3;
const ObjectId kObjects[] = {0, 1, 7, 4000000000u};

using Key = std::pair<ObjectId, std::pair<NodeId, int>>;  // object, role

Key key(ObjectId object, OverlayNode role) {
  return {object, {role.node, role.level}};
}

// Storage of a record: any function of (role, object) will do.
class FakeProvider final : public PathProvider {
 public:
  std::span<const PathStop> upward_sequence(NodeId) const override {
    return {};
  }
  std::optional<OverlayNode> special_parent(NodeId,
                                            std::size_t) const override {
    return std::nullopt;
  }
  DelegateAccess delegate(OverlayNode owner, ObjectId object) const override {
    return {static_cast<NodeId>((owner.node + owner.level + object) % kNodes),
            0.0};
  }
  OverlayNode root_stop() const override { return {}; }
  const DistanceOracle& oracle() const override { return oracle_; }
  std::size_t num_nodes() const override { return kNodes; }

 private:
  GridDistanceOracle oracle_{1, kNodes};
};

struct Reference {
  std::map<Key, DlEntry> dl;
  std::map<Key, std::vector<OverlayNode>> sdl;  // registration order
  std::map<Key, NodeId> forward;
  std::map<ObjectId, NodeId> proxy;

  durable::StateImage image() const {
    std::map<std::pair<NodeId, int>, durable::RoleImage> roles;
    for (const auto& [k, entry] : dl) {
      auto& role = roles[k.second];
      role.role = {k.second.second, k.second.first};
      role.dl.push_back({k.first, entry.child, entry.sp});
    }
    for (const auto& [k, children] : sdl) {
      auto& role = roles[k.second];
      role.role = {k.second.second, k.second.first};
      role.sdl.push_back({k.first, children});
    }
    durable::StateImage image;
    for (auto& [at, role] : roles) {
      const auto by_object = [](const auto& a, const auto& b) {
        return a.object < b.object;
      };
      std::sort(role.dl.begin(), role.dl.end(), by_object);
      std::sort(role.sdl.begin(), role.sdl.end(), by_object);
      image.roles.push_back(role);
    }
    image.proxies.assign(proxy.begin(), proxy.end());
    return image;
  }
};

OverlayNode random_role(Rng& rng) {
  return {static_cast<int>(rng.below(kLevels)),
          static_cast<NodeId>(rng.below(kNodes))};
}

void expect_same(const DetectionStore& store, const Reference& ref,
                 const FakeProvider& provider) {
  for (const ObjectId object : kObjects) {
    const ObjectChain* chain = store.find(object);
    std::size_t dl = 0;
    std::size_t sdl = 0;
    for (int level = 0; level < kLevels; ++level) {
      for (NodeId node = 0; node < kNodes; ++node) {
        const OverlayNode role{level, node};
        const Key k = key(object, role);
        const auto entry = ref.dl.find(k);
        const DlEntry* found = chain ? chain->find(role) : nullptr;
        ASSERT_EQ(found != nullptr, entry != ref.dl.end());
        if (found != nullptr) {
          EXPECT_EQ(found->child, entry->second.child);
          EXPECT_EQ(found->sp, entry->second.sp);
          ++dl;
        }
        const auto fwd = ref.forward.find(k);
        EXPECT_EQ(chain ? chain->forward(role) : kInvalidNode,
                  fwd == ref.forward.end() ? kInvalidNode : fwd->second);
        const auto children = ref.sdl.find(k);
        const std::vector<OverlayNode> want =
            children == ref.sdl.end() ? std::vector<OverlayNode>{}
                                      : children->second;
        EXPECT_EQ(chain ? chain->sdl_children(role)
                        : std::vector<OverlayNode>{},
                  want);
        sdl += want.size();
        // The first child of the lowest level, in registration order.
        std::optional<OverlayNode> lowest;
        for (const OverlayNode& c : want) {
          if (!lowest || c.level < lowest->level) lowest = c;
        }
        EXPECT_EQ(chain ? chain->lowest_sdl_child(role) : std::nullopt,
                  lowest);
      }
    }
    EXPECT_EQ(chain ? chain->dl_entries() : 0, dl);
    EXPECT_EQ(chain ? chain->sdl_entries() : 0, sdl);
  }

  std::vector<std::size_t> load(kNodes, 0);
  std::map<NodeId, std::set<std::pair<int, NodeId>>> holders;
  for (const auto& [k, entry] : ref.dl) {
    const OverlayNode role{k.second.second, k.second.first};
    load[provider.delegate(role, k.first).storage] += 1;
    holders[role.node].insert({-role.level, role.node});
  }
  for (const auto& [k, children] : ref.sdl) {
    const OverlayNode role{k.second.second, k.second.first};
    load[provider.delegate(role, k.first).storage] += children.size();
    holders[role.node].insert({-role.level, role.node});
  }
  for (const auto& [k, to] : ref.forward) {
    holders[k.second.first].insert({-k.second.second, k.second.first});
  }
  EXPECT_EQ(store.load_per_node(provider), load);
  for (NodeId node = 0; node < kNodes; ++node) {
    std::vector<OverlayNode> want;  // top level first
    for (const auto& [minus_level, at] : holders[node]) {
      want.push_back({-minus_level, at});
    }
    EXPECT_EQ(store.roles_of(node), want);
  }

  const durable::StateImage image = store.export_image();
  EXPECT_EQ(image, ref.image());
  DetectionStore copy;
  copy.restore(image);
  const durable::StateImage again = copy.export_image();
  EXPECT_EQ(durable::encode_snapshot(0, {}, again),
            durable::encode_snapshot(0, {}, image));
}

TEST(DetectionStoreFuzz, MatchesMapReference) {
  const FakeProvider provider;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    DetectionStore store;
    Reference ref;
    for (int step = 0; step < 400; ++step) {
      const ObjectId object = kObjects[rng.below(std::size(kObjects))];
      const OverlayNode role = random_role(rng);
      const Key k = key(object, role);
      const bool held = ref.dl.count(k) != 0;
      switch (rng.below(8)) {
        case 0:
        case 1:  // insert (a live entry drops the forwarding pointer)
          if (held) break;
          {
            DlEntry entry{random_role(rng), std::nullopt};
            if (rng.below(2) == 0) entry.sp = random_role(rng);
            store.chain(object).insert(role, entry);
            ref.dl[k] = entry;
            ref.forward.erase(k);
          }
          break;
        case 2:  // erase
          if (!held) break;
          EXPECT_EQ(store.find(object)->erase(role).child, ref.dl[k].child);
          ref.dl.erase(k);
          break;
        case 3:  // splice
          if (!held) break;
          store.find(object)->find(role)->child = ref.dl[k].child =
              random_role(rng);
          break;
        case 4: {  // SDL add
          const OverlayNode child = random_role(rng);
          store.chain(object).add_sdl(role, child);
          ref.sdl[k].push_back(child);
          break;
        }
        case 5: {  // SDL remove: one registration, the first match
          const auto it = ref.sdl.find(k);
          if (it == ref.sdl.end()) break;
          const OverlayNode child = it->second[rng.below(it->second.size())];
          store.find(object)->remove_sdl(role, child);
          it->second.erase(
              std::find(it->second.begin(), it->second.end(), child));
          if (it->second.empty()) ref.sdl.erase(it);
          break;
        }
        case 6: {  // forwarding pointer, or a proxy
          const auto to = static_cast<NodeId>(rng.below(kNodes));
          if (rng.below(2) == 0) {
            store.chain(object).set_forward(role, to);
            ref.forward[k] = to;
          } else {
            store.chain(object).proxy = to;
            ref.proxy[object] = to;
          }
          break;
        }
        case 7:  // wipe
          if (ObjectChain* chain = store.find(object)) chain->wipe(role);
          ref.dl.erase(k);
          ref.sdl.erase(k);
          ref.forward.erase(k);
          break;
      }
      expect_same(store, ref, provider);
      if (HasFatalFailure() || HasFailure()) return;
    }
  }
}

// validate_all() after every publish, move, query and repair of a seeded
// run, for every chain-engine algorithm of the paper's comparison.
TEST(DetectionStoreFuzz, ChainInvariantHoldsAfterEveryOp) {
  const Network network = build_grid_network(64, 3);
  for (const Algo algo :
       {Algo::kMot, Algo::kMotLoadBalanced, Algo::kStun, Algo::kZdat}) {
    const AlgoInstance instance = make_algo(algo, network, EdgeRates{}, 3);
    ChainTracker& tracker = *instance.tracker;
    SCOPED_TRACE(instance.name);
    Rng rng(17);
    constexpr ObjectId kCount = 10;
    for (ObjectId o = 0; o < kCount; ++o) {
      tracker.publish(o, static_cast<NodeId>(rng.below(64)));
      tracker.validate_all();
    }
    const NodeId root = instance.provider->root_stop().node;
    std::size_t repairs = 0;
    for (int step = 0; step < 150; ++step) {
      const auto object = static_cast<ObjectId>(rng.below(kCount));
      const auto node = static_cast<NodeId>(rng.below(64));
      switch (rng.below(10)) {
        case 0: {  // repair a sensor that is neither the root nor a proxy
          bool off_limits = node == root;
          for (ObjectId o = 0; o < kCount; ++o) {
            off_limits = off_limits || tracker.proxy_of(o) == node;
          }
          if (off_limits) break;
          ++repairs;
          if (rng.below(2) == 0) {
            tracker.evacuate_node(node);
          } else {
            tracker.crash_node(node);
          }
          break;
        }
        case 1:
        case 2:
        case 3:
          EXPECT_EQ(tracker.query(node, object).proxy,
                    tracker.proxy_of(object));
          break;
        default:
          tracker.move(object, node);
          break;
      }
      tracker.validate_all();
    }
    EXPECT_GT(repairs, 0u);
  }
}

}  // namespace
}  // namespace mot
