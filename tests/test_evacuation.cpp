// Section 7 fault tolerance: graceful node departure with chain repair.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/mot.hpp"
#include "graph/generators.hpp"
#include "hier/doubling_hierarchy.hpp"

namespace mot {
namespace {

struct Fixture {
  Fixture() : graph(make_grid(8, 8)), oracle(make_distance_oracle(graph)) {
    DoublingHierarchy::Params params;
    params.seed = 7;
    hierarchy = DoublingHierarchy::build(graph, *oracle, params);
  }

  MotOptions options() const {
    MotOptions o;
    o.use_parent_sets = false;
    return o;
  }

  // An internal node on object 0's chain that is not its proxy and not
  // the root sensor.
  NodeId pick_internal_victim(const MotTracker& tracker) const {
    const NodeId proxy = tracker.proxy_of(0);
    const NodeId root = hierarchy->root();
    for (int level = 1; level < hierarchy->height(); ++level) {
      for (const NodeId member : hierarchy->members(level)) {
        if (member != proxy && member != root &&
            tracker.chain().node_has_dl({level, member}, 0)) {
          return member;
        }
      }
    }
    return kInvalidNode;
  }

  Graph graph;
  std::unique_ptr<DistanceOracle> oracle;
  std::unique_ptr<DoublingHierarchy> hierarchy;
};

TEST(Evacuation, ChainRepairedAndQueriesStillWork) {
  const Fixture fx;
  MotTracker tracker(*fx.hierarchy, fx.options());
  tracker.publish(0, 9);
  tracker.move(0, 10);
  tracker.move(0, 18);

  const NodeId victim = fx.pick_internal_victim(tracker);
  ASSERT_NE(victim, kInvalidNode);
  const std::size_t evacuated = tracker.chain().evacuate_node(victim);
  EXPECT_GE(evacuated, 1u);
  tracker.chain().validate(0);

  for (const NodeId from : {0u, 63u, 32u}) {
    const QueryResult result = tracker.query(from, 0);
    EXPECT_TRUE(result.found);
    EXPECT_EQ(result.proxy, 18u);
  }
}

TEST(Evacuation, SurvivorsKeepMoving) {
  const Fixture fx;
  MotTracker tracker(*fx.hierarchy, fx.options());
  tracker.publish(0, 9);
  tracker.move(0, 10);
  const NodeId victim = fx.pick_internal_victim(tracker);
  ASSERT_NE(victim, kInvalidNode);
  tracker.chain().evacuate_node(victim);

  // The structure still supports maintenance after the departure (the
  // dead node's roles simply hold nothing when climbed through).
  Rng rng(3);
  NodeId at = 10;
  for (int i = 0; i < 40; ++i) {
    const auto neighbors = fx.graph.neighbors(at);
    at = neighbors[rng.below(neighbors.size())].to;
    tracker.move(0, at);
    tracker.chain().validate(0);
  }
  EXPECT_EQ(tracker.query(0, 0).proxy, at);
}

TEST(Evacuation, MultipleObjectsAllRepaired) {
  const Fixture fx;
  MotTracker tracker(*fx.hierarchy, fx.options());
  for (ObjectId o = 0; o < 12; ++o) {
    tracker.publish(o, static_cast<NodeId>(o * 5 + 1));
  }
  const NodeId victim = fx.pick_internal_victim(tracker);
  ASSERT_NE(victim, kInvalidNode);
  tracker.chain().evacuate_node(victim);
  tracker.chain().validate_all();
  for (ObjectId o = 0; o < 12; ++o) {
    EXPECT_EQ(tracker.query(40, o).proxy, tracker.proxy_of(o));
  }
}

TEST(Evacuation, IdempotentOnEmptyNode) {
  const Fixture fx;
  MotTracker tracker(*fx.hierarchy, fx.options());
  tracker.publish(0, 9);
  const NodeId victim = fx.pick_internal_victim(tracker);
  ASSERT_NE(victim, kInvalidNode);
  const std::size_t first = tracker.chain().evacuate_node(victim);
  EXPECT_GE(first, 1u);
  EXPECT_EQ(tracker.chain().evacuate_node(victim), 0u);
  tracker.chain().validate(0);
}

TEST(Evacuation, SpecialListsStayConsistent) {
  const Fixture fx;
  MotOptions options = fx.options();
  options.use_special_parents = true;
  options.special_parent_offset = 1;
  MotTracker tracker(*fx.hierarchy, options);
  tracker.publish(0, 9);
  tracker.move(0, 10);
  tracker.move(0, 2);
  const NodeId victim = fx.pick_internal_victim(tracker);
  ASSERT_NE(victim, kInvalidNode);
  tracker.chain().evacuate_node(victim);
  // validate() cross-checks DL.sp <-> SDL records; dangling pointers
  // after the departure would trip it.
  tracker.chain().validate(0);
}

TEST(Evacuation, ChargesRepairMessages) {
  const Fixture fx;
  MotTracker tracker(*fx.hierarchy, fx.options());
  tracker.publish(0, 9);
  tracker.move(0, 50);
  const NodeId victim = fx.pick_internal_victim(tracker);
  ASSERT_NE(victim, kInvalidNode);
  const Weight before = tracker.meter().total_distance();
  tracker.chain().evacuate_node(victim);
  EXPECT_GT(tracker.meter().total_distance(), before);
}

TEST(Crash, RepairsLikeEvacuationButSurvivorsPay) {
  // crash_node leaves the same structure as evacuate_node — only the
  // charging differs (the dead node sends nothing, so its SDL
  // deregistration hops are free while parents still pay splices).
  const Fixture fx;
  MotOptions options = fx.options();
  options.use_special_parents = true;
  options.special_parent_offset = 1;
  MotTracker evacuated(*fx.hierarchy, options);
  MotTracker crashed(*fx.hierarchy, options);
  for (MotTracker* tracker : {&evacuated, &crashed}) {
    tracker->publish(0, 9);
    tracker->move(0, 10);
    tracker->move(0, 2);
  }
  const NodeId victim = fx.pick_internal_victim(crashed);
  ASSERT_NE(victim, kInvalidNode);

  const Weight evac_before = evacuated.meter().total_distance();
  const std::size_t graceful = evacuated.chain().evacuate_node(victim);
  const Weight evac_cost =
      evacuated.meter().total_distance() - evac_before;
  const Weight crash_before = crashed.meter().total_distance();
  const std::size_t repaired = crashed.chain().crash_node(victim);
  const Weight crash_cost = crashed.meter().total_distance() - crash_before;

  EXPECT_EQ(repaired, graceful);
  EXPECT_LE(crash_cost, evac_cost);
  crashed.chain().validate(0);
  EXPECT_EQ(crashed.chain().load_per_node(), evacuated.chain().load_per_node());
  for (const NodeId from : {0u, 63u, 32u}) {
    EXPECT_EQ(crashed.query(from, 0).proxy, 2u);
  }
}

TEST(Crash, SurvivorsKeepMovingAfterCrash) {
  const Fixture fx;
  MotTracker tracker(*fx.hierarchy, fx.options());
  for (ObjectId o = 0; o < 8; ++o) {
    tracker.publish(o, static_cast<NodeId>(o * 7 + 1));
  }
  const NodeId victim = fx.pick_internal_victim(tracker);
  ASSERT_NE(victim, kInvalidNode);
  EXPECT_GE(tracker.chain().crash_node(victim), 1u);
  tracker.chain().validate_all();

  Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    const ObjectId o = rng.below(8);
    tracker.move(o, static_cast<NodeId>(rng.below(64)));
    tracker.chain().validate(o);
  }
  for (ObjectId o = 0; o < 8; ++o) {
    EXPECT_EQ(tracker.query(40, o).proxy, tracker.proxy_of(o));
  }
}

TEST(Crash, SurvivingParentSendsEverySplice) {
  // A victim often holds a run of roles on one chain (a level-l member is
  // its own default parent at level l+1). The repair visits its roles
  // from the top level down, so the surviving parent above the run sends
  // every splice: one to each lower dead role, then one to the surviving
  // child below the run.
  const Fixture fx;
  MotOptions options = fx.options();
  options.use_special_parents = false;  // splices are the only charges
  MotTracker tracker(*fx.hierarchy, options);
  std::set<NodeId> proxies;
  for (ObjectId o = 0; o < 16; ++o) {
    tracker.publish(o, static_cast<NodeId>(o * 4 + 3));
    proxies.insert(o * 4 + 3);
  }

  // Each object's chain, root first.
  std::map<ObjectId, std::map<std::pair<int, NodeId>, OverlayNode>> child;
  for (const auto& role : tracker.chain().export_durable_image().roles) {
    for (const auto& entry : role.dl) {
      child[entry.object][{role.role.level, role.role.node}] = entry.child;
    }
  }
  const OverlayNode root{fx.hierarchy->height(), fx.hierarchy->root()};
  std::map<ObjectId, std::vector<OverlayNode>> chains;
  for (auto& [object, links] : child) {
    for (OverlayNode at = root;; at = links.at({at.level, at.node})) {
      chains[object].push_back(at);
      if (links.at({at.level, at.node}) == at) break;
    }
  }
  NodeId victim = kInvalidNode;
  for (const auto& [object, chain] : chains) {
    for (std::size_t i = 1; i < chain.size(); ++i) {
      const NodeId node = chain[i].node;
      if (node == chain[i - 1].node && node != root.node &&
          proxies.count(node) == 0) {
        victim = std::min(victim, node);
      }
    }
  }
  ASSERT_NE(victim, kInvalidNode);

  Weight expected = 0.0;
  for (const auto& [object, chain] : chains) {
    for (std::size_t i = 1; i < chain.size(); ++i) {
      if (chain[i].node != victim || chain[i - 1].node == victim) continue;
      std::size_t end = i;  // one past the run of the victim's roles
      while (chain[end].node == victim) ++end;
      const NodeId parent = chain[i - 1].node;
      expected += static_cast<Weight>(end - i - 1) *
                      fx.oracle->distance(parent, victim) +
                  fx.oracle->distance(parent, chain[end].node);
    }
  }
  const Weight before = tracker.meter().total_distance();
  tracker.chain().crash_node(victim);
  EXPECT_DOUBLE_EQ(tracker.meter().total_distance() - before, expected);
  tracker.chain().validate_all();
}

using EvacuationDeathTest = ::testing::Test;

TEST(EvacuationDeathTest, RefusesProxyNode) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Fixture fx;
  MotTracker tracker(*fx.hierarchy, fx.options());
  tracker.publish(0, 9);
  EXPECT_DEATH(tracker.chain().evacuate_node(9), "Precondition");
}

TEST(EvacuationDeathTest, RefusesRootSensor) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Fixture fx;
  MotTracker tracker(*fx.hierarchy, fx.options());
  tracker.publish(0, 9);
  EXPECT_DEATH(tracker.chain().evacuate_node(fx.hierarchy->root()),
               "Precondition");
}

}  // namespace
}  // namespace mot
