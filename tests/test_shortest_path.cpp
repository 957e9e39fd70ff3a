#include "graph/shortest_path.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace mot {
namespace {

TEST(Dijkstra, GridDistancesAreManhattan) {
  const Graph g = make_grid(5, 5);
  const ShortestPathTree tree = dijkstra(g, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto row = v / 5;
    const auto col = v % 5;
    EXPECT_DOUBLE_EQ(tree.distance[v], static_cast<double>(row + col));
  }
}

TEST(Dijkstra, WeightedGraphPicksCheapPath) {
  GraphBuilder builder(4);
  builder.add_edge(0, 1, 1.0);
  builder.add_edge(1, 3, 1.0);
  builder.add_edge(0, 2, 1.0);
  builder.add_edge(2, 3, 5.0);
  const Graph g = std::move(builder).build();
  const ShortestPathTree tree = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(tree.distance[3], 2.0);
  const auto path = tree.path_to(3);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], 0u);
  EXPECT_EQ(path[1], 1u);
  EXPECT_EQ(path[2], 3u);
}

TEST(Dijkstra, UnreachableIsInfinite) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  const Graph g = std::move(builder).build();
  const ShortestPathTree tree = dijkstra(g, 0);
  EXPECT_EQ(tree.distance[2], kInfiniteDistance);
  EXPECT_TRUE(tree.path_to(2).empty());
}

TEST(DijkstraBounded, RespectsRadius) {
  const Graph g = make_path(10);
  BallSearch search;
  const auto ball = search.around(g, 0, 3.0);
  const auto distance = [&](NodeId v) {
    for (const BallMember& m : ball) {
      if (m.node == v) return m.distance;
    }
    return kInfiniteDistance;
  };
  EXPECT_DOUBLE_EQ(distance(3), 3.0);
  EXPECT_EQ(distance(4), kInfiniteDistance);
}

TEST(BfsUnit, MatchesDijkstraOnGrids) {
  const Graph g = make_grid(6, 7);
  const ShortestPathTree bfs = bfs_unit(g, 10);
  const ShortestPathTree dij = dijkstra(g, 10);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_DOUBLE_EQ(bfs.distance[v], dij.distance[v]);
  }
}

TEST(HasUnitWeights, DetectsWeighted) {
  EXPECT_TRUE(has_unit_weights(make_grid(3, 3)));
  EXPECT_FALSE(has_unit_weights(make_grid8(3, 3)));
}

TEST(PathTo, SourceIsItself) {
  const Graph g = make_path(3);
  const ShortestPathTree tree = dijkstra(g, 1);
  const auto path = tree.path_to(1);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], 1u);
}

TEST(Diameter, KnownValues) {
  EXPECT_DOUBLE_EQ(exact_diameter(make_path(10)), 9.0);
  EXPECT_DOUBLE_EQ(exact_diameter(make_ring(10)), 5.0);
  EXPECT_DOUBLE_EQ(exact_diameter(make_grid(4, 4)), 6.0);
  EXPECT_DOUBLE_EQ(exact_diameter(make_complete(5)), 1.0);
}

TEST(Diameter, TwoSweepExactOnTreesAndGrids) {
  EXPECT_DOUBLE_EQ(approx_diameter(make_path(17)), 16.0);
  EXPECT_DOUBLE_EQ(approx_diameter(make_grid(5, 8)), 11.0);
  Rng rng(5);
  const Graph tree = make_random_tree(64, rng);
  EXPECT_DOUBLE_EQ(approx_diameter(tree), exact_diameter(tree));
}

TEST(Eccentricity, CenterOfPath) {
  const Graph g = make_path(9);
  EXPECT_DOUBLE_EQ(eccentricity(g, 4), 4.0);
  EXPECT_DOUBLE_EQ(eccentricity(g, 0), 8.0);
}

}  // namespace
}  // namespace mot
