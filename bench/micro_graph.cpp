// Micro-benchmarks for the graph substrate: SSSP, oracles, generators.
#include <benchmark/benchmark.h>

#include "micro_gbench.hpp"

#include "graph/distance_oracle.hpp"
#include "graph/generators.hpp"
#include "graph/shortest_path.hpp"
#include "util/rng.hpp"

namespace mot {
namespace {

void BM_GridConstruction(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_grid(side, side));
  }
  state.SetComplexityN(static_cast<std::int64_t>(side * side));
}
BENCHMARK(BM_GridConstruction)->Arg(8)->Arg(16)->Arg(32)->Complexity();

void BM_DijkstraGrid(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const Graph graph = make_grid(side, side);
  NodeId source = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dijkstra(graph, source));
    source = (source + 7) % graph.num_nodes();
  }
  state.SetComplexityN(static_cast<std::int64_t>(side * side));
}
BENCHMARK(BM_DijkstraGrid)->Arg(8)->Arg(16)->Arg(32)->Complexity();

void BM_BfsUnitGrid(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const Graph graph = make_grid(side, side);
  NodeId source = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bfs_unit(graph, source));
    source = (source + 7) % graph.num_nodes();
  }
}
BENCHMARK(BM_BfsUnitGrid)->Arg(16)->Arg(32);

void BM_GridOracleQuery(benchmark::State& state) {
  const GridDistanceOracle oracle(32, 32);
  Rng rng(3);
  for (auto _ : state) {
    const auto u = static_cast<NodeId>(rng.below(1024));
    const auto v = static_cast<NodeId>(rng.below(1024));
    benchmark::DoNotOptimize(oracle.distance(u, v));
  }
}
BENCHMARK(BM_GridOracleQuery);

void BM_CachedOracleQueryWarm(benchmark::State& state) {
  const Graph graph = make_grid(16, 16);
  const CachedDistanceOracle oracle(graph);
  // Warm every source so the loop measures pure lookups.
  for (NodeId u = 0; u < 256; ++u) oracle.distance(u, 0);
  Rng rng(5);
  for (auto _ : state) {
    const auto u = static_cast<NodeId>(rng.below(256));
    const auto v = static_cast<NodeId>(rng.below(256));
    benchmark::DoNotOptimize(oracle.distance(u, v));
  }
}
BENCHMARK(BM_CachedOracleQueryWarm);

void BM_BoundedDijkstraSmallBall(benchmark::State& state) {
  const Graph graph = make_grid(32, 32);
  BallSearch search;
  Rng rng(7);
  for (auto _ : state) {
    const auto center = static_cast<NodeId>(rng.below(1024));
    benchmark::DoNotOptimize(search.around(graph, center, 4.0).size());
  }
}
BENCHMARK(BM_BoundedDijkstraSmallBall);

}  // namespace
}  // namespace mot

MOT_MICRO_MAIN()
