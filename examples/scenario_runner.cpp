// Scenario runner: a small CLI over the whole library. Generates (or
// loads) a movement trace, runs any tracking algorithm on any built-in
// topology, and reports cost ratios and load — with optional trace and
// Graphviz exports for inspection. The first example is one command:
//
//   $ ./scenario_runner --topology grid --nodes 256 --algo mot
//        --objects 50 --moves 100 --queries 100 --seed 9
//        --save-trace /tmp/run.trace --dot /tmp/overlay.dot
//   $ ./scenario_runner --load-trace /tmp/run.trace --algo stun
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "expt/experiment.hpp"
#include "util/flags.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "viz/dot_export.hpp"
#include "workload/trace_io.hpp"

namespace {

using namespace mot;

Graph build_topology(const std::string& name, std::size_t nodes,
                     std::uint64_t seed) {
  if (name == "grid") {
    const auto side = static_cast<std::size_t>(
        std::lround(std::sqrt(static_cast<double>(nodes))));
    return make_grid(side, side);
  }
  if (name == "ring") return make_ring(nodes);
  if (name == "torus") {
    const auto side = static_cast<std::size_t>(
        std::lround(std::sqrt(static_cast<double>(nodes))));
    return make_torus(side, side);
  }
  if (name == "geometric") {
    Rng rng(SeedTree(seed).seed_for("deploy"));
    const double side = std::sqrt(static_cast<double>(nodes));
    return make_random_geometric(nodes, side, 1.8, rng, 64, 0.4);
  }
  std::fprintf(stderr, "unknown topology '%s' (grid|ring|torus|geometric)\n",
               name.c_str());
  std::exit(1);
}

std::optional<Algo> parse_algo(const std::string& name) {
  if (name == "mot") return Algo::kMot;
  if (name == "mot-lb") return Algo::kMotLoadBalanced;
  if (name == "stun") return Algo::kStun;
  if (name == "dat") return Algo::kDat;
  if (name == "zdat") return Algo::kZdat;
  if (name == "zdat-sc") return Algo::kZdatShortcuts;
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  std::string topology = "grid";
  std::string algo_name_flag = "mot";
  std::string mobility = "walk";
  std::string save_trace;
  std::string load_trace;
  std::string dot_path;
  std::uint64_t nodes = 256;
  std::uint64_t objects = 50;
  std::uint64_t moves = 100;
  std::uint64_t queries = 100;
  std::uint64_t seed = 1;

  Flags flags("Run a custom tracking scenario end to end");
  flags.register_flag("topology", &topology,
                      "grid | ring | torus | geometric");
  flags.register_flag("nodes", &nodes, "approximate sensor count");
  flags.register_flag("algo", &algo_name_flag,
                      "mot | mot-lb | stun | dat | zdat | zdat-sc");
  flags.register_flag("mobility", &mobility, "walk | waypoint | levy");
  flags.register_flag("objects", &objects, "number of mobile objects");
  flags.register_flag("moves", &moves, "maintenance operations per object");
  flags.register_flag("queries", &queries, "query operations to issue");
  flags.register_flag("seed", &seed, "experiment seed");
  std::string log_level = "warn";
  flags.register_flag("log-level", &log_level,
                      "stderr log level: debug|info|warn|error");
  flags.register_flag("save-trace", &save_trace,
                      "write the generated trace to this file");
  flags.register_flag("load-trace", &load_trace,
                      "replay a previously saved trace instead");
  flags.register_flag("dot", &dot_path,
                      "write the overlay hierarchy as Graphviz DOT");
  if (!flags.parse(argc, argv)) return 1;
  const std::optional<mot::LogLevel> level = mot::parse_log_level(log_level);
  if (!level.has_value()) {
    std::fprintf(stderr, "unknown --log-level '%s'\n", log_level.c_str());
    return 1;
  }
  mot::set_log_level(*level);

  const auto algo = parse_algo(algo_name_flag);
  if (!algo) {
    std::fprintf(stderr, "unknown algorithm '%s'\n",
                 algo_name_flag.c_str());
    return 1;
  }

  const Network network =
      build_network(build_topology(topology, nodes, seed), seed);
  std::printf("network: %s (sink %u, hierarchy height %d)\n",
              network.graph().summary().c_str(), network.sink,
              network.hierarchy->height());

  MovementTrace trace;
  if (!load_trace.empty()) {
    std::ifstream in(load_trace);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", load_trace.c_str());
      return 1;
    }
    std::string error;
    const auto parsed = read_trace(in, &error);
    if (!parsed) {
      std::fprintf(stderr, "bad trace: %s\n", error.c_str());
      return 1;
    }
    trace = *parsed;
    std::printf("replaying %zu moves of %zu objects from %s\n",
                trace.moves.size(), trace.num_objects(),
                load_trace.c_str());
  } else {
    TraceParams tp;
    tp.num_objects = objects;
    tp.moves_per_object = moves;
    tp.model = mobility == "waypoint" ? MobilityModel::kRandomWaypoint
               : mobility == "levy"   ? MobilityModel::kLevyWalk
                                      : MobilityModel::kRandomWalk;
    Rng rng(SeedTree(seed).seed_for("trace"));
    trace = generate_trace(network.graph(), tp, rng);
  }
  if (!save_trace.empty()) {
    write_text_file(save_trace, trace_to_string(trace));
    std::printf("trace saved to %s\n", save_trace.c_str());
  }
  if (!dot_path.empty()) {
    write_text_file(dot_path, viz::hierarchy_to_dot(*network.hierarchy));
    std::printf("overlay DOT saved to %s\n", dot_path.c_str());
  }

  const EdgeRates rates = trace.estimate_rates();
  AlgoInstance instance = make_algo(*algo, network, rates, seed);
  publish_all(*instance.tracker, trace);
  const CostRatioAccumulator maintenance =
      run_moves(*instance.tracker, *network.oracle, trace.moves);

  Rng qrng(SeedTree(seed).seed_for("queries"));
  const auto query_ops = generate_queries(
      network.num_nodes(), trace.num_objects(), queries, qrng);
  const CostRatioAccumulator query_result =
      run_queries(*instance.tracker, *network.oracle, query_ops);

  const LoadSummary load = summarize_load(instance.tracker->load_per_node());
  std::printf("\nalgorithm: %s\n", instance.name.c_str());
  std::printf("maintenance: %zu ops, cost ratio %.3f\n",
              maintenance.count(), maintenance.aggregate_ratio());
  std::printf("queries: %zu ops, cost ratio %.3f\n", query_result.count(),
              query_result.aggregate_ratio());
  std::printf("load: mean %.2f, max %zu, imbalance %.1f, %zu nodes > 10\n",
              load.mean, load.max, load.imbalance,
              load.nodes_above_threshold);
  return 0;
}
