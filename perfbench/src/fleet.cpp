// fleet: write-heavy batched maintenance on the bare simulator.
//
// Co-located fleets of 16 objects wait at 16 depots. In every move
// window all objects of a depot step to the same neighbour, so their
// climbs share tree-path prefixes and use_batching coalesces them; after
// every two move windows a locate sweep queries every object from a
// random origin.
// This is the sustained mix of micro_throughput on the paper's largest
// grid. One thread issues a whole window, then drains the simulator:
// every op of the window completes when the drain returns, so the
// window's wall time is the latency of each op in it. There is no
// channel, socket or pool; batching, the flat detection lists and the
// event loop do the work.
#include <vector>

#include "graph/generators.hpp"
#include "harness.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using mot::NodeId;
using mot::ObjectId;

constexpr int kDepots = 16;
constexpr ObjectId kObjects = 256;
constexpr int kRounds = 200;
constexpr int kMoveWindows = 2;  // per locate sweep
constexpr std::uint64_t kFleetWalkSeed = 11;

class Fleet final : public Workload {
 public:
  explicit Fleet(const Options& options) {
    const mot::Graph graph = mot::make_grid(kGridSide, kGridSide);
    const mot::GridDistanceOracle oracle(kGridSide, kGridSide);
    // The fleets' walk is part of the fixed world: with 16 walkers the
    // end-of-run loads and the batched meter swing by a third between
    // walks, more than any regression bound. The seed draws the query
    // origins.
    mot::Rng walk(kFleetWalkSeed);
    mot::Rng rng = mot::SeedTree(options.seed).stream("fleet");
    std::vector<NodeId> at(kDepots);
    for (NodeId& depot : at) {
      depot = static_cast<NodeId>(walk.below(graph.num_nodes()));
    }
    start_ = at;
    for (int round = 0; round < kRounds; ++round) {
      for (int w = 0; w < kMoveWindows; ++w) {
        for (NodeId& depot : at) {
          const auto neighbors = graph.neighbors(depot);
          const NodeId next = neighbors[walk.below(neighbors.size())].to;
          move_optimal_ += oracle.distance(depot, next) * (kObjects / kDepots);
          depot = next;
        }
        windows_.push_back(at);
      }
      std::vector<NodeId> origins(kObjects);
      for (ObjectId o = 0; o < kObjects; ++o) {
        origins[o] = static_cast<NodeId>(rng.below(graph.num_nodes()));
        query_optimal_ += oracle.distance(origins[o], at[o % kDepots]);
      }
      sweeps_.push_back(std::move(origins));
    }
  }

  RepResult run_rep(bool traced) override {
    RepResult out;
    EngineProbe probe;
    EngineProbe* const p = traced ? &probe : nullptr;
    LayerStats* const inject = traced ? &probe.inject : nullptr;

    const std::uint64_t setup_start = now_ns();
    const World world(kGridSide, kHierarchySeed, p);
    mot::Simulator sim;
    mot::proto::DistributedMot engine(world.provider(), sim,
                                      world.chain_options);
    engine.use_batching(true);
    for (ObjectId o = 0; o < kObjects; ++o) {
      engine.publish(o, start_[o % kDepots]);
    }
    sim.run();
    out.setup_s = seconds_since(setup_start);
    out.layers["hier.build_s"] = world.hierarchy_build_s;

    probe = EngineProbe{};  // count the timed phase only
    const mot::proto::ProtocolStats before = engine.stats();
    Tally tally;
    const std::uint64_t timed_start = now_ns();
    for (int round = 0; round < kRounds; ++round) {
      const std::vector<NodeId>* at = nullptr;
      for (int w = 0; w < kMoveWindows; ++w) {
        at = &windows_[static_cast<std::size_t>(round * kMoveWindows + w)];
        const std::uint64_t start = now_ns();
        for (ObjectId o = 0; o < kObjects; ++o) {
          bracket(inject, [&] {
            engine.move(o, (*at)[o % kDepots],
                        [t = &tally](const mot::MoveResult& r) {
                          t->record_move(r.cost, r.peak_level);
                        });
          });
        }
        run_sim(sim, p);
        const double window_us = us_since(start);
        out.move_us.add(window_us);
        out.parts_us.add(window_us);
      }
      const std::uint64_t start = now_ns();
      for (ObjectId o = 0; o < kObjects; ++o) {
        const NodeId expected = (*at)[o % kDepots];
        bracket(inject, [&] {
          engine.query(sweeps_[static_cast<std::size_t>(round)][o], o,
                       [t = &tally, expected](const mot::QueryResult& r) {
                         t->record_query(r.found, r.degraded, r.proxy,
                                         r.cost, expected);
                       });
        });
      }
      run_sim(sim, p);
      const double window_us = us_since(start);
      out.query_us.add(window_us);
      out.parts_us.add(window_us);
    }
    out.timed_s = seconds_since(timed_start);
    const std::uint64_t issued =
        static_cast<std::uint64_t>(kRounds) * (kMoveWindows + 1) * kObjects;
    finish_engine_rep(engine, tally, issued, move_optimal_, query_optimal_,
                      p, before, out);
    return out;
  }

 private:
  std::vector<NodeId> start_;                 // depot of each fleet
  std::vector<std::vector<NodeId>> windows_;  // depots after each window
  std::vector<std::vector<NodeId>> sweeps_;   // query origin per object
  double move_optimal_ = 0.0;
  double query_optimal_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_fleet(const Options& options) {
  return std::make_unique<Fleet>(options);
}

}  // namespace perfbench
