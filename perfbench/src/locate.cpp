// locate: read-heavy tracking of independent objects over the reliable
// link with overload control.
//
// Objects sit at seeded random nodes. Each step moves one random object
// one random-walk step, then four queries look up random objects from
// uniform random origins. The engine runs the reliable link layer
// (use_channel on a loss-free ReliableChannel: every hop is a
// sequence-numbered DATA frame answered by an ACK) under a ServiceModel
// at the default OverloadConfig. One op is in flight at a time, timed
// from issue until the simulator drains. Query climbs and descents plus
// the per-frame link and admission bookkeeping do the work. Batching is
// bypassed by construction (it excludes a channel and never stages
// queries), so a batching change must read "no change" here.
#include <optional>
#include <vector>

#include "graph/generators.hpp"
#include "harness.hpp"
#include "overload/overload.hpp"
#include "sim/channel.hpp"
#include "sim/service_model.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using mot::NodeId;
using mot::ObjectId;

constexpr ObjectId kObjects = 1024;
constexpr int kSteps = 4000;
constexpr int kQueriesPerMove = 4;

struct Query {
  NodeId from = mot::kInvalidNode;
  ObjectId object = 0;
  NodeId expected = mot::kInvalidNode;  // the object's position when asked
};

struct Step {
  ObjectId object = 0;
  NodeId to = mot::kInvalidNode;
  Query queries[kQueriesPerMove];
};

class Locate final : public Workload {
 public:
  explicit Locate(const Options& options) {
    const mot::SeedTree seeds(options.seed);
    overload_seed_ = seeds.seed_for("overload");
    const mot::Graph graph = mot::make_grid(kGridSide, kGridSide);
    const mot::GridDistanceOracle oracle(kGridSide, kGridSide);
    mot::Rng rng = seeds.stream("locate");
    const std::uint64_t n = graph.num_nodes();
    start_.resize(kObjects);
    for (NodeId& node : start_) node = static_cast<NodeId>(rng.below(n));
    std::vector<NodeId> at = start_;
    steps_.resize(kSteps);
    for (Step& step : steps_) {
      step.object = static_cast<ObjectId>(rng.below(kObjects));
      const auto neighbors = graph.neighbors(at[step.object]);
      step.to = neighbors[rng.below(neighbors.size())].to;
      move_optimal_ += oracle.distance(at[step.object], step.to);
      at[step.object] = step.to;
      for (Query& query : step.queries) {
        query.from = static_cast<NodeId>(rng.below(n));
        query.object = static_cast<ObjectId>(rng.below(kObjects));
        query.expected = at[query.object];
        query_optimal_ += oracle.distance(query.from, query.expected);
      }
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
    mot::ReliableChannel reliable;
    std::optional<CountingChannel> counted;
    mot::Channel* channel = &reliable;
    if (traced) channel = &counted.emplace(reliable, &probe.channel);
    mot::overload::OverloadConfig config;
    config.seed = overload_seed_;
    mot::ServiceModel service(sim, world.graph.num_nodes(), config);
    mot::proto::DistributedMot engine(world.provider(), sim,
                                      world.chain_options);
    engine.use_channel(channel);
    engine.use_overload(&service);
    for (ObjectId o = 0; o < kObjects; ++o) engine.publish(o, start_[o]);
    sim.run();
    out.setup_s = seconds_since(setup_start);
    out.layers["hier.build_s"] = world.hierarchy_build_s;

    probe = EngineProbe{};  // count the timed phase only
    const mot::proto::ProtocolStats before = engine.stats();
    const mot::ServiceStats service_before = service.stats();
    Tally tally;
    const std::uint64_t timed_start = now_ns();
    for (const Step& step : steps_) {
      std::uint64_t start = now_ns();
      bracket(inject, [&] {
        engine.move(step.object, step.to,
                    [t = &tally](const mot::MoveResult& r) {
                      t->record_move(r.cost, r.peak_level);
                    });
      });
      run_sim(sim, p);
      const double move_us = us_since(start);
      out.move_us.add(move_us);
      out.parts_us.add(move_us);
      for (const Query& query : step.queries) {
        start = now_ns();
        bracket(inject, [&] {
          engine.query(query.from, query.object,
                       [t = &tally, e = query.expected](
                           const mot::QueryResult& r) {
                         t->record_query(r.found, r.degraded, r.proxy,
                                         r.cost, e);
                       });
        });
        run_sim(sim, p);
        const double query_us = us_since(start);
        out.query_us.add(query_us);
        out.parts_us.add(query_us);
      }
    }
    out.timed_s = seconds_since(timed_start);
    const std::uint64_t issued =
        static_cast<std::uint64_t>(kSteps) * (1 + kQueriesPerMove);
    finish_engine_rep(engine, tally, issued, move_optimal_, query_optimal_,
                      p, before, out);
    if (!service.conserved()) {
      out.audit.push_back("service ledger does not balance at quiescence");
    }
    if (traced) {
      const mot::ServiceStats& after = service.stats();
      const double ops =
          static_cast<double>(std::max<std::uint64_t>(out.ops, 1));
      out.layers["overload.arrivals_per_op"] =
          static_cast<double>(after.arrivals - service_before.arrivals) / ops;
      out.layers["overload.shed_per_op"] =
          static_cast<double>(after.shed_total() -
                              service_before.shed_total()) /
          ops;
      out.layers["overload.max_queue_depth"] =
          static_cast<double>(after.max_depth);
      // Simulator time units, over the engine's whole life.
      out.layers["overload.queue_delay_p99"] =
          service.queue_delays().quantile(0.99);
    }
    return out;
  }

 private:
  std::uint64_t overload_seed_ = 0;
  std::vector<NodeId> start_;
  std::vector<Step> steps_;
  double move_optimal_ = 0.0;
  double query_optimal_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_locate(const Options& options) {
  return std::make_unique<Locate>(options);
}

}  // namespace perfbench
