// Golden pins for the reliable link layer under overload control.
//
// Scenario (a) is a seeded locate-shaped run: objects at random sensors,
// then steps of one random-walk move followed by four queries from random
// origins, one operation in flight, over a loss-free ReliableChannel with
// a ServiceModel at the default operating point. Scenario (b) replays the
// same workload, each step's queries in flight together, over an
// UnreliableChannel that drops, duplicates and delays frames, crash-stops
// one sensor mid-operation and cuts the grid in half for a while. Its
// sensors have two-slot inboxes, a one-frame credit window and a
// two-timeout breaker, so breakers trip, probe and close, frames stall
// for credit and admission sheds.
//
// The expected values were computed before the link tables, the event
// heap and the admission thresholds were rewritten for speed. Every
// counter, the meter, the answers and the simulator clock at quiescence
// must come out exactly as pinned.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/mot.hpp"
#include "faults/unreliable_channel.hpp"
#include "graph/generators.hpp"
#include "hier/doubling_hierarchy.hpp"
#include "proto/distributed_mot.hpp"
#include "sim/channel.hpp"
#include "sim/service_model.hpp"
#include "util/rng.hpp"

namespace mot {
namespace {

constexpr std::size_t kSide = 12;
constexpr ObjectId kObjects = 48;
constexpr int kSteps = 60;
constexpr int kQueriesPerMove = 4;

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffu;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

struct Step {
  ObjectId object = 0;
  NodeId to = kInvalidNode;
  NodeId origins[kQueriesPerMove] = {};
  ObjectId targets[kQueriesPerMove] = {};
};

// The world and a workload that never places an object on, nor issues a
// query from, `victim` — the sensor scenario (b) crashes.
struct World {
  World()
      : graph(make_grid(kSide, kSide)),
        oracle(make_distance_oracle(graph)) {
    DoublingHierarchy::Params hp;
    hp.seed = 7;
    hierarchy = DoublingHierarchy::build(graph, *oracle, hp);
    MotOptions options;
    provider = std::make_unique<MotPathProvider>(*hierarchy, options);
    chain_options = make_mot_chain_options(options);
    // A busy sensor to crash: the highest stop above node 0 that is not
    // the root.
    for (const PathStop& stop : provider->upward_sequence(0)) {
      if (stop.node.node != provider->root_stop().node) {
        victim = stop.node.node;
      }
    }

    Rng rng = SeedTree(2024).stream("link-golden");
    const auto pick_live = [&] {
      NodeId node = victim;
      while (node == victim) {
        node = static_cast<NodeId>(rng.below(graph.num_nodes()));
      }
      return node;
    };
    start.resize(kObjects);
    for (NodeId& node : start) node = pick_live();
    std::vector<NodeId> at = start;
    steps.resize(kSteps);
    for (Step& step : steps) {
      step.object = static_cast<ObjectId>(rng.below(kObjects));
      const auto neighbors = graph.neighbors(at[step.object]);
      step.to = victim;
      while (step.to == victim) {
        step.to = neighbors[rng.below(neighbors.size())].to;
      }
      at[step.object] = step.to;
      for (int q = 0; q < kQueriesPerMove; ++q) {
        step.origins[q] = pick_live();
        step.targets[q] = static_cast<ObjectId>(rng.below(kObjects));
      }
    }
  }

  Graph graph;
  std::unique_ptr<DistanceOracle> oracle;
  std::unique_ptr<DoublingHierarchy> hierarchy;
  std::unique_ptr<MotPathProvider> provider;
  ChainOptions chain_options;
  NodeId victim = kInvalidNode;
  std::vector<NodeId> start;
  std::vector<Step> steps;
};

struct LinkRun {
  proto::ProtocolStats stats;
  ServiceStats service;
  double meter = 0.0;
  std::uint64_t meter_messages = 0;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  SimTime now = 0.0;
  std::vector<std::string> violations;
  bool conserved = false;
};

// Drives the workload to quiescence after every operation. With a
// `faults` channel, each step's four queries run together instead, the
// crash fires inside step 20's move, and the partition opens inside step
// 35's move and heals 40 time units later.
LinkRun run_locate(const World& world, Simulator& sim, Channel& channel,
                   faults::UnreliableChannel* faults,
                   const overload::OverloadConfig& config) {
  LinkRun out;
  proto::DistributedMot dist(*world.provider, sim, world.chain_options);
  dist.use_channel(&channel);
  if (faults != nullptr) dist.replicate_detection_lists(true);
  ServiceModel service(sim, world.graph.num_nodes(), config);
  dist.use_overload(&service);

  for (ObjectId o = 0; o < kObjects; ++o) dist.publish(o, world.start[o]);
  sim.run();
  for (int s = 0; s < kSteps; ++s) {
    const Step& step = world.steps[static_cast<std::size_t>(s)];
    dist.move(step.object, step.to, [&out](const MoveResult& r) {
      out.digest = fnv1a(out.digest, std::bit_cast<std::uint64_t>(r.cost));
      out.digest =
          fnv1a(out.digest, static_cast<std::uint64_t>(r.peak_level));
    });
    if (faults != nullptr && s == 20) {
      sim.schedule(1.0,
                   [faults, &world] { faults->crash_now(world.victim); });
    }
    if (faults != nullptr && s == 35) {
      sim.schedule(0.5, [faults, &sim] {
        std::vector<NodeId> west;
        std::vector<NodeId> east;
        for (NodeId v = 0; v < kSide * kSide; ++v) {
          (v % kSide < kSide / 2 ? west : east).push_back(v);
        }
        const std::uint64_t cut = faults->cut_now(west, east);
        sim.schedule(40.0, [faults, cut] { faults->heal_now(cut); });
      });
    }
    sim.run();
    for (int q = 0; q < kQueriesPerMove; ++q) {
      dist.query(step.origins[q], step.targets[q],
                 [&out](const QueryResult& r) {
                   out.digest = fnv1a(out.digest, r.found ? 1 : 0);
                   out.digest = fnv1a(out.digest, r.proxy);
                   out.digest = fnv1a(out.digest,
                                      std::bit_cast<std::uint64_t>(r.cost));
                   out.digest = fnv1a(
                       out.digest, static_cast<std::uint64_t>(r.found_level));
                   out.digest = fnv1a(out.digest, r.degraded ? 1 : 0);
                   out.digest = fnv1a(
                       out.digest,
                       std::bit_cast<std::uint64_t>(r.staleness_bound));
                 });
      if (faults == nullptr) sim.run();
    }
    sim.run();
  }
  out.stats = dist.stats();
  out.service = service.stats();
  out.meter = dist.meter().total_distance();
  out.meter_messages = dist.meter().total_messages();
  out.now = sim.now();
  out.violations = dist.invariant_violations();
  out.conserved = service.conserved() && service.node_ledgers_conserved();
  return out;
}

struct Field {
  const char* name;
  double value;
};

std::vector<Field> fields_of(const LinkRun& run) {
  const proto::ProtocolStats& s = run.stats;
  const ServiceStats& v = run.service;
  const auto u = [](std::uint64_t x) { return static_cast<double>(x); };
  return {
      {"messages_sent", u(s.messages_sent)},
      {"physical_hops", u(s.physical_hops)},
      {"messages_coalesced", u(s.messages_coalesced)},
      {"batch_flushes", u(s.batch_flushes)},
      {"publishes_completed", u(s.publishes_completed)},
      {"moves_completed", u(s.moves_completed)},
      {"queries_completed", u(s.queries_completed)},
      {"queries_parked", u(s.queries_parked)},
      {"queries_redirected", u(s.queries_redirected)},
      {"queries_restarted", u(s.queries_restarted)},
      {"data_sent", u(s.data_sent)},
      {"retransmissions", u(s.retransmissions)},
      {"acks_sent", u(s.acks_sent)},
      {"duplicates_suppressed", u(s.duplicates_suppressed)},
      {"ack_rtt_sum", s.ack_rtt_sum},
      {"ack_rtt_count", u(s.ack_rtt_count)},
      {"transport_distance", s.transport_distance},
      {"crash_recoveries", u(s.crash_recoveries)},
      {"chain_splices", u(s.chain_splices)},
      {"objects_rebuilt", u(s.objects_rebuilt)},
      {"queries_rescued", u(s.queries_rescued)},
      {"queries_aborted", u(s.queries_aborted)},
      {"recovery_distance", s.recovery_distance},
      {"queries_retried", u(s.queries_retried)},
      {"queries_hedged", u(s.queries_hedged)},
      {"queries_deadline_aborted", u(s.queries_deadline_aborted)},
      {"query_failovers", u(s.query_failovers)},
      {"replica_updates", u(s.replica_updates)},
      {"stale_query_drops", u(s.stale_query_drops)},
      {"stale_maintenance_drops", u(s.stale_maintenance_drops)},
      {"retransmits_suppressed", u(s.retransmits_suppressed)},
      {"messages_shed", u(s.messages_shed)},
      {"queries_degraded", u(s.queries_degraded)},
      {"sibling_redirects", u(s.sibling_redirects)},
      {"credit_stalls", u(s.credit_stalls)},
      {"breaker_trips", u(s.breaker_trips)},
      {"breaker_probes", u(s.breaker_probes)},
      {"breaker_closes", u(s.breaker_closes)},
      {"breaker_suppressed", u(s.breaker_suppressed)},
      {"window_increases", u(s.window_increases)},
      {"window_decreases", u(s.window_decreases)},
      {"divert_attempts", u(s.divert_attempts)},
      {"tuner_steps", u(s.tuner_steps)},
      {"replicas_placed", u(s.replicas_placed)},
      {"replicas_retired", u(s.replicas_retired)},
      {"service.arrivals", u(v.arrivals)},
      {"service.admitted", u(v.admitted)},
      {"service.serviced", u(v.serviced)},
      {"service.shed_capacity", u(v.shed_capacity)},
      {"service.shed_deadline", u(v.shed_deadline)},
      {"service.shed_early", u(v.shed_early)},
      {"service.shed_recovery", u(v.shed_by_class[0])},
      {"service.shed_transport", u(v.shed_by_class[1])},
      {"service.shed_maintenance", u(v.shed_by_class[2])},
      {"service.shed_query", u(v.shed_by_class[3])},
      {"service.max_depth", u(v.max_depth)},
      {"meter", run.meter},
      {"meter_messages", u(run.meter_messages)},
      {"digest_hi", u(run.digest >> 32)},
      {"digest_lo", u(run.digest & 0xffffffffu)},
      {"now", run.now},
  };
}

void expect_pinned(const LinkRun& run, const std::vector<Field>& want) {
  EXPECT_TRUE(run.violations.empty()) << run.violations.front();
  EXPECT_TRUE(run.conserved);
  const std::vector<Field> got = fields_of(run);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_STREQ(got[i].name, want[i].name);
    EXPECT_EQ(got[i].value, want[i].value) << got[i].name;
  }
}

TEST(LinkGolden, ReliableLocateRunIsPinned) {
  const World world;
  Simulator sim;
  ReliableChannel channel;
  overload::OverloadConfig config;
  config.seed = SeedTree(2024).seed_for("overload");
  const LinkRun run = run_locate(world, sim, channel, nullptr, config);
  expect_pinned(run, {
      {"messages_sent", 6932},
      {"physical_hops", 0},
      {"messages_coalesced", 0},
      {"batch_flushes", 0},
      {"publishes_completed", 48},
      {"moves_completed", 60},
      {"queries_completed", 240},
      {"queries_parked", 0},
      {"queries_redirected", 0},
      {"queries_restarted", 0},
      {"data_sent", 6214},
      {"retransmissions", 0},
      {"acks_sent", 6214},
      {"duplicates_suppressed", 0},
      {"ack_rtt_sum", 77578},
      {"ack_rtt_count", 6214},
      {"transport_distance", 38789},
      {"crash_recoveries", 0},
      {"chain_splices", 0},
      {"objects_rebuilt", 0},
      {"queries_rescued", 0},
      {"queries_aborted", 0},
      {"recovery_distance", 0},
      {"queries_retried", 0},
      {"queries_hedged", 0},
      {"queries_deadline_aborted", 0},
      {"query_failovers", 0},
      {"replica_updates", 0},
      {"stale_query_drops", 0},
      {"stale_maintenance_drops", 0},
      {"retransmits_suppressed", 0},
      {"messages_shed", 0},
      {"queries_degraded", 0},
      {"sibling_redirects", 0},
      {"credit_stalls", 1950},
      {"breaker_trips", 0},
      {"breaker_probes", 0},
      {"breaker_closes", 0},
      {"breaker_suppressed", 0},
      {"window_increases", 0},
      {"window_decreases", 0},
      {"divert_attempts", 0},
      {"tuner_steps", 0},
      {"replicas_placed", 0},
      {"replicas_retired", 0},
      {"service.arrivals", 6214},
      {"service.admitted", 6214},
      {"service.serviced", 6214},
      {"service.shed_capacity", 0},
      {"service.shed_deadline", 0},
      {"service.shed_early", 0},
      {"service.shed_recovery", 0},
      {"service.shed_transport", 0},
      {"service.shed_maintenance", 0},
      {"service.shed_query", 0},
      {"service.max_depth", 3},
      {"meter", 61685},
      {"meter_messages", 11153},
      {"digest_hi", 2189249166},
      {"digest_lo", 1564866813},
      {"now", 17665},
  });
}

TEST(LinkGolden, FaultyLocateRunIsPinned) {
  const World world;
  Simulator sim;
  faults::FaultPlan plan;
  faults::LinkFaults link;
  link.drop = 0.15;
  link.duplicate = 0.05;
  link.delay = 0.1;
  link.max_extra_delay = 3.0;
  plan.set_default_faults(link);
  faults::UnreliableChannel channel(plan,
                                    SeedTree(2024).seed_for("channel"));
  overload::OverloadConfig config;
  config.seed = SeedTree(2024).seed_for("overload");
  config.service_rate = 0.1;
  config.queue_capacity = 2;
  config.max_window = 1;
  config.breaker_threshold = 2;
  config.breaker_cooldown = 8.0;
  const LinkRun run = run_locate(world, sim, channel, &channel, config);
  EXPECT_GT(run.stats.breaker_trips, 0u);
  EXPECT_GT(run.stats.breaker_probes, 0u);
  EXPECT_GT(run.stats.breaker_closes, 0u);
  EXPECT_GT(run.stats.credit_stalls, 0u);
  EXPECT_GT(run.service.shed_total(), 0u);
  EXPECT_EQ(run.stats.crash_recoveries, 1u);
  expect_pinned(run, {
      {"messages_sent", 9101},
      {"physical_hops", 0},
      {"messages_coalesced", 0},
      {"batch_flushes", 0},
      {"publishes_completed", 48},
      {"moves_completed", 60},
      {"queries_completed", 240},
      {"queries_parked", 0},
      {"queries_redirected", 0},
      {"queries_restarted", 0},
      {"data_sent", 8383},
      {"retransmissions", 3792},
      {"acks_sent", 10864},
      {"duplicates_suppressed", 2484},
      {"ack_rtt_sum", 240503.80088077643},
      {"ack_rtt_count", 8380},
      {"transport_distance", 98873},
      {"crash_recoveries", 1},
      {"chain_splices", 124},
      {"objects_rebuilt", 1},
      {"queries_rescued", 0},
      {"queries_aborted", 0},
      {"recovery_distance", 1273},
      {"queries_retried", 0},
      {"queries_hedged", 0},
      {"queries_deadline_aborted", 0},
      {"query_failovers", 0},
      {"replica_updates", 4145},
      {"stale_query_drops", 0},
      {"stale_maintenance_drops", 0},
      {"retransmits_suppressed", 1},
      {"messages_shed", 6},
      {"queries_degraded", 25},
      {"sibling_redirects", 24},
      {"credit_stalls", 2685},
      {"breaker_trips", 770},
      {"breaker_probes", 770},
      {"breaker_closes", 580},
      {"breaker_suppressed", 770},
      {"window_increases", 0},
      {"window_decreases", 0},
      {"divert_attempts", 0},
      {"tuner_steps", 0},
      {"replicas_placed", 0},
      {"replicas_retired", 0},
      {"service.arrivals", 8386},
      {"service.admitted", 8380},
      {"service.serviced", 8380},
      {"service.shed_capacity", 6},
      {"service.shed_deadline", 0},
      {"service.shed_early", 0},
      {"service.shed_recovery", 0},
      {"service.shed_transport", 0},
      {"service.shed_maintenance", 5},
      {"service.shed_query", 1},
      {"service.max_depth", 1},
      {"meter", 123019},
      {"meter_messages", 19719},
      {"digest_hi", 574536844},
      {"digest_lo", 3470153440},
      {"now", 71935.00508984206},
  });
}

}  // namespace
}  // namespace mot
