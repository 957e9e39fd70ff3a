// Overload resilience: bounded-queue admission control (with structural
// priority-inversion impossibility), deterministic RED shedding, the
// circuit-breaker state machine, the finite-capacity service model's
// conservation ledger, and the protocol-level behaviors — shed frames
// rescued by retransmission, graceful query degradation with a checked
// staleness bound, sibling redirects off hot chain hops, credit-window
// backpressure, and bit-for-bit deterministic overloaded runs.
#include "overload/circuit_breaker.hpp"
#include "overload/node_queue.hpp"
#include "overload/overload.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "chaos/chaos_runner.hpp"
#include "chaos/schedule.hpp"
#include "core/mot.hpp"
#include "faults/fault_plan.hpp"
#include "faults/unreliable_channel.hpp"
#include "graph/generators.hpp"
#include "hier/doubling_hierarchy.hpp"
#include "proto/distributed_mot.hpp"
#include "sim/service_model.hpp"
#include "tracking/chain_tracker.hpp"

namespace mot {
namespace {

using overload::Admit;
using overload::BoundedNodeQueue;
using overload::CircuitBreaker;
using overload::OverloadConfig;
using overload::Priority;
using proto::DistributedMot;

std::function<void()> noop() {
  return [] {};
}

// ---------------------------------------------------------------------------
// OverloadConfig
// ---------------------------------------------------------------------------

TEST(OverloadConfig, AdmitLimitsAreMonotoneAndNeverZero) {
  OverloadConfig config;
  config.queue_capacity = 20;
  std::size_t previous = config.queue_capacity;
  for (std::size_t c = 0; c < overload::kNumClasses; ++c) {
    const std::size_t limit =
        config.admit_limit(static_cast<Priority>(c));
    EXPECT_GE(limit, 1u);
    EXPECT_LE(limit, previous);  // monotone: higher class, higher limit
    previous = limit;
  }
  EXPECT_EQ(config.admit_limit(Priority::kRecovery), 20u);
  EXPECT_EQ(config.admit_limit(Priority::kQuery), 10u);

  // Even a capacity-1 node admits one message of every class.
  config.queue_capacity = 1;
  for (std::size_t c = 0; c < overload::kNumClasses; ++c) {
    EXPECT_EQ(config.admit_limit(static_cast<Priority>(c)), 1u);
  }
  EXPECT_GE(config.high_watermark(), 1u);

  // Misconfigured fractions land on the clamp: a negative or NaN product
  // cast to unsigned would be undefined behavior, and so would one past
  // the range of size_t.
  config.queue_capacity = 20;
  const auto query = static_cast<std::size_t>(Priority::kQuery);
  for (const double bad : {-0.5, -1e300,
                           std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::infinity()}) {
    config.admit_fraction[query] = bad;
    config.degrade_fraction = bad;
    EXPECT_EQ(config.admit_limit(Priority::kQuery), 1u) << bad;
    EXPECT_EQ(config.high_watermark(), 1u) << bad;
  }
  for (const double huge :
       {1e300, std::numeric_limits<double>::infinity()}) {
    config.admit_fraction[query] = huge;
    config.degrade_fraction = huge;
    EXPECT_EQ(config.admit_limit(Priority::kQuery), 20u) << huge;
    EXPECT_EQ(config.high_watermark(), 20u) << huge;
  }
}

// ---------------------------------------------------------------------------
// BoundedNodeQueue admission
// ---------------------------------------------------------------------------

TEST(OverloadQueue, AdmitsToTheClassLimitThenShedsCapacity) {
  OverloadConfig config;
  config.queue_capacity = 8;   // query limit = 4
  config.red_fraction = 1.0;   // disable the RED ramp
  BoundedNodeQueue queue(&config);
  Rng red(1);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(queue.offer(0.0, Priority::kQuery, noop(), red),
              Admit::kAdmit);
  }
  EXPECT_EQ(queue.offer(0.0, Priority::kQuery, noop(), red),
            Admit::kShedCapacity);
  EXPECT_EQ(queue.depth(), 4u);  // sheds leave the queue untouched
}

TEST(OverloadQueue, RecoveryIsAdmittedWhereQueriesAreShed) {
  // Priority inversion is structurally impossible: at any depth where a
  // high class is refused, every lower class is refused too — so fill
  // the queue past the query limit and watch recovery still get in.
  OverloadConfig config;
  config.queue_capacity = 8;  // query 4, maintenance 6, transport 7
  config.red_fraction = 1.0;
  BoundedNodeQueue queue(&config);
  Rng red(1);
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(queue.offer(0.0, Priority::kMaintenance, noop(), red),
              Admit::kAdmit);
  }
  EXPECT_EQ(queue.offer(0.0, Priority::kQuery, noop(), red),
            Admit::kShedCapacity);
  EXPECT_EQ(queue.offer(0.0, Priority::kMaintenance, noop(), red),
            Admit::kShedCapacity);
  EXPECT_EQ(queue.offer(0.0, Priority::kTransport, noop(), red),
            Admit::kAdmit);
  EXPECT_EQ(queue.offer(0.0, Priority::kRecovery, noop(), red),
            Admit::kAdmit);
  EXPECT_EQ(queue.depth(), 8u);
  EXPECT_EQ(queue.offer(0.0, Priority::kRecovery, noop(), red),
            Admit::kShedCapacity);  // hard capacity binds even recovery
}

TEST(OverloadQueue, DeadlineBudgetShedsProjectedLateMessages) {
  OverloadConfig config;
  config.queue_capacity = 16;
  config.service_rate = 1.0;
  config.red_fraction = 1.0;
  config.delay_budget[static_cast<std::size_t>(Priority::kMaintenance)] =
      2.5;  // shed once 3 messages are already waiting
  BoundedNodeQueue queue(&config);
  Rng red(1);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(queue.offer(0.0, Priority::kMaintenance, noop(), red),
              Admit::kAdmit);
  }
  EXPECT_EQ(queue.offer(0.0, Priority::kMaintenance, noop(), red),
            Admit::kShedDeadline);
  // Classes without a budget are untouched by it.
  EXPECT_EQ(queue.offer(0.0, Priority::kRecovery, noop(), red),
            Admit::kAdmit);
}

TEST(OverloadQueue, RedEarlyDropIsSeededAndDeterministic) {
  OverloadConfig config;
  config.queue_capacity = 16;  // query limit 8, RED onset at 4
  const auto pattern = [&config](std::uint64_t seed) {
    BoundedNodeQueue queue(&config);
    Rng red(seed);
    std::vector<Admit> outcomes;
    for (int i = 0; i < 30; ++i) {
      outcomes.push_back(queue.offer(0.0, Priority::kQuery, noop(), red));
      // Drain one slot whenever the class limit is reached so every
      // later offer lands in the RED ramp region instead of the
      // draw-free hard-capacity shed.
      if (queue.depth() >= config.admit_limit(Priority::kQuery)) {
        queue.take().run();
      }
    }
    return outcomes;
  };
  const std::vector<Admit> a = pattern(7);
  EXPECT_EQ(a, pattern(7));   // bit-identical replay
  EXPECT_NE(a, pattern(8));   // and the seed matters
  int early = 0;
  for (const Admit outcome : a) {
    if (outcome == Admit::kShedEarly) ++early;
  }
  EXPECT_GT(early, 0);  // the ramp reaches p = 1 just under the limit
}

TEST(OverloadQueue, ServiceOrderFollowsClassThenFifo) {
  OverloadConfig config;
  config.queue_capacity = 16;
  config.red_fraction = 1.0;
  BoundedNodeQueue queue(&config);
  Rng red(1);
  std::vector<int> order;
  const auto tag = [&order](int id) {
    return [&order, id] { order.push_back(id); };
  };
  queue.offer(0.0, Priority::kQuery, tag(0), red);
  queue.offer(0.0, Priority::kMaintenance, tag(1), red);
  queue.offer(0.0, Priority::kRecovery, tag(2), red);
  queue.offer(0.0, Priority::kMaintenance, tag(3), red);
  while (!queue.empty()) queue.take().run();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3, 0}));

  // The FIFO discipline ignores classes entirely.
  config.discipline = overload::QueueDiscipline::kFifo;
  BoundedNodeQueue fifo(&config);
  order.clear();
  fifo.offer(0.0, Priority::kQuery, tag(0), red);
  fifo.offer(0.0, Priority::kMaintenance, tag(1), red);
  fifo.offer(0.0, Priority::kRecovery, tag(2), red);
  while (!fifo.empty()) fifo.take().run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// ---------------------------------------------------------------------------
// CircuitBreaker
// ---------------------------------------------------------------------------

TEST(OverloadBreaker, TripsAfterConsecutiveTimeoutsAndResetsOnSuccess) {
  CircuitBreaker breaker(/*threshold=*/3, /*cooldown=*/10.0);
  EXPECT_FALSE(breaker.on_timeout(0.0, 1));
  EXPECT_FALSE(breaker.on_timeout(1.0, 2));
  EXPECT_FALSE(breaker.open());
  breaker.on_success();  // a success anywhere resets the streak
  EXPECT_EQ(breaker.consecutive_timeouts(), 0);
  EXPECT_FALSE(breaker.on_timeout(2.0, 3));
  EXPECT_FALSE(breaker.on_timeout(3.0, 4));
  EXPECT_TRUE(breaker.on_timeout(4.0, 5));  // third in a row trips it
  EXPECT_TRUE(breaker.open());
  EXPECT_EQ(breaker.trips(), 1);
}

TEST(OverloadBreaker, HalfOpenElectsOneProbeAndClosesOnItsAck) {
  CircuitBreaker breaker(2, 10.0);
  breaker.on_timeout(0.0, 1);
  ASSERT_TRUE(breaker.on_timeout(1.0, 2));  // opens at t=1
  EXPECT_EQ(breaker.gate(5.0, 7), CircuitBreaker::Gate::kBlocked);
  // Cooldown elapsed: the first asker is elected the probe...
  EXPECT_EQ(breaker.gate(12.0, 7), CircuitBreaker::Gate::kProbe);
  // ...everyone else stays parked...
  EXPECT_EQ(breaker.gate(12.5, 8), CircuitBreaker::Gate::kBlocked);
  // ...and the probe's own retry is re-elected, so a lost probe cannot
  // wedge the link.
  EXPECT_EQ(breaker.gate(13.0, 7), CircuitBreaker::Gate::kProbe);
  EXPECT_TRUE(breaker.on_success());  // probe acked: closed
  EXPECT_FALSE(breaker.open());
  EXPECT_EQ(breaker.gate(14.0, 9), CircuitBreaker::Gate::kPass);
}

TEST(OverloadBreaker, ProbeTimeoutReopensForAnotherCooldown) {
  CircuitBreaker breaker(2, 10.0);
  breaker.on_timeout(0.0, 1);
  ASSERT_TRUE(breaker.on_timeout(1.0, 2));
  ASSERT_EQ(breaker.gate(12.0, 5), CircuitBreaker::Gate::kProbe);
  EXPECT_TRUE(breaker.on_timeout(12.5, 5));  // probe died: re-open
  EXPECT_EQ(breaker.trips(), 2);
  EXPECT_EQ(breaker.gate(13.0, 6), CircuitBreaker::Gate::kBlocked);
  // A non-probe frame's late timeout while open carries no evidence.
  EXPECT_EQ(breaker.gate(23.0, 6), CircuitBreaker::Gate::kProbe);
  EXPECT_FALSE(breaker.on_timeout(23.1, 99));
  EXPECT_TRUE(breaker.on_success());
}

// ---------------------------------------------------------------------------
// ServiceModel
// ---------------------------------------------------------------------------

TEST(OverloadService, DrainsAdmittedWorkAndBalancesTheLedger) {
  Simulator sim;
  OverloadConfig config;
  config.service_rate = 2.0;
  config.queue_capacity = 32;
  ServiceModel service(sim, /*num_nodes=*/4, config);
  std::vector<int> ran;
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(service.offer(1, Priority::kMaintenance,
                            [&ran, i] { ran.push_back(i); }),
              Admit::kAdmit);
  }
  EXPECT_GT(service.depth(1), 0u);
  sim.run();
  EXPECT_EQ(ran.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(ran[i], i);  // FIFO in class
  const ServiceStats& stats = service.stats();
  EXPECT_EQ(stats.arrivals, 10u);
  EXPECT_EQ(stats.admitted, 10u);
  EXPECT_EQ(stats.serviced, 10u);
  EXPECT_EQ(service.total_queued(), 0u);
  EXPECT_TRUE(service.conserved());
  EXPECT_EQ(service.queue_delays().count(), 10u);
  // Each service slot takes 1/rate: the last of 10 messages waited.
  EXPECT_GT(service.queue_delays().max(), 0.0);
}

TEST(OverloadService, ShedsPastCapacityAndReportsHeadroom) {
  Simulator sim;
  OverloadConfig config;
  config.service_rate = 1.0;
  config.queue_capacity = 4;  // query limit 2
  config.red_fraction = 1.0;
  ServiceModel service(sim, 2, config);
  EXPECT_EQ(service.headroom(0), 2u);
  int shed = 0;
  for (int i = 0; i < 6; ++i) {
    if (service.offer(0, Priority::kQuery, noop()) != Admit::kAdmit) {
      ++shed;
    }
  }
  // The first admit goes straight into the busy slot, so the 2-deep
  // query lane holds two more: 3 admitted, 3 refused.
  EXPECT_EQ(shed, 3);
  EXPECT_EQ(service.headroom(0), 0u);
  const ServiceStats& stats = service.stats();
  EXPECT_EQ(stats.arrivals, 6u);
  EXPECT_EQ(stats.shed_total(), 3u);
  EXPECT_EQ(stats.shed_by_class[static_cast<std::size_t>(Priority::kQuery)],
            3u);
  EXPECT_TRUE(service.conserved());
  sim.run();
  EXPECT_EQ(service.stats().serviced, 3u);
  EXPECT_EQ(service.total_queued(), 0u);
  EXPECT_GE(service.stats().max_depth, 1u);

  // Retuning node 0's RED onset engages the ramp there on the very next
  // admissions, while node 1 keeps its ramp off. In each round the first
  // query enters service and the second waits, so the third meets the
  // ramp at depth 1 and is shed early with probability 1/2.
  service.set_red_fraction(0, 0.01);  // onset 0, query limit 2
  const auto early_sheds = [&](std::size_t node) {
    const std::uint64_t before = service.stats().shed_early;
    for (int round = 0; round < 20; ++round) {
      for (int admitted = 0; admitted < 2; ++admitted) {
        EXPECT_EQ(service.offer(node, Priority::kQuery, noop()),
                  Admit::kAdmit);
      }
      service.offer(node, Priority::kQuery, noop());
      sim.run();
    }
    return service.stats().shed_early - before;
  };
  EXPECT_GT(early_sheds(0), 0u);
  EXPECT_EQ(early_sheds(1), 0u);

  // Halving node 0's query admit fraction halves its headroom at once,
  // and its next admissions follow the new limit: one in service, one
  // waiting. Node 1 keeps its limit of two waiting.
  service.set_query_admit_fraction(0, 0.25);  // query limit 1
  EXPECT_EQ(service.headroom(0), 1u);
  EXPECT_EQ(service.headroom(1), 2u);
  for (const Admit expected :
       {Admit::kAdmit, Admit::kAdmit, Admit::kShedCapacity}) {
    EXPECT_EQ(service.offer(0, Priority::kQuery, noop()), expected);
  }
  EXPECT_EQ(service.headroom(0), 0u);
  for (const Admit expected : {Admit::kAdmit, Admit::kAdmit, Admit::kAdmit,
                               Admit::kShedCapacity}) {
    EXPECT_EQ(service.offer(1, Priority::kQuery, noop()), expected);
  }
  sim.run();
  EXPECT_TRUE(service.conserved());
  EXPECT_TRUE(service.node_ledgers_conserved());
}

// ---------------------------------------------------------------------------
// Protocol integration
// ---------------------------------------------------------------------------

struct Fixture {
  explicit Fixture(std::size_t side = 8)
      : graph(make_grid(side, side)), oracle(make_distance_oracle(graph)) {
    DoublingHierarchy::Params hp;
    hp.seed = 7;
    hierarchy = DoublingHierarchy::build(graph, *oracle, hp);
    MotOptions options;
    options.use_parent_sets = false;
    provider = std::make_unique<MotPathProvider>(*hierarchy, options);
    chain_options = make_mot_chain_options(options);
  }

  Graph graph;
  std::unique_ptr<DistanceOracle> oracle;
  std::unique_ptr<DoublingHierarchy> hierarchy;
  std::unique_ptr<MotPathProvider> provider;
  ChainOptions chain_options;
};

// One overloaded run: publish `objects`, then flood `flood` concurrent
// queries for object 0 from seeded origins, then drain. Returns the
// results in issue order.
struct FloodOutcome {
  std::vector<QueryResult> results;
  proto::ProtocolStats stats;
  ServiceStats service_stats;
  std::vector<std::string> violations;
  NodeId true_position = 0;  // where object 0 actually lives
};

FloodOutcome run_flood(const Fixture& fx, const OverloadConfig& config,
                       int flood, std::uint64_t seed,
                       const faults::FaultPlan& plan = {}) {
  FloodOutcome out;
  Simulator sim;
  faults::UnreliableChannel channel(plan,
                                    SeedTree(seed).seed_for("channel"));
  DistributedMot dist(*fx.provider, sim, fx.chain_options);
  dist.use_channel(&channel);
  dist.replicate_detection_lists(true);
  ServiceModel service(sim, fx.graph.num_nodes(), config);
  dist.use_overload(&service);

  Rng rng = SeedTree(seed).stream("flood");
  const std::size_t n = fx.graph.num_nodes();
  for (ObjectId o = 0; o < 4; ++o) dist.publish(o, rng.below(n));
  sim.run();

  out.results.resize(static_cast<std::size_t>(flood));
  for (int i = 0; i < flood; ++i) {
    dist.query(rng.below(n), /*object=*/0,
               [&out, i](const QueryResult& r) {
                 out.results[static_cast<std::size_t>(i)] = r;
               });
  }
  sim.run();
  out.stats = dist.stats();
  out.service_stats = service.stats();
  out.violations = dist.invariant_violations();
  out.true_position = dist.physical_position(0);
  return out;
}

TEST(OverloadProto, HugeCapacityMatchesTheLegacyRuntime) {
  Fixture fx;
  const std::uint64_t seed = 11;
  const std::size_t n = fx.graph.num_nodes();

  // Drive the identical workload with and without a (practically
  // unconstrained) service model; answers, costs and placements must
  // agree — the service layer reorders time, not outcomes.
  const auto run = [&](bool with_service) {
    Simulator sim;
    faults::FaultPlan plan;
    faults::UnreliableChannel channel(plan,
                                      SeedTree(seed).seed_for("channel"));
    DistributedMot dist(*fx.provider, sim, fx.chain_options);
    dist.use_channel(&channel);
    std::unique_ptr<ServiceModel> service;
    if (with_service) {
      OverloadConfig config;
      config.service_rate = 1000.0;
      config.queue_capacity = 100000;
      service = std::make_unique<ServiceModel>(sim, n, config);
      dist.use_overload(service.get());
    }
    Rng rng = SeedTree(seed).stream("workload");
    for (ObjectId o = 0; o < 6; ++o) dist.publish(o, rng.below(n));
    sim.run();
    std::vector<Weight> costs;
    for (int i = 0; i < 12; ++i) {
      dist.move(static_cast<ObjectId>(i % 6), rng.below(n),
                [&costs](const MoveResult& r) { costs.push_back(r.cost); });
      sim.run();
    }
    std::vector<std::pair<NodeId, Weight>> answers;
    for (int i = 0; i < 12; ++i) {
      dist.query(rng.below(n), static_cast<ObjectId>(i % 6),
                 [&answers](const QueryResult& r) {
                   answers.emplace_back(r.proxy, r.cost);
                   EXPECT_TRUE(r.found);
                   EXPECT_FALSE(r.degraded);
                 });
      sim.run();
    }
    std::vector<NodeId> placement;
    for (ObjectId o = 0; o < 6; ++o) {
      placement.push_back(dist.physical_position(o));
    }
    EXPECT_TRUE(dist.invariant_violations().empty());
    return std::tuple(costs, answers, placement,
                      dist.stats().retransmissions);
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(OverloadProto, ShedFramesAreRescuedByRetransmission) {
  Fixture fx;
  OverloadConfig config;
  config.service_rate = 0.5;
  config.queue_capacity = 4;
  config.degrade_queries = false;  // force the full descent under load
  config.sibling_redirect = false;
  config.seed = 5;
  const FloodOutcome out = run_flood(fx, config, /*flood=*/40, /*seed=*/3);
  EXPECT_GT(out.service_stats.shed_total(), 0u);
  EXPECT_GT(out.stats.messages_shed, 0u);
  EXPECT_GT(out.stats.retransmissions, 0u);  // the rescue mechanism
  for (const QueryResult& r : out.results) {
    EXPECT_TRUE(r.found);  // shedding delayed, never lost, every query
  }
  EXPECT_TRUE(out.violations.empty()) << out.violations.front();
}

TEST(OverloadProto, DegradedAnswersCarryAHonestStalenessBound) {
  Fixture fx;
  OverloadConfig config;
  config.service_rate = 0.5;
  config.queue_capacity = 8;
  config.degrade_fraction = 0.25;
  config.seed = 5;
  const FloodOutcome out = run_flood(fx, config, 40, 3);
  EXPECT_GT(out.stats.queries_degraded, 0u);
  ASSERT_TRUE(out.violations.empty()) << out.violations.front();
  int degraded = 0;
  for (const QueryResult& r : out.results) {
    EXPECT_TRUE(r.found);
    if (!r.degraded) {
      EXPECT_EQ(r.staleness_bound, 0.0);
      continue;
    }
    ++degraded;
    EXPECT_GT(r.staleness_bound, 0.0);
    // The object never moved, so the degraded answer must point within
    // its promised radius of the true position.
    const Weight away = fx.oracle->distance(r.proxy, out.true_position);
    EXPECT_LE(away, r.staleness_bound);
  }
  EXPECT_GT(degraded, 0);
}

TEST(OverloadProto, HotDescentsDivertToClusterSiblings) {
  Fixture fx;
  OverloadConfig config;
  config.service_rate = 0.5;
  config.queue_capacity = 8;
  config.degrade_queries = false;  // leave the redirect as the only valve
  config.degrade_fraction = 0.25;
  config.seed = 5;
  const FloodOutcome out = run_flood(fx, config, 40, 3);
  EXPECT_GT(out.stats.sibling_redirects, 0u);
  for (const QueryResult& r : out.results) {
    EXPECT_TRUE(r.found);
  }
  EXPECT_TRUE(out.violations.empty()) << out.violations.front();
}

TEST(OverloadProto, CreditWindowParksExcessFramesUntilAcked) {
  Fixture fx;
  OverloadConfig config;
  config.service_rate = 4.0;
  config.queue_capacity = 32;
  config.max_window = 1;  // every second concurrent frame must stall
  config.seed = 5;
  const FloodOutcome out = run_flood(fx, config, 24, 3);
  EXPECT_GT(out.stats.credit_stalls, 0u);
  for (const QueryResult& r : out.results) {
    EXPECT_TRUE(r.found);
  }
  EXPECT_TRUE(out.violations.empty()) << out.violations.front();
}

TEST(OverloadProto, BreakerTripsOnALossyLinkThenRecovers) {
  Fixture fx;
  OverloadConfig config;
  config.service_rate = 8.0;
  config.queue_capacity = 64;
  config.breaker_threshold = 2;
  config.breaker_cooldown = 8.0;
  config.seed = 5;
  faults::LinkFaults link;
  link.drop = 0.45;  // heavy loss: consecutive timeouts are routine
  faults::FaultPlan lossy_plan;
  lossy_plan.set_default_faults(link);
  const FloodOutcome out = run_flood(fx, config, 30, 3, lossy_plan);
  EXPECT_GT(out.stats.breaker_trips, 0u);
  EXPECT_GT(out.stats.breaker_probes, 0u);
  EXPECT_GT(out.stats.breaker_closes, 0u);
  for (const QueryResult& r : out.results) {
    EXPECT_TRUE(r.found);  // opens delay traffic, never strand it
  }
  EXPECT_TRUE(out.violations.empty()) << out.violations.front();
}

TEST(OverloadProto, OverloadedRunsAreBitIdentical) {
  Fixture fx;
  OverloadConfig config;
  config.service_rate = 0.5;
  config.queue_capacity = 8;
  config.degrade_fraction = 0.25;
  config.seed = 5;
  faults::FaultPlan plan;
  faults::LinkFaults link;
  link.drop = 0.10;
  link.duplicate = 0.05;
  plan.set_default_faults(link);
  const FloodOutcome a = run_flood(fx, config, 30, 9, plan);
  const FloodOutcome b = run_flood(fx, config, 30, 9, plan);
  EXPECT_EQ(a.stats, b.stats);  // includes shed/breaker/degraded counts
  EXPECT_EQ(a.service_stats, b.service_stats);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].proxy, b.results[i].proxy);
    EXPECT_EQ(a.results[i].degraded, b.results[i].degraded);
    EXPECT_EQ(a.results[i].staleness_bound, b.results[i].staleness_bound);
  }
  EXPECT_TRUE(a.violations.empty());
}

// ---------------------------------------------------------------------------
// Chaos integration
// ---------------------------------------------------------------------------

TEST(OverloadChaos, BurstEventsExtendSchedulesWithoutPerturbingLegacyDraws) {
  chaos::ScheduleParams sp;
  sp.rounds = 6;
  sp.num_events = 5;
  sp.num_nodes = 64;
  const chaos::ChaosSchedule legacy = chaos::generate_schedule(17, sp);
  ASSERT_EQ(legacy.events.size(), 5u);
  for (const chaos::FaultEvent& event : legacy.events) {
    EXPECT_NE(event.kind, chaos::FaultKind::kBurst);
  }

  sp.burst_events = 3;
  const chaos::ChaosSchedule with_bursts = chaos::generate_schedule(17, sp);
  ASSERT_EQ(with_bursts.events.size(), 8u);
  // The non-burst subsequence is exactly the legacy schedule: bursts draw
  // from their own substream and are merged by a stable sort.
  std::vector<chaos::FaultEvent> non_burst;
  int bursts = 0;
  for (const chaos::FaultEvent& event : with_bursts.events) {
    if (event.kind == chaos::FaultKind::kBurst) {
      ++bursts;
      EXPECT_GE(event.duration, 1);
      EXPECT_LT(event.round, sp.rounds);
    } else {
      non_burst.push_back(event);
    }
  }
  EXPECT_EQ(bursts, 3);
  ASSERT_EQ(non_burst.size(), legacy.events.size());
  for (std::size_t i = 0; i < non_burst.size(); ++i) {
    EXPECT_EQ(non_burst[i].kind, legacy.events[i].kind);
    EXPECT_EQ(non_burst[i].round, legacy.events[i].round);
    EXPECT_EQ(non_burst[i].victim, legacy.events[i].victim);
  }
}

TEST(OverloadChaos, OverloadedChaosRunsStayGreenAndAreDeterministic) {
  chaos::RunnerParams params;
  params.rounds = 4;
  params.overload = true;
  params.overload_config.service_rate = 0.5;
  params.overload_config.queue_capacity = 8;
  params.overload_config.degrade_fraction = 0.25;
  params.burst_events = 2;
  params.burst_multiplier = 6.0;
  chaos::ChaosRunner runner(params);

  chaos::ScheduleParams sp;
  sp.rounds = params.rounds;
  sp.num_nodes = runner.net().num_nodes();
  sp.burst_events = params.burst_events;
  const chaos::ChaosSchedule schedule = chaos::generate_schedule(1, sp);

  const chaos::RunReport a = runner.run(schedule);
  EXPECT_TRUE(a.ok()) << a.violations.front();
  EXPECT_GT(a.service_stats.arrivals, 0u);
  EXPECT_EQ(a.service_stats.arrivals,
            a.service_stats.serviced + a.service_stats.shed_total());

  const chaos::RunReport b = runner.run(schedule);
  EXPECT_EQ(a.service_stats, b.service_stats);
  EXPECT_EQ(a.proto_stats, b.proto_stats);
  EXPECT_EQ(a.queries_issued, b.queries_issued);
}

}  // namespace
}  // namespace mot
