// Socket transport and multi-process cluster runtime. The contracts:
// the loopback FrameStream carves exactly the frames that were sent, the
// SocketTransport Channel keeps simulator timing bit-identical to
// ReliableChannel while physically moving every hop through the kernel,
// UnreliableChannel composes over it via set_inner(), and a sharded
// cluster (threaded here; bench/cluster_runner forks real processes)
// answers the same queries at the same costs as the single-process
// runtime on the same seed — including when one shard encodes frames
// from the future.
#include "netio/cluster.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "core/mot.hpp"
#include "faults/unreliable_channel.hpp"
#include "graph/generators.hpp"
#include "hier/doubling_hierarchy.hpp"
#include "netio/socket.hpp"
#include "netio/transport.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "obs/trace_analysis.hpp"
#include "proto/distributed_mot.hpp"
#include "sim/channel_factory.hpp"
#include "util/rng.hpp"

namespace mot {
namespace {

using netio::ClusterCoordinator;
using netio::FrameStream;
using netio::Listener;
using netio::ShardWorker;
using netio::SocketTransport;
using netio::WorkerConfig;
using proto::DistributedMot;

// Same deterministic world as tests/test_proto.cpp: every party that
// builds it from the same parameters gets byte-identical structure.
struct Fixture {
  explicit Fixture(std::size_t side = 8)
      : graph(make_grid(side, side)), oracle(make_distance_oracle(graph)) {
    DoublingHierarchy::Params hp;
    hp.seed = 7;
    hierarchy = DoublingHierarchy::build(graph, *oracle, hp);
    MotOptions options;
    options.use_parent_sets = false;
    options.use_special_parents = true;
    provider = std::make_unique<MotPathProvider>(*hierarchy, options);
    chain_options = make_mot_chain_options(options);
  }

  Graph graph;
  std::unique_ptr<DistanceOracle> oracle;
  std::unique_ptr<DoublingHierarchy> hierarchy;
  std::unique_ptr<MotPathProvider> provider;
  ChainOptions chain_options;
};

// --- FrameStream over loopback TCP ---------------------------------------

TEST(NetSocket, FramesSurviveTheLoopbackRoundTrip) {
  Listener listener;
  ASSERT_TRUE(listener.open());
  netio::Socket client = netio::connect_loopback(listener.port());
  ASSERT_TRUE(client.valid());
  netio::Socket server = listener.accept();
  ASSERT_TRUE(server.valid());

  FrameStream out(std::move(client));
  FrameStream in(std::move(server));

  // A burst of back-to-back frames lands as exactly that sequence.
  for (std::uint64_t seq = 1; seq <= 64; ++seq) {
    ASSERT_TRUE(out.send(wire::encode_loopback({.seq = seq})));
  }
  for (std::uint64_t seq = 1; seq <= 64; ++seq) {
    std::vector<std::uint8_t> payload;
    ASSERT_EQ(in.recv(&payload, /*block=*/true), wire::DecodeError::kNone);
    wire::LoopbackFrame frame;
    ASSERT_EQ(wire::decode_loopback(payload, &frame),
              wire::DecodeError::kNone);
    EXPECT_EQ(frame.seq, seq);
  }
  // Nothing further buffered; a non-blocking read reports "no frame".
  std::vector<std::uint8_t> payload;
  EXPECT_EQ(in.recv(&payload, /*block=*/false),
            wire::DecodeError::kShortRead);
  EXPECT_FALSE(in.closed());
}

TEST(NetSocket, PeerHangupFlipsClosed) {
  Listener listener;
  ASSERT_TRUE(listener.open());
  netio::Socket client = netio::connect_loopback(listener.port());
  netio::Socket server = listener.accept();
  FrameStream in(std::move(server));
  client.close();

  std::vector<std::uint8_t> payload;
  EXPECT_EQ(in.recv(&payload, /*block=*/true),
            wire::DecodeError::kShortRead);
  EXPECT_TRUE(in.closed());
}

TEST(NetSocket, PollReportsTheReadableStream) {
  Listener listener;
  ASSERT_TRUE(listener.open());
  netio::Socket a_client = netio::connect_loopback(listener.port());
  netio::Socket a_server = listener.accept();
  netio::Socket b_client = netio::connect_loopback(listener.port());
  netio::Socket b_server = listener.accept();

  FrameStream writer(std::move(b_client));
  ASSERT_TRUE(writer.send(wire::encode_shutdown()));

  const int fds[] = {a_server.fd(), b_server.fd()};
  const std::vector<std::size_t> ready = netio::poll_readable(fds, 2000);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], 1u);  // only stream b has bytes
}

// --- SocketTransport as a sim::Channel -----------------------------------

struct RunOutcome {
  // Results flattened to comparable tuples (the result structs carry no
  // operator==).
  std::vector<std::tuple<bool, NodeId, Weight, int, bool, Weight>> queries;
  std::vector<std::pair<Weight, int>> moves;
  std::vector<std::size_t> loads;
  double meter = 0.0;

  bool operator==(const RunOutcome&) const = default;
};

// Drives a fixed publish/move/query workload over `channel` (nullptr =
// direct scheduling) and snapshots everything observable.
RunOutcome drive_workload(const Fixture& fx, Channel* channel) {
  Simulator sim;
  DistributedMot mot(*fx.provider, sim, fx.chain_options);
  if (channel != nullptr) mot.use_channel(channel);
  RunOutcome outcome;

  mot.publish(0, 12);
  sim.run();
  Rng rng(99);
  NodeId at = 12;
  for (int i = 0; i < 40; ++i) {
    const auto neighbors = fx.graph.neighbors(at);
    at = neighbors[rng.below(neighbors.size())].to;
    mot.move(0, at, [&](const MoveResult& r) {
      outcome.moves.emplace_back(r.cost, r.peak_level);
    });
    sim.run();
    mot.query(static_cast<NodeId>(rng.below(fx.graph.num_nodes())), 0,
              [&](const QueryResult& r) {
                outcome.queries.emplace_back(r.found, r.proxy, r.cost,
                                             r.found_level, r.degraded,
                                             r.staleness_bound);
              });
    sim.run();
  }
  outcome.loads = mot.load_per_node();
  outcome.meter = mot.meter().total_distance();
  return outcome;
}

TEST(NetTransport, SocketChannelMatchesReliableChannelBitForBit) {
  const Fixture fx;
  ReliableChannel reliable;
  const RunOutcome reference = drive_workload(fx, &reliable);

  SocketTransport transport;
  ASSERT_TRUE(transport.ok());
  const RunOutcome socketed = drive_workload(fx, &transport);

  EXPECT_EQ(socketed, reference);
  EXPECT_EQ(transport.pending(), 0u);
  // Every hop physically crossed the kernel's loopback stack.
  EXPECT_GT(transport.stats().frames_sent, 0u);
  EXPECT_EQ(transport.stats().frames_sent, transport.stats().frames_received);
  EXPECT_EQ(transport.stats().bytes_sent, transport.stats().bytes_received);
}

TEST(NetTransport, UnreliableChannelComposesOverTheSocket) {
  const Fixture fx;
  faults::FaultPlan plan;  // no faults: pure pass-through layering
  {
    faults::UnreliableChannel direct(plan, 5);
    faults::UnreliableChannel layered(plan, 5);
    SocketTransport transport;
    ASSERT_TRUE(transport.ok());
    layered.set_inner(&transport);

    const RunOutcome reference = drive_workload(fx, &direct);
    const RunOutcome socketed = drive_workload(fx, &layered);
    EXPECT_EQ(socketed, reference);
    EXPECT_GT(transport.stats().frames_sent, 0u);
    EXPECT_EQ(transport.pending(), 0u);
  }
}

TEST(NetTransport, ChannelFactoryKnowsTheRegisteredLayers) {
  EXPECT_NE(make_channel("reliable"), nullptr);
  EXPECT_EQ(make_channel("no-such-channel"), nullptr);

  // Register the socket layer the way a binary's startup would
  // (bench/cluster_runner does the same); duplicates are refused.
  const bool fresh = register_channel(
      "socket", [] { return std::make_unique<SocketTransport>(); });
  const auto names = channel_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "reliable"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "socket"), names.end());
  EXPECT_FALSE(register_channel("socket", [] {
    return std::make_unique<SocketTransport>();
  })) << "duplicate registration must be refused";
  (void)fresh;

  const auto socket_channel = make_channel("socket");
  ASSERT_NE(socket_channel, nullptr);
  const Fixture fx;
  ReliableChannel reliable;
  EXPECT_EQ(drive_workload(fx, socket_channel.get()),
            drive_workload(fx, &reliable));
}

// --- Sharded cluster vs the single-process runtime -----------------------

struct WorkloadStep {
  NodeId move_to = kInvalidNode;
  NodeId query_from = kInvalidNode;
};

std::vector<WorkloadStep> make_workload(const Fixture& fx, NodeId start,
                                        int steps, std::uint64_t seed) {
  SeedTree seeds(seed);
  Rng rng = seeds.stream("cluster-workload");
  std::vector<WorkloadStep> workload;
  NodeId at = start;
  for (int i = 0; i < steps; ++i) {
    const auto neighbors = fx.graph.neighbors(at);
    at = neighbors[rng.below(neighbors.size())].to;
    workload.push_back(
        {.move_to = at,
         .query_from = static_cast<NodeId>(rng.below(fx.graph.num_nodes()))});
  }
  return workload;
}

void run_cluster_parity(std::uint32_t num_shards,
                        std::uint8_t odd_shard_version) {
  constexpr NodeId kStart = 12;
  constexpr ObjectId kObject = 0;

  ClusterCoordinator coordinator(num_shards);
  ASSERT_TRUE(coordinator.open());
  const std::uint16_t port = coordinator.port();

  std::vector<std::thread> threads;
  std::vector<int> rcs(num_shards, -1);
  for (std::uint32_t shard = 0; shard < num_shards; ++shard) {
    threads.emplace_back([shard, num_shards, port, odd_shard_version,
                          &rcs] {
      // Each worker builds its own world from the shared parameters —
      // exactly what a forked process would do.
      const Fixture fx;
      Simulator sim;
      DistributedMot mot(*fx.provider, sim, fx.chain_options);
      WorkerConfig config;
      config.shard = shard;
      config.num_shards = num_shards;
      config.coordinator_port = port;
      if (shard % 2 == 1) config.encode_version = odd_shard_version;
      ShardWorker worker(config, *fx.provider, sim, mot);
      rcs[shard] = worker.run();
    });
  }
  ASSERT_TRUE(coordinator.bootstrap());

  // Single-process reference on the identical world and workload.
  const Fixture fx;
  Simulator ref_sim;
  DistributedMot reference(*fx.provider, ref_sim, fx.chain_options);
  reference.publish(kObject, kStart);
  ref_sim.run();
  ASSERT_TRUE(coordinator.publish(kObject, kStart));

  const std::vector<WorkloadStep> workload =
      make_workload(fx, kStart, 25, 0xc1u);
  for (const WorkloadStep& step : workload) {
    MoveResult expected_move;
    reference.move(kObject, step.move_to,
                   [&](const MoveResult& r) { expected_move = r; });
    ref_sim.run();
    const auto moved = coordinator.move(kObject, step.move_to);
    ASSERT_TRUE(moved.has_value());
    ASSERT_DOUBLE_EQ(moved->cost, expected_move.cost);
    ASSERT_EQ(moved->peak_level, expected_move.peak_level);

    QueryResult expected_query;
    reference.query(step.query_from, kObject,
                    [&](const QueryResult& r) { expected_query = r; });
    ref_sim.run();
    const auto answered = coordinator.query(step.query_from, kObject);
    ASSERT_TRUE(answered.has_value());
    ASSERT_EQ(answered->found, expected_query.found);
    ASSERT_EQ(answered->proxy, expected_query.proxy);
    ASSERT_DOUBLE_EQ(answered->cost, expected_query.cost);
    ASSERT_EQ(answered->found_level, expected_query.found_level);
    EXPECT_FALSE(answered->degraded);
  }

  // Global state parity: summed per-node storage and summed meters.
  double cluster_meter = 0.0;
  const std::vector<std::uint64_t> loads =
      coordinator.collect_loads(&cluster_meter);
  const std::vector<std::size_t> expected_loads = reference.load_per_node();
  ASSERT_EQ(loads.size(), expected_loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    EXPECT_EQ(loads[i], expected_loads[i]) << "node " << i;
  }
  // Each charge is identical; only the summation grouping differs across
  // shards, so allow for associativity rounding.
  EXPECT_NEAR(cluster_meter, reference.meter().total_distance(),
              1e-6 * (1.0 + reference.meter().total_distance()));

  // The per-link rule settles an op in one wave unless a mesh frame is
  // still unread when a shard answers, so waves stay below two per op.
  const std::uint64_t ops = 1 + 2 * workload.size();
  EXPECT_GE(coordinator.probe_waves(), ops);
  EXPECT_LT(coordinator.probe_waves(), 2 * ops);

  coordinator.shutdown();
  for (auto& thread : threads) thread.join();
  for (std::uint32_t shard = 0; shard < num_shards; ++shard) {
    EXPECT_EQ(rcs[shard], 0) << "shard " << shard;
  }
}

TEST(NetCluster, TwoShardsMatchSingleProcessRuntime) {
  run_cluster_parity(2, wire::kWireVersion);
}

TEST(NetCluster, ThreeShardsMatchSingleProcessRuntime) {
  run_cluster_parity(3, wire::kWireVersion);
}

TEST(NetCluster, MixedVersionInteropFutureEncoderAmongCurrentPeers) {
  // Odd shards encode at kWireVersionFuture: a version byte and probe
  // fields nobody else has shipped. Current decoders must skip the
  // unknown fields and the cluster must stay bit-exact on answers.
  run_cluster_parity(2, wire::kWireVersionFuture);
}

TEST(NetCluster, TracedRunYieldsConnectedSpanTreesAndMeterParity) {
  // The observability contract (DESIGN.md §12): with a sink installed,
  // every cross-shard walk re-joins into exactly one span tree (single
  // root, no orphans, no duplicate span ids), and the span-summed
  // charged cost equals the single-process CostMeter on the same seed.
  constexpr std::uint32_t kShards = 3;
  constexpr NodeId kStart = 12;
  constexpr ObjectId kObject = 0;
  const Fixture fx;
  const std::vector<WorkloadStep> workload =
      make_workload(fx, kStart, 25, 0xc1u);

  // Reference first, with no sink: its spans reuse the cluster's
  // deterministic trace ids by design, so capturing both runs would
  // manufacture duplicate spans.
  Simulator ref_sim;
  DistributedMot reference(*fx.provider, ref_sim, fx.chain_options);
  reference.publish(kObject, kStart);
  ref_sim.run();
  for (const WorkloadStep& step : workload) {
    reference.move(kObject, step.move_to);
    ref_sim.run();
    reference.query(step.query_from, kObject);
    ref_sim.run();
  }
  const double ref_meter = reference.meter().total_distance();

  // One shared ring for the whole process: worker threads interleave
  // into it (appends are mutex-guarded), which the analyzer must not
  // care about — causality is reconstructed from ids, not order.
  obs::RingBufferSink ring(1 << 16);
  obs::TraceSink* previous = obs::install_trace_sink(&ring);

  ClusterCoordinator coordinator(kShards);
  ASSERT_TRUE(coordinator.open());
  const std::uint16_t port = coordinator.port();
  std::vector<std::thread> threads;
  std::vector<int> rcs(kShards, -1);
  for (std::uint32_t shard = 0; shard < kShards; ++shard) {
    threads.emplace_back([shard, port, &rcs] {
      const Fixture worker_fx;
      Simulator sim;
      DistributedMot mot(*worker_fx.provider, sim, worker_fx.chain_options);
      WorkerConfig config;
      config.shard = shard;
      config.num_shards = kShards;
      config.coordinator_port = port;
      ShardWorker worker(config, *worker_fx.provider, sim, mot);
      rcs[shard] = worker.run();
    });
  }
  ASSERT_TRUE(coordinator.bootstrap());
  ASSERT_TRUE(coordinator.publish(kObject, kStart));
  for (const WorkloadStep& step : workload) {
    ASSERT_TRUE(coordinator.move(kObject, step.move_to).has_value());
    ASSERT_TRUE(coordinator.query(step.query_from, kObject).has_value());
  }

  // Cluster telemetry rides the same control plane: the merged registry,
  // summed over per-shard labels, must agree with the load-report meter.
  double cluster_meter = 0.0;
  coordinator.collect_loads(&cluster_meter);
  obs::MetricsRegistry merged;
  ASSERT_TRUE(coordinator.collect_telemetry(&merged));
  double telemetry_meter = 0.0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    telemetry_meter +=
        merged.gauge("mot_cost_distance_total",
                     {{"shard", std::to_string(s)}})
            .value();
  }
  EXPECT_NEAR(telemetry_meter, cluster_meter, 1e-6 * (1.0 + cluster_meter));

  coordinator.shutdown();
  for (auto& thread : threads) thread.join();
  obs::install_trace_sink(previous);
  for (std::uint32_t shard = 0; shard < kShards; ++shard) {
    ASSERT_EQ(rcs[shard], 0) << "shard " << shard;
  }
  ASSERT_EQ(ring.dropped(), 0u) << "ring too small to audit the run";

  // Round-trip through the JSONL text: the same path trace_analyze
  // takes, so the parser is exercised against real emitted lines.
  obs::TraceAnalyzer analyzer;
  std::uint64_t index = 0;
  for (const obs::TraceEvent& event : ring.events()) {
    ASSERT_TRUE(analyzer.add_line(obs::event_to_json(event, index++), 0));
  }
  const obs::TraceReport report = analyzer.report();
  // 1 publish + 25 moves + 25 queries, each one connected tree.
  EXPECT_EQ(report.traces.size(), 1 + 2 * workload.size());
  EXPECT_TRUE(report.all_connected())
      << report.connected << " of " << report.traces.size() << " connected";
  EXPECT_TRUE(report.conserved())
      << report.wire_encodes << " encodes, " << report.wire_decodes
      << " decodes";
  EXPECT_EQ(report.untraced_cost, 0.0)
      << "every charged hop must belong to a span";
  EXPECT_NEAR(report.span_cost, ref_meter, 1e-6 * (1.0 + ref_meter));
  EXPECT_NEAR(cluster_meter, ref_meter, 1e-6 * (1.0 + ref_meter));
}

// --- The per-link quiescence rule ----------------------------------------

wire::ProbeReplyFrame reply_of(std::vector<std::uint64_t> sent,
                               std::vector<std::uint64_t> received) {
  wire::ProbeReplyFrame reply;
  reply.token = 1;
  reply.sent = std::move(sent);
  reply.received = std::move(received);
  return reply;
}

TEST(NetCluster, BalancedWaveIsConclusiveOnItsOwn) {
  // Shard 0 sent 2 frames to 1 and 1 to 2, shard 1 sent 3 to 2, and
  // every one of them was taken in before its receiver replied.
  const std::vector<wire::ProbeReplyFrame> wave = {
      reply_of({0, 2, 1}, {0, 0, 0}),
      reply_of({0, 0, 3}, {2, 0, 0}),
      reply_of({0, 0, 0}, {1, 3, 0}),
  };
  EXPECT_EQ(netio::judge_wave(wave), netio::WaveVerdict::kQuiescent);
}

TEST(NetCluster, WaveWithBalancedSumsButAnUnbalancedLinkIsInFlight) {
  // The interleaving that fools a one-wave sum check: shard 0's frame to
  // 1 is counted as sent but not yet received, offset by a frame 1 took
  // in from 2 that 2 sent after its own reply. Sums balance (1 == 1);
  // links 0->1 and 2->1 do not.
  const std::vector<wire::ProbeReplyFrame> wave = {
      reply_of({0, 1, 0}, {0, 0, 0}),
      reply_of({0, 0, 0}, {0, 0, 1}),
      reply_of({0, 0, 0}, {0, 0, 0}),
  };
  EXPECT_EQ(netio::judge_wave(wave), netio::WaveVerdict::kInFlight);
}

TEST(NetCluster, WaveWithoutFullLinkCountsIsMalformed) {
  const wire::ProbeReplyFrame full = reply_of({0, 0}, {0, 0});
  // Missing, short and overlong count vectors on one shard's reply.
  for (const wire::ProbeReplyFrame& bad :
       {reply_of({}, {}), reply_of({0}, {0, 0}), reply_of({0, 0}, {0}),
        reply_of({0, 0, 0}, {0, 0, 0})}) {
    const std::vector<wire::ProbeReplyFrame> wave = {full, bad};
    EXPECT_EQ(netio::judge_wave(wave), netio::WaveVerdict::kMalformed);
  }
}

TEST(NetCluster, ProbeReplyWithoutLinkCountsFailsTheOpInsteadOfHanging) {
  // A hand-driven one-shard "worker" answers the query, then replies to
  // the probe with no link counts: the coordinator must give up on the
  // op, not probe forever.
  ClusterCoordinator coordinator(1);
  ASSERT_TRUE(coordinator.open());
  std::thread fake([port = coordinator.port()] {
    FrameStream control(netio::connect_loopback(port));
    wire::HelloFrame hello;
    hello.num_shards = 1;
    if (!control.send(wire::encode_hello(hello))) return;
    std::vector<std::uint8_t> payload;
    while (control.recv(&payload, /*block=*/true) ==
           wire::DecodeError::kNone) {
      wire::ByteReader reader(payload);
      wire::FrameHeader header;
      if (wire::read_frame_header(reader, &header) !=
              wire::DecodeError::kNone ||
          header.kind == wire::FrameKind::kShutdown) {
        return;
      }
      wire::ControlFrame op;
      wire::ProbeFrame probe;
      if (wire::decode_control(payload, &op) == wire::DecodeError::kNone) {
        control.send(wire::encode_complete(
            {.op = op.op, .query_id = op.query_id}));
      } else if (wire::decode_probe(payload, &probe) ==
                 wire::DecodeError::kNone) {
        wire::ProbeReplyFrame bare;  // no link counts at all
        bare.token = probe.token;
        control.send(wire::encode_probe_reply(bare));
      }
    }
  });
  ASSERT_TRUE(coordinator.bootstrap());
  EXPECT_FALSE(coordinator.query(0, 0).has_value());
  EXPECT_EQ(coordinator.probe_waves(), 1u);
  coordinator.shutdown();
  fake.join();
}

TEST(NetCluster, BootstrapRejectsDivergentWorlds) {
  // A worker whose world was built differently must be turned away at
  // the handshake, before any node-addressed message can be exchanged.
  const Fixture small(8);
  const Fixture big(10);
  EXPECT_NE(netio::world_fingerprint(*small.provider),
            netio::world_fingerprint(*big.provider));

  ClusterCoordinator coordinator(2);
  ASSERT_TRUE(coordinator.open());
  const std::uint16_t port = coordinator.port();
  std::vector<int> rcs(2, -1);
  std::vector<std::thread> threads;
  for (std::uint32_t shard = 0; shard < 2; ++shard) {
    threads.emplace_back([shard, port, &small, &big, &rcs] {
      const Fixture& fx = shard == 0 ? small : big;
      Simulator sim;
      DistributedMot mot(*fx.provider, sim, fx.chain_options);
      WorkerConfig config;
      config.shard = shard;
      config.num_shards = 2;
      config.coordinator_port = port;
      ShardWorker worker(config, *fx.provider, sim, mot);
      rcs[shard] = worker.run();
    });
  }
  EXPECT_FALSE(coordinator.bootstrap());
  coordinator.shutdown();  // closes the streams; workers see the hangup
  for (auto& thread : threads) thread.join();
  EXPECT_NE(rcs[0], 0);
  EXPECT_NE(rcs[1], 0);
}

TEST(NetCluster, ShardMapCoversEveryShard) {
  // Round-robin: any window of num_shards consecutive nodes hits every
  // shard exactly once, so each shard owns roles at every overlay level.
  for (std::uint32_t shards = 1; shards <= 8; ++shards) {
    std::vector<int> hit(shards, 0);
    for (NodeId node = 100; node < 100 + shards; ++node) {
      ++hit[netio::shard_of(node, shards)];
    }
    for (std::uint32_t s = 0; s < shards; ++s) EXPECT_EQ(hit[s], 1);
  }
}

}  // namespace
}  // namespace mot
