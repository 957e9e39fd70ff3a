// cluster: the threaded loopback cluster.
//
// A ClusterCoordinator on the main thread drives three ShardWorker
// threads over loopback TCP. All four threads share the one CPU that
// main.cpp pins the main thread to for the repetition (the shard threads
// inherit its affinity): a wake-up is then a local context switch, not a
// cross-CPU interrupt that waits for another virtual CPU to be scheduled,
// which on a shared host spread ops/s and latencies past any bound. Each
// shard thread builds its own world, because MotPathProvider fills its
// caches from const methods without a lock and shards must not share
// one. Each step
// moves a seeded object one step, then queries a random object from a
// random origin; every coordinator call is timed. Coordinator round
// trips, probe waves and socket wake-ups dominate; engine work is a
// small share.
//
// After the timed phase, outside the timer, every answer, the per-node
// storage loads and the meter are checked against a single-process
// DistributedMot replay of the same inputs, as cluster_runner does.
#include <cmath>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "harness.hpp"
#include "netio/cluster.hpp"
#include "util/rng.hpp"
#include "wire/message_codec.hpp"

namespace perfbench {

namespace {

using mot::NodeId;
using mot::ObjectId;

constexpr std::uint32_t kShards = 3;
constexpr ObjectId kObjects = 1024;
constexpr int kSteps = 2400;

struct Step {
  ObjectId object = 0;
  NodeId to = mot::kInvalidNode;
  ObjectId queried = 0;
  NodeId from = mot::kInvalidNode;
  NodeId expected = mot::kInvalidNode;  // where `queried` is
};

// What a shard thread hands back once its pump loop has exited.
struct ShardReport {
  int rc = -1;
  double hierarchy_build_s = 0.0;
  EngineProbe probe;
  mot::proto::ProtocolStats stats;
  mot::netio::WireStats wire;
  // Codec timing over the shard's cross-shard messages (traced only).
  std::uint64_t codec_messages = 0;
  std::uint64_t codec_bytes = 0;
  std::uint64_t encode_ns = 0;
  std::uint64_t decode_ns = 0;
  bool round_trips = true;
};

// Times the codec on this shard's own traffic: every recorded message
// addressed to another shard is encoded, then decoded, and must come
// back equal. Messages are recorded before the walker context is
// attached, so their op_cost / op_peak fields are zero here.
void time_codec(const std::vector<mot::proto::Delivery>& deliveries,
                std::uint32_t shard, ShardReport& report) {
  std::vector<mot::wire::MessageFrame> frames;
  for (const mot::proto::Delivery& delivery : deliveries) {
    if (mot::netio::shard_of(delivery.to, kShards) != shard) {
      frames.push_back({delivery.message, delivery.from});
    }
  }
  std::vector<std::vector<std::uint8_t>> encoded(frames.size());
  std::uint64_t start = now_ns();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    encoded[i] = mot::wire::encode_message_frame(frames[i]);
  }
  report.encode_ns = now_ns() - start;

  std::vector<mot::wire::MessageFrame> decoded(frames.size());
  std::vector<mot::wire::DecodeError> errors(frames.size());
  start = now_ns();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    std::span<const std::uint8_t> payload;
    std::size_t consumed = 0;
    errors[i] = mot::wire::split_frame(encoded[i], &payload, &consumed);
    if (errors[i] == mot::wire::DecodeError::kNone) {
      errors[i] = mot::wire::decode_message_frame(payload, &decoded[i]);
    }
  }
  report.decode_ns = now_ns() - start;

  report.codec_messages = frames.size();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    report.codec_bytes += encoded[i].size();
    if (errors[i] != mot::wire::DecodeError::kNone ||
        !(decoded[i] == frames[i])) {
      report.round_trips = false;
    }
  }
}

class Cluster final : public Workload {
 public:
  explicit Cluster(const Options& options) {
    const mot::SeedTree seeds(options.seed);
    const mot::Graph graph = mot::make_grid(kGridSide, kGridSide);
    const mot::GridDistanceOracle oracle(kGridSide, kGridSide);
    mot::Rng rng = seeds.stream("cluster");
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
      step.queried = static_cast<ObjectId>(rng.below(kObjects));
      step.from = static_cast<NodeId>(rng.below(n));
      step.expected = at[step.queried];
      query_optimal_ += oracle.distance(step.from, step.expected);
    }
    replay();
  }

  RepResult run_rep(bool traced) override;

 private:
  void replay();
  void serve_shard(std::uint32_t shard, std::uint16_t port, bool traced,
                   ShardReport& report) const;

  std::vector<NodeId> start_;
  std::vector<Step> steps_;
  double move_optimal_ = 0.0;
  double query_optimal_ = 0.0;
  // The single-process replay every repetition is checked against.
  std::vector<mot::MoveResult> expected_moves_;
  std::vector<mot::QueryResult> expected_queries_;
  std::vector<std::size_t> expected_loads_;
  double expected_meter_ = 0.0;
};

void Cluster::replay() {
  const World world(kGridSide, kHierarchySeed, nullptr);
  mot::Simulator sim;
  mot::proto::DistributedMot engine(world.provider(), sim,
                                    world.chain_options);
  for (ObjectId o = 0; o < kObjects; ++o) {
    engine.publish(o, start_[o]);
    sim.run();
  }
  for (const Step& step : steps_) {
    engine.move(step.object, step.to, [this](const mot::MoveResult& r) {
      expected_moves_.push_back(r);
    });
    sim.run();
    engine.query(step.from, step.queried,
                 [this](const mot::QueryResult& r) {
                   expected_queries_.push_back(r);
                 });
    sim.run();
  }
  expected_loads_ = engine.load_per_node();
  expected_meter_ = engine.meter().total_distance();
}

void Cluster::serve_shard(std::uint32_t shard, std::uint16_t port,
                          bool traced, ShardReport& report) const {
  try {
    EngineProbe* const probe = traced ? &report.probe : nullptr;
    const World world(kGridSide, kHierarchySeed, probe);
    report.hierarchy_build_s = world.hierarchy_build_s;
    report.probe = EngineProbe{};  // count what the shard serves
    mot::Simulator sim;
    mot::proto::DistributedMot engine(world.provider(), sim,
                                      world.chain_options);
    engine.record_deliveries(traced);
    mot::netio::WorkerConfig config;
    config.shard = shard;
    config.num_shards = kShards;
    config.coordinator_port = port;
    mot::netio::ShardWorker worker(config, world.provider(), sim, engine);
    report.rc = worker.run();
    report.stats = engine.stats();
    report.wire = worker.wire_stats();
    if (traced) time_codec(engine.deliveries(), shard, report);
  } catch (const std::exception&) {
    report.rc = -2;  // audited as a failed shard
  }
}

RepResult Cluster::run_rep(bool traced) {
  RepResult out;
  out.attempted = 2 * steps_.size();
  std::vector<ShardReport> reports(kShards);
  const std::uint64_t setup_start = now_ns();
  auto coordinator =
      std::make_unique<mot::netio::ClusterCoordinator>(kShards);
  if (!coordinator->open()) {
    out.failed = out.attempted;
    out.audit.push_back("cannot open the coordinator listener");
    return out;
  }
  const std::uint16_t port = coordinator->port();
  std::vector<std::thread> threads;
  for (std::uint32_t shard = 0; shard < kShards; ++shard) {
    threads.emplace_back([this, shard, port, traced, &reports] {
      serve_shard(shard, port, traced, reports[shard]);
    });
  }
  bool ok = coordinator->bootstrap();
  for (ObjectId o = 0; ok && o < kObjects; ++o) {
    ok = coordinator->publish(o, start_[o]);
  }
  out.setup_s = seconds_since(setup_start);

  double coordinator_cpu = -thread_cpu_s();
  std::vector<double> shard_cpu(kShards);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    shard_cpu[s] = -thread_cpu_s(threads[s].native_handle());
  }
  const ProcessUsage usage_before = process_usage();
  Tally tally;
  std::uint64_t mismatched = 0;
  const std::uint64_t timed_start = now_ns();
  for (std::size_t i = 0; ok && i < steps_.size(); ++i) {
    const Step& step = steps_[i];
    std::uint64_t start = now_ns();
    const auto moved = coordinator->move(step.object, step.to);
    if (!moved) {
      ok = false;
      break;
    }
    const double move_us = us_since(start);
    out.move_us.add(move_us);
    out.parts_us.add(move_us);
    tally.record_move(moved->cost, moved->peak_level);
    start = now_ns();
    const auto answered = coordinator->query(step.from, step.queried);
    if (!answered) {
      ok = false;
      break;
    }
    const double query_us = us_since(start);
    out.query_us.add(query_us);
    out.parts_us.add(query_us);
    tally.record_query(answered->found, answered->degraded, answered->proxy,
                       answered->cost, step.expected);
    const mot::MoveResult& move = expected_moves_[i];
    const mot::QueryResult& query = expected_queries_[i];
    if (moved->cost != move.cost || moved->peak_level != move.peak_level) {
      ++mismatched;
    }
    if (answered->found != query.found || answered->proxy != query.proxy ||
        answered->cost != query.cost ||
        answered->found_level != query.found_level) {
      ++mismatched;
    }
  }
  out.timed_s = seconds_since(timed_start);
  coordinator_cpu += thread_cpu_s();
  double shard_cpu_total = 0.0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    shard_cpu_total += shard_cpu[s] + thread_cpu_s(threads[s].native_handle());
  }
  const ProcessUsage usage_after = process_usage();

  double meter = 0.0;
  std::vector<std::uint64_t> loads;
  if (ok) loads = coordinator->collect_loads(&meter);
  coordinator->shutdown();
  // Closing every socket also releases a shard still in its bootstrap
  // when the coordinator gave up early.
  coordinator.reset();
  for (std::thread& thread : threads) thread.join();

  if (!ok) out.audit.push_back("a coordinator call failed");
  for (std::uint32_t s = 0; s < kShards; ++s) {
    if (reports[s].rc != 0) {
      out.audit.push_back("shard " + std::to_string(s) +
                          " exited with code " +
                          std::to_string(reports[s].rc));
    }
  }
  if (ok) {
    bool loads_match = loads.size() == expected_loads_.size();
    for (std::size_t i = 0; loads_match && i < loads.size(); ++i) {
      loads_match = loads[i] == expected_loads_[i];
    }
    if (!loads_match) {
      out.audit.push_back("per-node loads differ from the replay");
    }
    // Every charge is identical; only the per-shard summation order
    // differs, so compare up to rounding.
    if (std::abs(meter - expected_meter_) > 1e-6 * (1.0 + expected_meter_)) {
      out.audit.push_back("meter differs from the replay");
    }
  }
  out.ops = tally.moved + tally.answered;
  out.failed = (out.attempted - out.ops) + tally.wrong + mismatched;
  out.maint_ratio = tally.move_cost / move_optimal_;
  out.query_ratio = tally.query_cost / query_optimal_;
  record_loads(loads, out);
  out.digest = tally.digest;

  const double ops = static_cast<double>(std::max<std::uint64_t>(out.ops, 1));
  // Shard-side counts cover each shard's whole serving life: the initial
  // publishes as well as the timed ops.
  const double lifetime_ops = ops + kObjects;
  double hierarchy_build_s = 0.0;
  double frames = 0.0;
  double bytes = 0.0;
  double flushes = 0.0;
  for (const ShardReport& report : reports) {
    hierarchy_build_s += report.hierarchy_build_s;
    frames += static_cast<double>(report.wire.frames_sent);
    bytes += static_cast<double>(report.wire.bytes_sent);
    flushes += static_cast<double>(report.wire.frame_flushes);
  }
  out.layers["hier.build_s"] = hierarchy_build_s;
  out.layers["netio.mesh_frames_per_op"] = frames / lifetime_ops;
  out.layers["netio.mesh_bytes_per_op"] = bytes / lifetime_ops;
  out.layers["netio.flushes_per_op"] = flushes / lifetime_ops;
  out.layers["netio.coord_cpu_us_per_op"] = coordinator_cpu * 1e6 / ops;
  out.layers["netio.shard_cpu_us_per_op"] = shard_cpu_total * 1e6 / ops;
  out.layers["netio.wait_us_per_op"] =
      (out.timed_s - coordinator_cpu) * 1e6 / ops;
  out.layers["netio.ctx_switches_per_op"] =
      static_cast<double>(usage_after.voluntary_switches -
                          usage_before.voluntary_switches) /
      ops;
  if (!traced) return out;

  LayerStats oracle;
  LayerStats provider;
  double messages = 0.0;
  std::uint64_t codec_messages = 0;
  std::uint64_t codec_bytes = 0;
  std::uint64_t encode_ns = 0;
  std::uint64_t decode_ns = 0;
  for (const ShardReport& report : reports) {
    oracle.add(report.probe.oracle);
    provider.add(report.probe.provider);
    messages += static_cast<double>(report.stats.messages_sent);
    codec_messages += report.codec_messages;
    codec_bytes += report.codec_bytes;
    encode_ns += report.encode_ns;
    decode_ns += report.decode_ns;
    if (!report.round_trips) {
      out.audit.push_back("a cross-shard message failed to round-trip");
    }
  }
  const double codec =
      static_cast<double>(std::max<std::uint64_t>(codec_messages, 1));
  out.layers["graph.distance_calls_per_op"] =
      static_cast<double>(oracle.calls) / lifetime_ops;
  out.layers["graph.distance_ns_per_op"] = self_ns(oracle) / lifetime_ops;
  out.layers["core.provider_calls_per_op"] =
      static_cast<double>(provider.calls) / lifetime_ops;
  out.layers["core.provider_ns_per_op"] = self_ns(provider) / lifetime_ops;
  out.layers["proto.msgs_per_op"] = messages / lifetime_ops;
  out.layers["wire.encode_ns_per_msg"] =
      static_cast<double>(encode_ns) / codec;
  out.layers["wire.decode_ns_per_msg"] =
      static_cast<double>(decode_ns) / codec;
  out.layers["wire.bytes_per_msg"] = static_cast<double>(codec_bytes) / codec;
  return out;
}

}  // namespace

std::unique_ptr<Workload> make_cluster(const Options& options) {
  return std::make_unique<Cluster>(options);
}

}  // namespace perfbench
