#include "netio/cluster.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "sim/cost_meter.hpp"
#include "util/check.hpp"

namespace mot::netio {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_mix(std::uint64_t& hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (i * 8)) & 0xff;
    hash *= kFnvPrime;
  }
}

// Whether `complete` answers `control`: queries match by id, publishes
// and moves by object.
bool answers(const wire::CompleteFrame& complete,
             const wire::ControlFrame& control) {
  if (complete.op != control.op) return false;
  return control.op == wire::ClusterOp::kQuery
             ? complete.query_id == control.query_id
             : complete.object == control.object;
}

}  // namespace

WaveVerdict judge_wave(std::span<const wire::ProbeReplyFrame> replies) {
  const std::size_t n = replies.size();
  for (const wire::ProbeReplyFrame& reply : replies) {
    if (reply.sent.size() != n || reply.received.size() != n) {
      return WaveVerdict::kMalformed;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && replies[i].sent[j] != replies[j].received[i]) {
        return WaveVerdict::kInFlight;
      }
    }
  }
  return WaveVerdict::kQuiescent;
}

std::uint64_t world_fingerprint(const PathProvider& provider) {
  std::uint64_t hash = kFnvOffset;
  const std::size_t n = provider.num_nodes();
  fnv_mix(hash, n);
  // Sample up to 64 upward sequences: enough to distinguish worlds built
  // from different seeds/configs without hashing the whole hierarchy.
  const std::size_t stride = std::max<std::size_t>(1, n / 64);
  for (std::size_t u = 0; u < n; u += stride) {
    const auto sequence = provider.upward_sequence(static_cast<NodeId>(u));
    fnv_mix(hash, sequence.size());
    for (const PathStop& stop : sequence) {
      fnv_mix(hash, stop.node.node);
      fnv_mix(hash, static_cast<std::uint64_t>(
                        static_cast<std::int64_t>(stop.node.level)));
    }
  }
  return hash;
}

// ---------------------------------------------------------------------------
// ShardWorker
// ---------------------------------------------------------------------------

ShardWorker::ShardWorker(const WorkerConfig& config,
                         const PathProvider& provider, Simulator& sim,
                         proto::DistributedMot& mot)
    : config_(config),
      provider_(&provider),
      sim_(&sim),
      mot_(&mot),
      sent_(config.num_shards, 0),
      received_(config.num_shards, 0) {
  mot_->use_cluster(this);
}

bool ShardWorker::owns(NodeId node) const {
  return shard_of(node, config_.num_shards) == config_.shard;
}

int ShardWorker::run() {
  // With a trace dir, every event this shard emits flows through a
  // flight-recorder ring into the live per-shard JSONL stream; an
  // abnormal exit preserves the ring's tail as flight-<shard>.jsonl.
  std::unique_ptr<obs::JsonlFileSink> live;
  std::unique_ptr<obs::FlightRecorder> recorder;
  obs::TraceSink* previous_sink = nullptr;
  obs::FlightRecorder* previous_recorder = nullptr;
  if (!config_.trace_dir.empty()) {
    const std::string base = config_.trace_dir + "/";
    const std::string tag = std::to_string(config_.shard);
    live = std::make_unique<obs::JsonlFileSink>(base + "shard-" + tag +
                                                ".jsonl");
    recorder = std::make_unique<obs::FlightRecorder>(
        config_.flight_capacity, base + "flight-" + tag + ".jsonl");
    recorder->set_chain(live.get());
    previous_sink = obs::install_trace_sink(recorder.get());
    previous_recorder = obs::install_flight_recorder(recorder.get());
  }
  int rc = 0;
  if (!bootstrap()) {
    rc = 1;
  } else if (!pump()) {
    rc = 2;
  }
  if (recorder != nullptr) {
    if (rc != 0) {
      recorder->dump(rc == 1 ? "bootstrap-failure" : "pump-failure");
    }
    obs::install_flight_recorder(previous_recorder);
    obs::install_trace_sink(previous_sink);
    recorder->flush();
  }
  return rc;
}

bool ShardWorker::bootstrap() {
  if (!mesh_listener_.open()) return false;
  control_ = FrameStream(connect_loopback(config_.coordinator_port));
  if (!control_.valid()) return false;

  wire::HelloFrame hello;
  hello.shard = config_.shard;
  hello.num_shards = config_.num_shards;
  hello.listen_port = mesh_listener_.port();
  hello.node_map_hash = world_fingerprint(*provider_);
  hello.num_nodes = provider_->num_nodes();
  if (!control_.send(wire::encode_hello(hello))) return false;

  std::vector<std::uint8_t> payload;
  if (control_.recv(&payload, /*block=*/true) != wire::DecodeError::kNone) {
    return false;
  }
  wire::HelloAckFrame ack;
  if (wire::decode_hello_ack(payload, &ack) != wire::DecodeError::kNone) {
    return false;
  }
  version_ = ack.version;
  // The walker-context fields (op_cost / op_peak) entered in version 2;
  // a cluster negotiated below that could not move contexts between
  // shards.
  if (version_ < 2) return false;
  return wire_mesh(ack);
}

bool ShardWorker::wire_mesh(const wire::HelloAckFrame& ack) {
  if (ack.peer_ports.size() != config_.num_shards) return false;
  peers_.resize(config_.num_shards);
  // Dial every lower shard; its listener already queues the connection
  // even if it has not reached accept() yet.
  for (std::uint32_t j = 0; j < config_.shard; ++j) {
    Socket sock = connect_loopback(
        static_cast<std::uint16_t>(ack.peer_ports[j]));
    if (!sock.valid()) return false;
    peers_[j] = FrameStream(std::move(sock));
    wire::HelloFrame id;
    id.shard = config_.shard;
    id.num_shards = config_.num_shards;
    if (!peers_[j].send(wire::encode_hello(id))) return false;
  }
  // Accept every higher shard; the first frame identifies the dialer.
  for (std::uint32_t j = config_.shard + 1; j < config_.num_shards; ++j) {
    Socket sock = mesh_listener_.accept();
    if (!sock.valid()) return false;
    FrameStream stream(std::move(sock));
    std::vector<std::uint8_t> payload;
    if (stream.recv(&payload, /*block=*/true) != wire::DecodeError::kNone) {
      return false;
    }
    wire::HelloFrame id;
    if (wire::decode_hello(payload, &id) != wire::DecodeError::kNone) {
      return false;
    }
    if (id.shard <= config_.shard || id.shard >= config_.num_shards) {
      return false;
    }
    peers_[id.shard] = std::move(stream);
  }
  return true;
}

bool ShardWorker::pump() {
  // Stream 0 is the control connection, stream 1 + j the mesh link to
  // shard j (this shard's own slot has no socket; poll skips fd -1).
  std::vector<FrameStream*> streams{&control_};
  for (FrameStream& peer : peers_) streams.push_back(&peer);
  std::vector<int> fds;
  for (const FrameStream* stream : streams) fds.push_back(stream->fd());
  std::vector<bool> readable(streams.size(), false);
  std::vector<std::uint8_t> payload;
  while (!done_) {
    sim_->run();
    // Take every whole frame on hand before considering idleness, so a
    // burst of cross-shard traffic is absorbed in one iteration. Only a
    // stream the last poll reported is read from the socket, once; a
    // frame that arrived since stays unread and, if a probe is answered
    // meanwhile, counts as in flight — one more wave, never a wrong one.
    bool progressed = false;
    for (std::size_t k = 0; k < streams.size() && !done_; ++k) {
      FrameStream& stream = *streams[k];
      if (readable[k]) {
        readable[k] = false;
        if (!stream.fill(/*block=*/false)) {
          if (k == 0) return false;  // coordinator went away
          fds[k] = -1;               // a peer hung up: stop polling it
        }
      }
      while (!done_) {
        const wire::DecodeError err = stream.take_frame(&payload);
        if (err == wire::DecodeError::kShortRead) break;
        if (err != wire::DecodeError::kNone) return false;  // desynced
        const bool ok = k == 0
                            ? handle_control(payload)
                            : handle_peer(static_cast<std::uint32_t>(k - 1),
                                          payload);
        if (!ok) return false;
        progressed = true;
      }
    }
    if (progressed) continue;
    // Idle: everything forward() staged this iteration goes out now, one
    // write per peer, before any probe reply claims the counters final.
    if (!flush_peers()) return false;
    maybe_answer_probe();
    if (done_) break;
    for (const std::size_t k : poll_readable(fds, 200)) readable[k] = true;
  }
  return flush_peers();
}

bool ShardWorker::flush_peers() {
  for (FrameStream& peer : peers_) {
    if (!peer.valid() || peer.queued_bytes() == 0) continue;
    ++stats_.frame_flushes;
    if (!peer.flush()) return false;
  }
  return true;
}

void ShardWorker::maybe_answer_probe() {
  if (!probe_pending_ || !sim_->empty()) return;
  wire::ProbeReplyFrame reply;
  reply.token = *probe_pending_;
  reply.sent = sent_;
  reply.received = received_;
  probe_pending_.reset();
  control_.send(wire::encode_probe_reply(reply, version_));
}

bool ShardWorker::handle_control(std::span<const std::uint8_t> payload) {
  wire::ByteReader reader(payload);
  wire::FrameHeader header;
  if (wire::read_frame_header(reader, &header) != wire::DecodeError::kNone) {
    return false;
  }
  switch (header.kind) {
    case wire::FrameKind::kControl: {
      wire::ControlFrame control;
      if (wire::decode_control(payload, &control) !=
          wire::DecodeError::kNone) {
        return false;
      }
      switch (control.op) {
        case wire::ClusterOp::kNotePosition:
          // Unanswered: the probe queued behind it on this FIFO stream
          // is answered only after the note is applied.
          mot_->cluster_note_position(control.object, control.node);
          break;
        case wire::ClusterOp::kPublish:
          mot_->cluster_note_position(control.object, control.node);
          mot_->cluster_publish(control.object, control.node);
          break;
        case wire::ClusterOp::kMove:
          mot_->cluster_note_position(control.object, control.node);
          mot_->cluster_move(control.object, control.node);
          break;
        case wire::ClusterOp::kQuery:
          mot_->cluster_query(control.node, control.object,
                              control.query_id);
          break;
        case wire::ClusterOp::kReportLoad: {
          wire::LoadReportFrame report;
          for (const std::size_t load : mot_->load_per_node()) {
            report.loads.push_back(load);
          }
          report.meter_total = mot_->meter().total_distance();
          control_.send(wire::encode_load_report(report, version_));
          break;
        }
        case wire::ClusterOp::kReportTelemetry:
          control_.send(
              wire::encode_telemetry_report(telemetry_snapshot(), version_));
          break;
      }
      return true;
    }
    case wire::FrameKind::kProbe: {
      wire::ProbeFrame probe;
      if (wire::decode_probe(payload, &probe) != wire::DecodeError::kNone) {
        return false;
      }
      probe_pending_ = probe.token;
      return true;
    }
    case wire::FrameKind::kShutdown:
      done_ = true;
      return true;
    default:
      return false;
  }
}

bool ShardWorker::handle_peer(std::uint32_t shard,
                              std::span<const std::uint8_t> payload) {
  wire::MessageFrame frame;
  if (wire::decode_message_frame(payload, &frame) !=
      wire::DecodeError::kNone) {
    if (obs::FlightRecorder* recorder = obs::flight_recorder()) {
      recorder->dump("decode-error");
    }
    return false;
  }
  ++stats_.frames_received;
  stats_.bytes_received += payload.size() + 4;
  ++received_[shard];
  if (obs::tracing()) {
    obs::emit({.type = obs::Ev::kWireDecode,
               .t = sim_->now(),
               .object = frame.message.object,
               .from = frame.from,
               .to = frame.message.role.node,
               .aux = payload.size() + 4,
               .trace = frame.message.trace_id,
               .label = proto::msg_type_name(frame.message.type)});
  }
  mot_->cluster_inject(frame.message, frame.from);
  return true;
}

void ShardWorker::forward(const proto::Message& message, NodeId from) {
  const std::uint32_t to_shard =
      shard_of(message.role.node, config_.num_shards);
  MOT_CHECK(to_shard != config_.shard);
  MOT_CHECK(peers_[to_shard].valid());
  const std::uint8_t version = std::max(version_, config_.encode_version);
  const std::vector<std::uint8_t> frame =
      wire::encode_message_frame({.message = message, .from = from},
                                 version);
  ++stats_.frames_sent;
  stats_.bytes_sent += frame.size();
  ++sent_[to_shard];
  if (obs::tracing()) {
    obs::emit({.type = obs::Ev::kWireEncode,
               .t = sim_->now(),
               .object = message.object,
               .from = from,
               .to = message.role.node,
               .aux = frame.size(),
               .trace = message.trace_id,
               .label = proto::msg_type_name(message.type)});
  }
  // Staged, not sent: pump() flushes every peer's queue in one write
  // when the shard goes idle. sent_ counts at staging time, which is
  // safe because the probe reply is only sent after flush_peers().
  peers_[to_shard].queue(frame);
}

void ShardWorker::send_complete(const wire::CompleteFrame& frame) {
  control_.send(wire::encode_complete(frame, version_));
}

void ShardWorker::complete_publish(ObjectId object) {
  send_complete({.op = wire::ClusterOp::kPublish, .object = object});
}

void ShardWorker::complete_move(ObjectId object, const MoveResult& result) {
  wire::CompleteFrame frame;
  frame.op = wire::ClusterOp::kMove;
  frame.object = object;
  frame.cost = result.cost;
  frame.level = result.peak_level;
  send_complete(frame);
}

void ShardWorker::complete_query(std::uint64_t query_id,
                                 const QueryResult& result) {
  wire::CompleteFrame frame;
  frame.op = wire::ClusterOp::kQuery;
  frame.query_id = query_id;
  frame.found = result.found;
  frame.proxy = result.proxy;
  frame.cost = result.cost;
  frame.level = result.found_level;
  frame.degraded = result.degraded;
  frame.staleness = result.staleness_bound;
  send_complete(frame);
}

wire::TelemetryReportFrame ShardWorker::telemetry_snapshot() const {
  // Project every inline tally this shard keeps — the cost meter, the
  // protocol's stat block (which carries the overload ledger), and the
  // netio frame/byte counters — into one registry, then ship its
  // value-typed snapshot. The registry is rebuilt per request, so a
  // snapshot is always a consistent point-in-time view.
  obs::MetricsRegistry registry;
  export_cost_meter(mot_->meter(), registry);
  proto::export_protocol_stats(mot_->stats(), registry);
  registry.counter("mot_wire_frames_sent_total")
      .increment(stats_.frames_sent);
  registry.counter("mot_wire_frames_received_total")
      .increment(stats_.frames_received);
  registry.counter("mot_wire_bytes_sent_total")
      .increment(stats_.bytes_sent);
  registry.counter("mot_wire_bytes_received_total")
      .increment(stats_.bytes_received);
  registry.counter("mot_wire_messages_forwarded_total")
      .increment(std::accumulate(sent_.begin(), sent_.end(),
                                 std::uint64_t{0}));
  registry.counter("mot_wire_messages_injected_total")
      .increment(std::accumulate(received_.begin(), received_.end(),
                                 std::uint64_t{0}));
  wire::TelemetryReportFrame frame;
  frame.shard = config_.shard;
  frame.metrics = registry.snapshot();
  return frame;
}

// ---------------------------------------------------------------------------
// ClusterCoordinator
// ---------------------------------------------------------------------------

ClusterCoordinator::ClusterCoordinator(std::uint32_t num_shards)
    : num_shards_(num_shards), workers_(num_shards) {}

bool ClusterCoordinator::open() { return listener_.open(); }

bool ClusterCoordinator::bootstrap() {
  std::vector<wire::HelloFrame> hellos(num_shards_);
  for (std::uint32_t i = 0; i < num_shards_; ++i) {
    Socket sock = listener_.accept();
    if (!sock.valid()) return false;
    FrameStream stream(std::move(sock));
    std::vector<std::uint8_t> payload;
    if (stream.recv(&payload, /*block=*/true) != wire::DecodeError::kNone) {
      return false;
    }
    wire::HelloFrame hello;
    if (wire::decode_hello(payload, &hello) != wire::DecodeError::kNone) {
      return false;
    }
    if (hello.shard >= num_shards_ || hello.num_shards != num_shards_ ||
        workers_[hello.shard].valid()) {
      return false;
    }
    workers_[hello.shard] = std::move(stream);
    hellos[hello.shard] = hello;
  }
  // Every shard must have built the same world: node-addressed messages
  // are meaningless across divergent hierarchies.
  std::uint8_t floor = 0;
  std::uint8_t ceiling = 255;
  for (const wire::HelloFrame& hello : hellos) {
    if (hello.node_map_hash != hellos[0].node_map_hash ||
        hello.num_nodes != hellos[0].num_nodes) {
      return false;
    }
    floor = std::max(floor, hello.wire_min);
    ceiling = std::min(ceiling, hello.wire_max);
  }
  if (ceiling < floor || ceiling < 2) return false;
  version_ = ceiling;  // highest version every peer speaks

  wire::HelloAckFrame ack;
  ack.version = version_;
  for (const wire::HelloFrame& hello : hellos) {
    ack.peer_ports.push_back(hello.listen_port);
  }
  return broadcast(wire::encode_hello_ack(ack, version_));
}

bool ClusterCoordinator::broadcast(const std::vector<std::uint8_t>& frame) {
  for (FrameStream& worker : workers_) {
    if (!worker.send(frame)) return false;
  }
  return true;
}

std::vector<std::uint8_t> ClusterCoordinator::next_frame(
    std::uint32_t* shard) {
  std::vector<int> fds;
  for (const FrameStream& worker : workers_) fds.push_back(worker.fd());
  std::vector<std::uint8_t> payload;
  while (true) {
    // Frames already buffered first; a socket is read only once poll
    // reports it.
    for (std::uint32_t i = 0; i < num_shards_; ++i) {
      const wire::DecodeError err = workers_[i].take_frame(&payload);
      if (err == wire::DecodeError::kNone) {
        *shard = i;
        return payload;
      }
      if (err != wire::DecodeError::kShortRead) return {};  // desynced
    }
    for (const std::size_t i : poll_readable(fds, 1000)) {
      if (!workers_[i].fill(/*block=*/false)) return {};  // shard hung up
    }
  }
}

std::optional<wire::CompleteFrame> ClusterCoordinator::run_op(
    const wire::ControlFrame& control) {
  const std::uint32_t owner = shard_of(control.node, num_shards_);
  if (!workers_[owner].send(wire::encode_control(control, version_))) {
    return std::nullopt;
  }
  std::uint32_t shard = 0;
  wire::CompleteFrame complete;
  if (wire::decode_complete(next_frame(&shard), &complete) !=
          wire::DecodeError::kNone ||
      !answers(complete, control)) {
    return std::nullopt;
  }
  // Every shard but the owner learns a publish's or move's position with
  // the first probe; only the owner reads it while the op runs.
  std::vector<std::uint8_t> note;
  if (control.op != wire::ClusterOp::kQuery) {
    note = wire::encode_control({.op = wire::ClusterOp::kNotePosition,
                                 .object = control.object,
                                 .node = control.node},
                                version_);
  }
  if (!await_quiescence(note, owner)) return std::nullopt;
  return complete;
}

bool ClusterCoordinator::publish(ObjectId object, NodeId proxy) {
  return run_op({.op = wire::ClusterOp::kPublish,
                 .object = object,
                 .node = proxy})
      .has_value();
}

std::optional<ClusterMoveOutcome> ClusterCoordinator::move(
    ObjectId object, NodeId new_proxy) {
  const auto complete = run_op(
      {.op = wire::ClusterOp::kMove, .object = object, .node = new_proxy});
  if (!complete) return std::nullopt;
  return ClusterMoveOutcome{.cost = complete->cost,
                            .peak_level = complete->level};
}

std::optional<ClusterQueryOutcome> ClusterCoordinator::query(
    NodeId origin, ObjectId object) {
  const auto complete = run_op({.op = wire::ClusterOp::kQuery,
                                .object = object,
                                .node = origin,
                                .query_id = next_query_id_++});
  if (!complete) return std::nullopt;
  return ClusterQueryOutcome{.found = complete->found,
                             .proxy = complete->proxy,
                             .cost = complete->cost,
                             .found_level = complete->level,
                             .degraded = complete->degraded,
                             .staleness = complete->staleness};
}

bool ClusterCoordinator::await_quiescence(std::span<const std::uint8_t> note,
                                          std::uint32_t owner) {
  while (true) {
    ++probe_waves_;
    const wire::ProbeFrame probe{.token = next_probe_token_++};
    const std::vector<std::uint8_t> frame =
        wire::encode_probe(probe, version_);
    for (std::uint32_t i = 0; i < num_shards_; ++i) {
      if (i != owner) workers_[i].queue(note);
      workers_[i].queue(frame);
      if (!workers_[i].flush()) return false;
    }
    note = {};
    // A shard missing from the wave keeps an empty reply, which
    // judge_wave rejects: the op fails rather than waits.
    std::vector<wire::ProbeReplyFrame> replies(num_shards_);
    for (std::uint32_t got = 0; got < num_shards_; ++got) {
      std::uint32_t shard = 0;
      wire::ProbeReplyFrame reply;
      if (wire::decode_probe_reply(next_frame(&shard), &reply) !=
              wire::DecodeError::kNone ||
          reply.token != probe.token) {
        return false;
      }
      replies[shard] = std::move(reply);
    }
    switch (judge_wave(replies)) {
      case WaveVerdict::kQuiescent:
        return true;
      case WaveVerdict::kMalformed:
        return false;
      case WaveVerdict::kInFlight:
        break;
    }
  }
}

std::vector<std::uint64_t> ClusterCoordinator::collect_loads(
    double* meter_total) {
  wire::ControlFrame control;
  control.op = wire::ClusterOp::kReportLoad;
  if (!broadcast(wire::encode_control(control, version_))) return {};
  std::vector<std::uint64_t> totals;
  for (std::uint32_t got = 0; got < num_shards_; ++got) {
    std::uint32_t shard = 0;
    const std::vector<std::uint8_t> payload = next_frame(&shard);
    wire::LoadReportFrame report;
    if (wire::decode_load_report(payload, &report) !=
        wire::DecodeError::kNone) {
      return {};
    }
    totals.resize(std::max(totals.size(), report.loads.size()), 0);
    for (std::size_t i = 0; i < report.loads.size(); ++i) {
      totals[i] += report.loads[i];
    }
    if (meter_total != nullptr) *meter_total += report.meter_total;
  }
  return totals;
}

bool ClusterCoordinator::collect_telemetry(obs::MetricsRegistry* out) {
  wire::ControlFrame control;
  control.op = wire::ClusterOp::kReportTelemetry;
  if (!broadcast(wire::encode_control(control, version_))) return false;
  for (std::uint32_t got = 0; got < num_shards_; ++got) {
    std::uint32_t shard = 0;
    const std::vector<std::uint8_t> payload = next_frame(&shard);
    wire::TelemetryReportFrame report;
    if (wire::decode_telemetry_report(payload, &report) !=
        wire::DecodeError::kNone) {
      return false;
    }
    const obs::Labels extra = {{"shard", std::to_string(report.shard)}};
    for (const obs::MetricSnapshot& metric : report.metrics) {
      out->absorb(metric, extra);
    }
  }
  return true;
}

void ClusterCoordinator::shutdown() {
  // Best-effort, per worker: a shard that already died (e.g. the chaos
  // harness or the kill-shard smoke took it down) must not keep its
  // surviving peers from receiving the Shutdown frame.
  const std::vector<std::uint8_t> frame = wire::encode_shutdown(version_);
  for (FrameStream& worker : workers_) {
    if (worker.valid()) worker.send(frame);
  }
}

}  // namespace mot::netio
