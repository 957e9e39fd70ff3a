// Multi-process cluster runtime: one DistributedMot shard per OS
// process, cross-shard walker messages over a loopback-TCP full mesh,
// and a star-topology control plane to a coordinator that injects
// operations one at a time and detects global quiescence.
//
// Bootstrap (per worker): connect to the coordinator, send Hello (shard
// id, mesh listener port, supported wire versions, world fingerprint);
// the coordinator verifies every shard built the same world, negotiates
// the highest wire version all peers speak, and answers HelloAck with
// the full port map. Workers then wire the mesh (shard i dials every
// j < i, accepts every j > i) and enter the pump loop.
//
// Execution: the coordinator injects each operation at its owner shard,
// waits for the Complete frame, then probes every shard until one wave
// shows every mesh link balanced (judge_wave) — trailing SDL traffic is
// then provably drained. A publish or move carries the object's position
// to its owner in the control frame itself; every other shard gets the
// position note in the same write as that operation's first probe, so
// all shards hold it before the next operation starts.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "netio/socket.hpp"
#include "netio/transport.hpp"
#include "proto/cluster_link.hpp"
#include "proto/distributed_mot.hpp"
#include "wire/frames.hpp"

namespace mot::netio {

// Node -> shard map shared by workers and coordinator: round-robin, so
// every shard owns roles at every overlay level.
inline std::uint32_t shard_of(NodeId node, std::uint32_t num_shards) {
  return static_cast<std::uint32_t>(node % num_shards);
}

// Deterministic world fingerprint (FNV-1a over the node count and a
// sample of upward sequences): shards built from different seeds or
// configs disagree, and the coordinator aborts the bootstrap instead of
// letting them exchange node-addressed messages.
std::uint64_t world_fingerprint(const PathProvider& provider);

struct WorkerConfig {
  std::uint32_t shard = 0;
  std::uint32_t num_shards = 1;
  std::uint16_t coordinator_port = 0;
  // Version this worker ENCODES at (decoding accepts anything >= the
  // floor). The mixed-version interop test runs one worker at
  // kWireVersionFuture: a "build from the future" whose extra fields
  // every current peer must skip.
  std::uint8_t encode_version = wire::kWireVersion;
  // Observability: when non-empty, run() streams this shard's trace
  // events to <trace_dir>/shard-<i>.jsonl behind a flight-recorder ring
  // that dumps the last `flight_capacity` events to
  // <trace_dir>/flight-<i>.jsonl on abnormal exit (DESIGN.md §12).
  std::string trace_dir;
  std::size_t flight_capacity = 4096;
};

// Verdict of one probe wave, where replies[i] is shard i's reply.
enum class WaveVerdict : std::uint8_t {
  kQuiescent,  // every ordered link balances: the mesh is drained
  kInFlight,   // some link does not balance yet: probe again
  kMalformed,  // a reply lacks a full set of link counts: fail the op
};

// The per-link quiescence rule (DESIGN.md §11): a wave is conclusive when
// sent_i[j] == received_j[i] for every ordered pair of shards i != j.
// Links are FIFO TCP streams and a shard replies only when idle with its
// staged frames flushed, so balanced counts leave no frame in flight and
// no shard that could be woken after replying.
WaveVerdict judge_wave(std::span<const wire::ProbeReplyFrame> replies);

// One shard of the cluster. Owns the control + mesh sockets; the
// DistributedMot, simulator, and provider belong to the embedder (built
// deterministically from the same seed in every process). Attaches
// itself via use_cluster().
class ShardWorker final : public proto::ClusterLink {
 public:
  ShardWorker(const WorkerConfig& config, const PathProvider& provider,
              Simulator& sim, proto::DistributedMot& mot);

  // Full lifecycle: bootstrap, pump until Shutdown. Returns 0 on clean
  // shutdown, nonzero on a protocol/socket failure.
  int run();

  // proto::ClusterLink
  bool owns(NodeId node) const override;
  void forward(const proto::Message& message, NodeId from) override;
  void complete_publish(ObjectId object) override;
  void complete_move(ObjectId object, const MoveResult& result) override;
  void complete_query(std::uint64_t query_id,
                      const QueryResult& result) override;

  std::uint8_t negotiated_version() const { return version_; }
  const WireStats& wire_stats() const { return stats_; }

 private:
  bool bootstrap();
  bool wire_mesh(const wire::HelloAckFrame& ack);
  // Event loop. A stream is read only when the last poll reported it
  // readable; frames already buffered are taken without a syscall.
  bool pump();
  bool handle_control(std::span<const std::uint8_t> payload);
  bool handle_peer(std::uint32_t shard,
                   std::span<const std::uint8_t> payload);
  void send_complete(const wire::CompleteFrame& frame);
  void maybe_answer_probe();
  // Ships every peer's queued mesh frames in one write per peer. Called
  // once per pump iteration when the shard goes idle — forward() only
  // stages frames, so a burst of cross-shard traffic generated by one
  // drained message costs one syscall per destination, not per frame.
  bool flush_peers();
  // Snapshot of this shard's observable state (cost meter, protocol
  // stats, netio frame/byte counters) as one TelemetryReport frame.
  wire::TelemetryReportFrame telemetry_snapshot() const;

  WorkerConfig config_;
  const PathProvider* provider_;
  Simulator* sim_;
  proto::DistributedMot* mot_;
  Listener mesh_listener_;
  FrameStream control_;
  std::vector<FrameStream> peers_;  // indexed by shard; self unused
  std::uint8_t version_ = wire::kWireVersion;
  bool done_ = false;
  std::optional<std::uint64_t> probe_pending_;
  // Per-peer kMessage frame counts for the probe reply, indexed by shard:
  // staged by forward() / taken in by handle_peer().
  std::vector<std::uint64_t> sent_;
  std::vector<std::uint64_t> received_;
  WireStats stats_;
};

// Per-operation outcome as reported over the control plane.
struct ClusterQueryOutcome {
  bool found = false;
  NodeId proxy = kInvalidNode;
  Weight cost = 0.0;
  int found_level = 0;
  bool degraded = false;
  Weight staleness = 0.0;
};

struct ClusterMoveOutcome {
  Weight cost = 0.0;
  int peak_level = 0;
};

// The control-plane side: accepts worker Hellos, negotiates the wire
// version, injects operations, and aggregates results. Lives in the
// parent process (bench/cluster_runner) or a test thread.
class ClusterCoordinator {
 public:
  explicit ClusterCoordinator(std::uint32_t num_shards);

  // Opens the control listener; workers dial port().
  bool open();
  std::uint16_t port() const { return listener_.port(); }

  // Accepts all workers, verifies their fingerprints agree, negotiates
  // the version, and releases them into the pump loop. False on any
  // mismatch (the cluster must not run on divergent worlds).
  bool bootstrap();
  std::uint8_t negotiated_version() const { return version_; }

  // Operations: inject at the owner shard, wait for completion, then
  // drain the mesh via probe waves.
  bool publish(ObjectId object, NodeId proxy);
  std::optional<ClusterMoveOutcome> move(ObjectId object, NodeId new_proxy);
  std::optional<ClusterQueryOutcome> query(NodeId origin, ObjectId object);

  // Probe waves sent so far: one per operation whenever the first wave
  // is conclusive.
  std::uint64_t probe_waves() const { return probe_waves_; }

  // Elementwise sum of every shard's per-node storage load; the meter
  // total accumulates each shard's charged distance.
  std::vector<std::uint64_t> collect_loads(double* meter_total);

  // Pulls every worker's metrics snapshot and merges it into `out`,
  // each shard's instruments labeled {"shard", "<i>"}. False on a
  // control-plane failure (out may then hold a partial merge).
  bool collect_telemetry(obs::MetricsRegistry* out);

  void shutdown();

 private:
  bool broadcast(const std::vector<std::uint8_t>& frame);
  // Blocks until one frame arrives from any shard; returns the payload
  // and sets *shard to its sender, or returns empty on socket failure.
  std::vector<std::uint8_t> next_frame(std::uint32_t* shard);
  // Injects `control` at the shard owning control.node, waits for its
  // Complete, then for quiescence. Empty on any control-plane failure.
  std::optional<wire::CompleteFrame> run_op(const wire::ControlFrame& control);
  // Probe waves until one is conclusive. A non-empty `note` (an encoded
  // kNotePosition) goes to every shard but `owner` in the same write as
  // the first probe; the owner took the position from the op itself.
  bool await_quiescence(std::span<const std::uint8_t> note,
                        std::uint32_t owner);

  std::uint32_t num_shards_;
  Listener listener_;
  std::vector<FrameStream> workers_;  // indexed by shard
  std::uint8_t version_ = 0;
  std::uint64_t next_query_id_ = 1;
  std::uint64_t next_probe_token_ = 1;
  std::uint64_t probe_waves_ = 0;
};

}  // namespace mot::netio
