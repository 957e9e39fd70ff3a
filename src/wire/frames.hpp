// Control-plane payloads of the multi-process cluster runner: bootstrap
// handshake (Hello / HelloAck), operation injection (Control), operation
// completion (Complete), the per-link quiescence probe, storage-load
// reporting and shutdown. Same framing and compat rules as kMessage
// (message_codec.hpp): tagged fields, unknown ids skipped, ascending
// version bytes negotiated down to the oldest peer.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "obs/metrics_registry.hpp"
#include "tracking/tracker.hpp"
#include "wire/message_codec.hpp"

namespace mot::wire {

// Worker -> coordinator, first frame on the control connection. The
// node-map hash fingerprints the worker's deterministically built world
// (graph + hierarchy + shard map): peers that disagree cannot exchange
// node-addressed messages, so the coordinator aborts the bootstrap.
struct HelloFrame {
  std::uint32_t shard = 0;
  std::uint32_t num_shards = 0;
  std::uint32_t listen_port = 0;  // worker's peer-mesh listener
  std::uint8_t wire_min = kWireVersionMin;
  std::uint8_t wire_max = kWireVersion;
  std::uint64_t node_map_hash = 0;
  std::uint64_t num_nodes = 0;

  bool operator==(const HelloFrame&) const = default;
};

// Coordinator -> worker: the negotiated wire version (the highest every
// peer supports) and the full peer port map, in shard order.
struct HelloAckFrame {
  std::uint8_t version = kWireVersion;
  std::vector<std::uint32_t> peer_ports;

  bool operator==(const HelloAckFrame&) const = default;
};

enum class ClusterOp : std::uint8_t {
  kPublish = 1,
  kMove = 2,
  kQuery = 3,
  kNotePosition = 4,  // object position note (no walker, no reply)
  kReportLoad = 5,    // reply with a LoadReport
  kReportTelemetry = 6,  // reply with a TelemetryReport
};

const char* cluster_op_name(ClusterOp op);

struct ControlFrame {
  ClusterOp op = ClusterOp::kPublish;
  ObjectId object = 0;
  NodeId node = kInvalidNode;   // proxy / target / query origin
  std::uint64_t query_id = 0;   // coordinator-assigned (kQuery)

  bool operator==(const ControlFrame&) const = default;
};

struct CompleteFrame {
  ClusterOp op = ClusterOp::kPublish;
  ObjectId object = 0;
  std::uint64_t query_id = 0;
  bool found = false;
  NodeId proxy = kInvalidNode;
  double cost = 0.0;
  std::int32_t level = 0;
  bool degraded = false;
  double staleness = 0.0;

  bool operator==(const CompleteFrame&) const = default;
};

struct ProbeFrame {
  std::uint64_t token = 0;

  bool operator==(const ProbeFrame&) const = default;
};

// A worker answers a probe only once its simulator is idle and every
// mesh frame it staged has been flushed. `sent[j]` / `received[j]` count
// the kMessage frames it has staged to / taken in from shard j, one entry
// per shard (packed-varint fields 4 and 5, omitted when empty). The
// coordinator declares global quiescence on the first wave in which every
// ordered link balances, sent_i[j] == received_j[i] (netio::judge_wave,
// DESIGN.md §11). Field ids 2 and 3 are retired and must not be reused.
struct ProbeReplyFrame {
  std::uint64_t token = 0;
  std::vector<std::uint64_t> sent;
  std::vector<std::uint64_t> received;

  bool operator==(const ProbeReplyFrame&) const = default;
};

struct LoadReportFrame {
  std::vector<std::uint64_t> loads;  // per owned node; 0 elsewhere
  double meter_total = 0.0;          // this shard's CostMeter distance

  bool operator==(const LoadReportFrame&) const = default;
};

// Worker -> coordinator reply to a kReportTelemetry control: the full
// value-typed snapshot of the shard's metrics registry (counters,
// gauges, histogram buckets — see obs::MetricSnapshot). Each metric is
// a nested length-delimited submessage, so the list can grow new
// per-metric fields under the same unknown-id-skip rules as every
// other frame.
struct TelemetryReportFrame {
  std::uint32_t shard = 0;
  std::vector<obs::MetricSnapshot> metrics;

  bool operator==(const TelemetryReportFrame&) const = default;
};

// Self-delivery notification of the socket transport's Channel role: the
// delivery callback stays in-process (keyed by seq); the frame makes the
// hop physically traverse the kernel's loopback stack.
struct LoopbackFrame {
  std::uint64_t seq = 0;

  bool operator==(const LoopbackFrame&) const = default;
};

std::vector<std::uint8_t> encode_hello(const HelloFrame& frame,
                                       std::uint8_t version = kWireVersion);
std::vector<std::uint8_t> encode_hello_ack(
    const HelloAckFrame& frame, std::uint8_t version = kWireVersion);
std::vector<std::uint8_t> encode_control(
    const ControlFrame& frame, std::uint8_t version = kWireVersion);
std::vector<std::uint8_t> encode_complete(
    const CompleteFrame& frame, std::uint8_t version = kWireVersion);
std::vector<std::uint8_t> encode_probe(const ProbeFrame& frame,
                                       std::uint8_t version = kWireVersion);
std::vector<std::uint8_t> encode_probe_reply(
    const ProbeReplyFrame& frame, std::uint8_t version = kWireVersion);
std::vector<std::uint8_t> encode_load_report(
    const LoadReportFrame& frame, std::uint8_t version = kWireVersion);
std::vector<std::uint8_t> encode_telemetry_report(
    const TelemetryReportFrame& frame, std::uint8_t version = kWireVersion);
std::vector<std::uint8_t> encode_shutdown(
    std::uint8_t version = kWireVersion);
std::vector<std::uint8_t> encode_loopback(
    const LoopbackFrame& frame, std::uint8_t version = kWireVersion);

DecodeError decode_hello(std::span<const std::uint8_t> payload,
                         HelloFrame* out);
DecodeError decode_hello_ack(std::span<const std::uint8_t> payload,
                             HelloAckFrame* out);
DecodeError decode_control(std::span<const std::uint8_t> payload,
                           ControlFrame* out);
DecodeError decode_complete(std::span<const std::uint8_t> payload,
                            CompleteFrame* out);
DecodeError decode_probe(std::span<const std::uint8_t> payload,
                         ProbeFrame* out);
DecodeError decode_probe_reply(std::span<const std::uint8_t> payload,
                               ProbeReplyFrame* out);
DecodeError decode_load_report(std::span<const std::uint8_t> payload,
                               LoadReportFrame* out);
DecodeError decode_telemetry_report(std::span<const std::uint8_t> payload,
                                    TelemetryReportFrame* out);
DecodeError decode_loopback(std::span<const std::uint8_t> payload,
                            LoopbackFrame* out);

}  // namespace mot::wire
