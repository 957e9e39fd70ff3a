#include "wire/frames.hpp"

#include <bit>

namespace mot::wire {
namespace {

// Decodes the envelope and checks the expected kind; returns a reader
// positioned at the first field.
DecodeError open_body(std::span<const std::uint8_t> payload,
                      FrameKind expected, ByteReader* reader) {
  *reader = ByteReader(payload);
  FrameHeader header;
  if (const DecodeError err = read_frame_header(*reader, &header);
      err != DecodeError::kNone) {
    return err;
  }
  if (header.kind != expected) return DecodeError::kBadKind;
  return DecodeError::kNone;
}

std::size_t varint_size(std::uint64_t value) {
  return (static_cast<std::size_t>(std::bit_width(value | 1)) + 6) / 7;
}

// Packed varint list inside one length-delimited field, written straight
// into `out` (the length prefix is computed first, so no scratch buffer).
void field_packed_varints(ByteWriter& out, std::uint32_t id,
                          std::span<const std::uint64_t> values) {
  std::size_t length = 0;
  for (const std::uint64_t value : values) length += varint_size(value);
  out.tag(id, WireType::kBytes);
  out.varint(length);
  for (const std::uint64_t value : values) out.varint(value);
}

std::vector<std::uint64_t> read_packed_varints(ByteReader& in) {
  std::vector<std::uint64_t> values;
  ByteReader packed(in.length_delimited());
  if (!in.ok()) return values;
  while (!packed.at_end()) values.push_back(packed.varint());
  if (!packed.ok()) in.fail(packed.error());
  return values;
}

void field_string(ByteWriter& out, std::uint32_t id, const std::string& s) {
  out.field_bytes(id, std::span<const std::uint8_t>(
                          reinterpret_cast<const std::uint8_t*>(s.data()),
                          s.size()));
}

std::string read_string(ByteReader& in) {
  const std::span<const std::uint8_t> bytes = in.length_delimited();
  if (!in.ok()) return {};
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

// Packed little-endian f64 list inside one length-delimited field.
void field_packed_f64(ByteWriter& out, std::uint32_t id,
                      std::span<const double> values) {
  ByteWriter packed;
  for (const double value : values) packed.f64(value);
  out.field_bytes(id, packed.data());
}

std::vector<double> read_packed_f64(ByteReader& in) {
  std::vector<double> values;
  ByteReader packed(in.length_delimited());
  if (!in.ok()) return values;
  while (!packed.at_end()) values.push_back(packed.f64());
  if (!packed.ok()) in.fail(packed.error());
  return values;
}

}  // namespace

const char* cluster_op_name(ClusterOp op) {
  switch (op) {
    case ClusterOp::kPublish:
      return "publish";
    case ClusterOp::kMove:
      return "move";
    case ClusterOp::kQuery:
      return "query";
    case ClusterOp::kNotePosition:
      return "note-position";
    case ClusterOp::kReportLoad:
      return "report-load";
    case ClusterOp::kReportTelemetry:
      return "report-telemetry";
  }
  return "unknown";
}

// --- Hello ----------------------------------------------------------------

std::vector<std::uint8_t> encode_hello(const HelloFrame& frame,
                                       std::uint8_t version) {
  ByteWriter body = frame_body();
  body.field_varint(1, frame.shard);
  body.field_varint(2, frame.num_shards);
  body.field_varint(3, frame.listen_port);
  body.field_varint(4, frame.wire_min);
  body.field_varint(5, frame.wire_max);
  body.field_fixed64(6, frame.node_map_hash);
  body.field_varint(7, frame.num_nodes);
  return finish_frame(FrameKind::kHello, version, std::move(body));
}

DecodeError decode_hello(std::span<const std::uint8_t> payload,
                         HelloFrame* out) {
  ByteReader in({});
  if (const DecodeError err = open_body(payload, FrameKind::kHello, &in);
      err != DecodeError::kNone) {
    return err;
  }
  *out = HelloFrame{};
  std::uint32_t id = 0;
  WireType type = WireType::kVarint;
  while (in.next_field(&id, &type)) {
    switch (id) {
      case 1:
        out->shard = static_cast<std::uint32_t>(in.varint());
        break;
      case 2:
        out->num_shards = static_cast<std::uint32_t>(in.varint());
        break;
      case 3:
        out->listen_port = static_cast<std::uint32_t>(in.varint());
        break;
      case 4:
        out->wire_min = static_cast<std::uint8_t>(in.varint());
        break;
      case 5:
        out->wire_max = static_cast<std::uint8_t>(in.varint());
        break;
      case 6:
        out->node_map_hash = in.fixed64();
        break;
      case 7:
        out->num_nodes = in.varint();
        break;
      default:
        in.skip(type);
        break;
    }
    if (!in.ok()) break;
  }
  return in.error();
}

// --- HelloAck -------------------------------------------------------------

std::vector<std::uint8_t> encode_hello_ack(const HelloAckFrame& frame,
                                           std::uint8_t version) {
  ByteWriter body = frame_body();
  body.field_varint(1, frame.version);
  std::vector<std::uint64_t> ports(frame.peer_ports.begin(),
                                   frame.peer_ports.end());
  field_packed_varints(body, 2, ports);
  return finish_frame(FrameKind::kHelloAck, version, std::move(body));
}

DecodeError decode_hello_ack(std::span<const std::uint8_t> payload,
                             HelloAckFrame* out) {
  ByteReader in({});
  if (const DecodeError err = open_body(payload, FrameKind::kHelloAck, &in);
      err != DecodeError::kNone) {
    return err;
  }
  *out = HelloAckFrame{};
  std::uint32_t id = 0;
  WireType type = WireType::kVarint;
  while (in.next_field(&id, &type)) {
    switch (id) {
      case 1:
        out->version = static_cast<std::uint8_t>(in.varint());
        break;
      case 2: {
        out->peer_ports.clear();
        for (const std::uint64_t port : read_packed_varints(in)) {
          out->peer_ports.push_back(static_cast<std::uint32_t>(port));
        }
        break;
      }
      default:
        in.skip(type);
        break;
    }
    if (!in.ok()) break;
  }
  return in.error();
}

// --- Control --------------------------------------------------------------

std::vector<std::uint8_t> encode_control(const ControlFrame& frame,
                                         std::uint8_t version) {
  ByteWriter body = frame_body();
  body.field_varint(1, static_cast<std::uint64_t>(frame.op));
  if (frame.object != 0) body.field_varint(2, frame.object);
  if (frame.node != kInvalidNode) body.field_fixed32(3, frame.node);
  if (frame.query_id != 0) body.field_varint(4, frame.query_id);
  return finish_frame(FrameKind::kControl, version, std::move(body));
}

DecodeError decode_control(std::span<const std::uint8_t> payload,
                           ControlFrame* out) {
  ByteReader in({});
  if (const DecodeError err = open_body(payload, FrameKind::kControl, &in);
      err != DecodeError::kNone) {
    return err;
  }
  *out = ControlFrame{};
  std::uint32_t id = 0;
  WireType type = WireType::kVarint;
  while (in.next_field(&id, &type)) {
    switch (id) {
      case 1: {
        const std::uint64_t raw = in.varint();
        if (in.ok() &&
            (raw < 1 ||
             raw > static_cast<std::uint64_t>(ClusterOp::kReportTelemetry))) {
          return DecodeError::kBadValue;
        }
        out->op = static_cast<ClusterOp>(raw);
        break;
      }
      case 2:
        out->object = static_cast<ObjectId>(in.varint());
        break;
      case 3:
        out->node = in.fixed32();
        break;
      case 4:
        out->query_id = in.varint();
        break;
      default:
        in.skip(type);
        break;
    }
    if (!in.ok()) break;
  }
  return in.error();
}

// --- Complete -------------------------------------------------------------

std::vector<std::uint8_t> encode_complete(const CompleteFrame& frame,
                                          std::uint8_t version) {
  ByteWriter body = frame_body();
  body.field_varint(1, static_cast<std::uint64_t>(frame.op));
  if (frame.object != 0) body.field_varint(2, frame.object);
  if (frame.query_id != 0) body.field_varint(3, frame.query_id);
  if (frame.found) body.field_varint(4, 1);
  if (frame.proxy != kInvalidNode) body.field_fixed32(5, frame.proxy);
  if (frame.cost != 0.0) body.field_f64(6, frame.cost);
  if (frame.level != 0) body.field_svarint(7, frame.level);
  if (frame.degraded) body.field_varint(8, 1);
  if (frame.staleness != 0.0) body.field_f64(9, frame.staleness);
  return finish_frame(FrameKind::kComplete, version, std::move(body));
}

DecodeError decode_complete(std::span<const std::uint8_t> payload,
                            CompleteFrame* out) {
  ByteReader in({});
  if (const DecodeError err = open_body(payload, FrameKind::kComplete, &in);
      err != DecodeError::kNone) {
    return err;
  }
  *out = CompleteFrame{};
  std::uint32_t id = 0;
  WireType type = WireType::kVarint;
  while (in.next_field(&id, &type)) {
    switch (id) {
      case 1:
        out->op = static_cast<ClusterOp>(in.varint());
        break;
      case 2:
        out->object = static_cast<ObjectId>(in.varint());
        break;
      case 3:
        out->query_id = in.varint();
        break;
      case 4:
        out->found = in.varint() != 0;
        break;
      case 5:
        out->proxy = in.fixed32();
        break;
      case 6:
        out->cost = in.f64();
        break;
      case 7:
        out->level = static_cast<std::int32_t>(in.svarint());
        break;
      case 8:
        out->degraded = in.varint() != 0;
        break;
      case 9:
        out->staleness = in.f64();
        break;
      default:
        in.skip(type);
        break;
    }
    if (!in.ok()) break;
  }
  return in.error();
}

// --- Probe / ProbeReply ---------------------------------------------------

std::vector<std::uint8_t> encode_probe(const ProbeFrame& frame,
                                       std::uint8_t version) {
  ByteWriter body = frame_body();
  body.field_varint(1, frame.token);
  return finish_frame(FrameKind::kProbe, version, std::move(body));
}

DecodeError decode_probe(std::span<const std::uint8_t> payload,
                         ProbeFrame* out) {
  ByteReader in({});
  if (const DecodeError err = open_body(payload, FrameKind::kProbe, &in);
      err != DecodeError::kNone) {
    return err;
  }
  *out = ProbeFrame{};
  std::uint32_t id = 0;
  WireType type = WireType::kVarint;
  while (in.next_field(&id, &type)) {
    if (id == 1) {
      out->token = in.varint();
    } else {
      in.skip(type);
    }
    if (!in.ok()) break;
  }
  return in.error();
}

std::vector<std::uint8_t> encode_probe_reply(const ProbeReplyFrame& frame,
                                             std::uint8_t version) {
  ByteWriter body = frame_body();
  body.field_varint(1, frame.token);
  if (!frame.sent.empty()) field_packed_varints(body, 4, frame.sent);
  if (!frame.received.empty()) field_packed_varints(body, 5, frame.received);
  return finish_frame(FrameKind::kProbeReply, version, std::move(body));
}

DecodeError decode_probe_reply(std::span<const std::uint8_t> payload,
                               ProbeReplyFrame* out) {
  ByteReader in({});
  if (const DecodeError err =
          open_body(payload, FrameKind::kProbeReply, &in);
      err != DecodeError::kNone) {
    return err;
  }
  *out = ProbeReplyFrame{};
  std::uint32_t id = 0;
  WireType type = WireType::kVarint;
  while (in.next_field(&id, &type)) {
    switch (id) {
      case 1:
        out->token = in.varint();
        break;
      case 4:
        out->sent = read_packed_varints(in);
        break;
      case 5:
        out->received = read_packed_varints(in);
        break;
      default:
        in.skip(type);
        break;
    }
    if (!in.ok()) break;
  }
  return in.error();
}

// --- LoadReport / Shutdown ------------------------------------------------

std::vector<std::uint8_t> encode_load_report(const LoadReportFrame& frame,
                                             std::uint8_t version) {
  ByteWriter body = frame_body();
  field_packed_varints(body, 1, frame.loads);
  if (frame.meter_total != 0.0) body.field_f64(2, frame.meter_total);
  return finish_frame(FrameKind::kLoadReport, version, std::move(body));
}

DecodeError decode_load_report(std::span<const std::uint8_t> payload,
                               LoadReportFrame* out) {
  ByteReader in({});
  if (const DecodeError err =
          open_body(payload, FrameKind::kLoadReport, &in);
      err != DecodeError::kNone) {
    return err;
  }
  *out = LoadReportFrame{};
  std::uint32_t id = 0;
  WireType type = WireType::kVarint;
  while (in.next_field(&id, &type)) {
    switch (id) {
      case 1:
        out->loads = read_packed_varints(in);
        break;
      case 2:
        out->meter_total = in.f64();
        break;
      default:
        in.skip(type);
        break;
    }
    if (!in.ok()) break;
  }
  return in.error();
}

// --- TelemetryReport ------------------------------------------------------

namespace {

// Submessage field ids shared by the metric encoder/decoder below.
enum MetricField : std::uint32_t {
  kMKind = 1,     // varint  (obs::MetricKind)
  kMName = 2,     // bytes
  kMLabel = 3,    // bytes, repeated: nested {1: key, 2: value}
  kMCounter = 4,  // varint
  kMGauge = 5,    // fixed64 (f64)
  kMBounds = 6,   // bytes: packed f64
  kMBuckets = 7,  // bytes: packed varint
  kMSum = 8,      // fixed64 (f64)
  kMCount = 9,    // varint
};

void encode_metric(const obs::MetricSnapshot& metric, ByteWriter& out) {
  ByteWriter m;
  if (metric.kind != obs::MetricKind::kCounter) {
    m.field_varint(kMKind, static_cast<std::uint64_t>(metric.kind));
  }
  if (!metric.name.empty()) field_string(m, kMName, metric.name);
  for (const auto& [key, value] : metric.labels) {
    ByteWriter label;
    if (!key.empty()) field_string(label, 1, key);
    if (!value.empty()) field_string(label, 2, value);
    m.field_bytes(kMLabel, label.data());
  }
  if (metric.counter_value != 0) {
    m.field_varint(kMCounter, metric.counter_value);
  }
  if (metric.gauge_value != 0.0) m.field_f64(kMGauge, metric.gauge_value);
  if (!metric.bounds.empty()) field_packed_f64(m, kMBounds, metric.bounds);
  if (!metric.buckets.empty()) {
    field_packed_varints(m, kMBuckets, metric.buckets);
  }
  if (metric.sum != 0.0) m.field_f64(kMSum, metric.sum);
  if (metric.count != 0) m.field_varint(kMCount, metric.count);
  out.field_bytes(2, m.data());
}

DecodeError decode_metric(ByteReader& in, obs::MetricSnapshot* out) {
  ByteReader m(in.length_delimited());
  if (!in.ok()) return in.error();
  *out = obs::MetricSnapshot{};
  std::uint32_t id = 0;
  WireType type = WireType::kVarint;
  while (m.next_field(&id, &type)) {
    switch (id) {
      case kMKind: {
        const std::uint64_t raw = m.varint();
        if (m.ok() &&
            raw > static_cast<std::uint64_t>(obs::MetricKind::kHistogram)) {
          return DecodeError::kBadValue;
        }
        out->kind = static_cast<obs::MetricKind>(raw);
        break;
      }
      case kMName:
        out->name = read_string(m);
        break;
      case kMLabel: {
        ByteReader label(m.length_delimited());
        if (!m.ok()) break;
        std::string key, value;
        std::uint32_t lid = 0;
        WireType ltype = WireType::kVarint;
        while (label.next_field(&lid, &ltype)) {
          if (lid == 1) key = read_string(label);
          else if (lid == 2) value = read_string(label);
          else label.skip(ltype);
          if (!label.ok()) break;
        }
        if (!label.ok()) {
          m.fail(label.error());
          break;
        }
        out->labels.emplace_back(std::move(key), std::move(value));
        break;
      }
      case kMCounter:
        out->counter_value = m.varint();
        break;
      case kMGauge:
        out->gauge_value = m.f64();
        break;
      case kMBounds:
        out->bounds = read_packed_f64(m);
        break;
      case kMBuckets:
        out->buckets = read_packed_varints(m);
        break;
      case kMSum:
        out->sum = m.f64();
        break;
      case kMCount:
        out->count = m.varint();
        break;
      default:
        m.skip(type);
        break;
    }
    if (!m.ok()) break;
  }
  if (m.error() != DecodeError::kNone) return m.error();
  // A histogram's bucket list must line up with its bounds (one
  // overflow bucket at the back) or the coordinator-side merge would
  // be operating on garbage.
  if (out->kind == obs::MetricKind::kHistogram &&
      out->buckets.size() != out->bounds.size() + 1) {
    return DecodeError::kBadValue;
  }
  return DecodeError::kNone;
}

}  // namespace

std::vector<std::uint8_t> encode_telemetry_report(
    const TelemetryReportFrame& frame, std::uint8_t version) {
  ByteWriter body = frame_body();
  if (frame.shard != 0) body.field_varint(1, frame.shard);
  for (const obs::MetricSnapshot& metric : frame.metrics) {
    encode_metric(metric, body);
  }
  return finish_frame(FrameKind::kTelemetryReport, version,
                      std::move(body));
}

DecodeError decode_telemetry_report(std::span<const std::uint8_t> payload,
                                    TelemetryReportFrame* out) {
  ByteReader in({});
  if (const DecodeError err =
          open_body(payload, FrameKind::kTelemetryReport, &in);
      err != DecodeError::kNone) {
    return err;
  }
  *out = TelemetryReportFrame{};
  std::uint32_t id = 0;
  WireType type = WireType::kVarint;
  while (in.next_field(&id, &type)) {
    switch (id) {
      case 1:
        out->shard = static_cast<std::uint32_t>(in.varint());
        break;
      case 2: {
        obs::MetricSnapshot metric;
        if (const DecodeError err = decode_metric(in, &metric);
            err != DecodeError::kNone) {
          return err;
        }
        out->metrics.push_back(std::move(metric));
        break;
      }
      default:
        in.skip(type);
        break;
    }
    if (!in.ok()) break;
  }
  return in.error();
}

std::vector<std::uint8_t> encode_shutdown(std::uint8_t version) {
  return finish_frame(FrameKind::kShutdown, version, frame_body());
}

std::vector<std::uint8_t> encode_loopback(const LoopbackFrame& frame,
                                          std::uint8_t version) {
  ByteWriter body = frame_body();
  body.field_varint(1, frame.seq);
  return finish_frame(FrameKind::kLoopback, version, std::move(body));
}

DecodeError decode_loopback(std::span<const std::uint8_t> payload,
                            LoopbackFrame* out) {
  ByteReader in({});
  if (const DecodeError err = open_body(payload, FrameKind::kLoopback, &in);
      err != DecodeError::kNone) {
    return err;
  }
  *out = LoopbackFrame{};
  std::uint32_t id = 0;
  WireType type = WireType::kVarint;
  while (in.next_field(&id, &type)) {
    if (id == 1) {
      out->seq = in.varint();
    } else {
      in.skip(type);
    }
    if (!in.ok()) break;
  }
  return in.error();
}

}  // namespace mot::wire
