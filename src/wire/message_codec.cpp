#include "wire/message_codec.hpp"

namespace mot::wire {
namespace {

// Field ids of the kMessage body. Ids are append-only: a retired field's
// id is never reused, so every decoder ever shipped agrees on what an id
// means (it may merely not know the newest ones).
enum MessageField : std::uint32_t {
  kFType = 1,        // varint  (MsgType)
  kFObject = 2,      // varint
  kFRoleLevel = 3,   // svarint
  kFRoleNode = 4,    // fixed32
  kFWalkSource = 5,  // fixed32
  kFWalkIndex = 6,   // varint
  kFLinkLevel = 7,   // svarint
  kFLinkNode = 8,    // fixed32
  kFNewProxy = 9,    // fixed32
  kFRequester = 10,  // fixed32
  kFQueryId = 11,    // varint
  kFDegraded = 12,   // varint (bool)
  kFStaleness = 13,  // fixed64 (f64)
  // --- added in version 2 (cluster walker context) ---
  kFOpCost = 14,     // fixed64 (f64)
  kFOpPeak = 15,     // svarint
  // --- added in PR 7, still version 2 (causal trace context; zero and
  //     therefore absent unless a trace sink is installed) ---
  kFTraceId = 16,    // fixed64
  kFSpan = 17,       // varint
  kFSpanSeq = 18,    // varint
  // --- kMessage envelope (not part of proto::Message) ---
  kFFrom = 20,       // fixed32
};

}  // namespace

const char* frame_kind_name(FrameKind kind) {
  switch (kind) {
    case FrameKind::kMessage:
      return "message";
    case FrameKind::kHello:
      return "hello";
    case FrameKind::kHelloAck:
      return "hello-ack";
    case FrameKind::kControl:
      return "control";
    case FrameKind::kComplete:
      return "complete";
    case FrameKind::kProbe:
      return "probe";
    case FrameKind::kProbeReply:
      return "probe-reply";
    case FrameKind::kLoadReport:
      return "load-report";
    case FrameKind::kShutdown:
      return "shutdown";
    case FrameKind::kLoopback:
      return "loopback";
    case FrameKind::kTelemetryReport:
      return "telemetry-report";
  }
  return "unknown";
}

std::vector<std::uint8_t> finish_frame(FrameKind kind, std::uint8_t version,
                                       ByteWriter body) {
  const std::size_t fields = body.size();
  std::vector<std::uint8_t> out;
  if (body.headroom() == kFrameHeaderBytes) {
    out = body.take();
  } else {
    const std::span<const std::uint8_t> written = body.data();
    out.reserve(kFrameHeaderBytes + fields);
    out.resize(kFrameHeaderBytes);
    out.insert(out.end(), written.begin(), written.end());
  }
  // Payload = version + kind + fields.
  const auto length = static_cast<std::uint32_t>(fields + 2);
  out[0] = static_cast<std::uint8_t>(length);
  out[1] = static_cast<std::uint8_t>(length >> 8);
  out[2] = static_cast<std::uint8_t>(length >> 16);
  out[3] = static_cast<std::uint8_t>(length >> 24);
  out[4] = version;
  out[5] = static_cast<std::uint8_t>(kind);
  return out;
}

DecodeError split_frame(std::span<const std::uint8_t> buffer,
                        std::span<const std::uint8_t>* payload,
                        std::size_t* consumed) {
  if (buffer.size() < 4) return DecodeError::kShortRead;
  ByteReader reader(buffer);
  const std::uint32_t length = reader.fixed32();
  if (length < 2 || length > kMaxFramePayload) {
    return DecodeError::kBadLength;
  }
  if (buffer.size() < 4 + static_cast<std::size_t>(length)) {
    return DecodeError::kShortRead;
  }
  *payload = buffer.subspan(4, length);
  *consumed = 4 + static_cast<std::size_t>(length);
  return DecodeError::kNone;
}

DecodeError read_frame_header(ByteReader& in, FrameHeader* out) {
  const std::uint8_t version = in.u8();
  const std::uint8_t kind = in.u8();
  if (!in.ok()) return in.error();
  if (version < kWireVersionMin) return DecodeError::kBadVersion;
  if (kind < static_cast<std::uint8_t>(FrameKind::kMessage) ||
      kind > static_cast<std::uint8_t>(FrameKind::kTelemetryReport)) {
    return DecodeError::kBadKind;
  }
  out->version = version;
  out->kind = static_cast<FrameKind>(kind);
  return DecodeError::kNone;
}

void encode_message_fields(const proto::Message& message,
                           std::uint8_t version, ByteWriter& out) {
  // Defaults are omitted and ids ascend: the encoding of a message is a
  // pure function of its field values, so decode -> re-encode is
  // byte-identical (the fuzz suite's round-trip invariant).
  if (message.type != proto::MsgType::kPublish) {
    out.field_varint(kFType, static_cast<std::uint64_t>(message.type));
  }
  if (message.object != 0) out.field_varint(kFObject, message.object);
  if (message.role.level != 0) {
    out.field_svarint(kFRoleLevel, message.role.level);
  }
  if (message.role.node != kInvalidNode) {
    out.field_fixed32(kFRoleNode, message.role.node);
  }
  if (message.walk_source != kInvalidNode) {
    out.field_fixed32(kFWalkSource, message.walk_source);
  }
  if (message.walk_index != 0) {
    out.field_varint(kFWalkIndex, message.walk_index);
  }
  if (message.link.level != 0) {
    out.field_svarint(kFLinkLevel, message.link.level);
  }
  if (message.link.node != kInvalidNode) {
    out.field_fixed32(kFLinkNode, message.link.node);
  }
  if (message.new_proxy != kInvalidNode) {
    out.field_fixed32(kFNewProxy, message.new_proxy);
  }
  if (message.requester != kInvalidNode) {
    out.field_fixed32(kFRequester, message.requester);
  }
  if (message.query_id != 0) out.field_varint(kFQueryId, message.query_id);
  if (message.degraded) out.field_varint(kFDegraded, 1);
  if (message.staleness != 0.0) {
    out.field_f64(kFStaleness, message.staleness);
  }
  if (version >= 2) {
    if (message.op_cost != 0.0) out.field_f64(kFOpCost, message.op_cost);
    if (message.op_peak != 0) out.field_svarint(kFOpPeak, message.op_peak);
    if (message.trace_id != 0) out.field_fixed64(kFTraceId, message.trace_id);
    if (message.span != 0) out.field_varint(kFSpan, message.span);
    if (message.span_seq != 0) out.field_varint(kFSpanSeq, message.span_seq);
  }
}

namespace {

// Shared field-loop for the kMessage body; envelope fields land in
// `frame`, message fields in `frame->message`. Unknown ids are skipped.
DecodeError decode_message_fields(ByteReader& in, MessageFrame* frame) {
  proto::Message& m = frame->message;
  std::uint32_t id = 0;
  WireType type = WireType::kVarint;
  while (in.next_field(&id, &type)) {
    switch (id) {
      case kFType: {
        const std::uint64_t raw = in.varint();
        if (in.ok() && raw >= proto::kNumMsgTypes) {
          return DecodeError::kBadValue;
        }
        m.type = static_cast<proto::MsgType>(raw);
        break;
      }
      case kFObject:
        m.object = static_cast<ObjectId>(in.varint());
        break;
      case kFRoleLevel:
        m.role.level = static_cast<int>(in.svarint());
        break;
      case kFRoleNode:
        m.role.node = in.fixed32();
        break;
      case kFWalkSource:
        m.walk_source = in.fixed32();
        break;
      case kFWalkIndex:
        m.walk_index = static_cast<std::uint32_t>(in.varint());
        break;
      case kFLinkLevel:
        m.link.level = static_cast<int>(in.svarint());
        break;
      case kFLinkNode:
        m.link.node = in.fixed32();
        break;
      case kFNewProxy:
        m.new_proxy = in.fixed32();
        break;
      case kFRequester:
        m.requester = in.fixed32();
        break;
      case kFQueryId:
        m.query_id = in.varint();
        break;
      case kFDegraded:
        m.degraded = in.varint() != 0;
        break;
      case kFStaleness:
        m.staleness = in.f64();
        break;
      case kFOpCost:
        m.op_cost = in.f64();
        break;
      case kFOpPeak:
        m.op_peak = static_cast<std::int32_t>(in.svarint());
        break;
      case kFTraceId:
        m.trace_id = in.fixed64();
        break;
      case kFSpan:
        m.span = in.varint();
        break;
      case kFSpanSeq:
        m.span_seq = in.varint();
        break;
      case kFFrom:
        frame->from = in.fixed32();
        break;
      default:
        in.skip(type);  // a field from the future: step over it
        break;
    }
    if (!in.ok()) break;
  }
  return in.error();
}

}  // namespace

std::vector<std::uint8_t> encode_message_frame(const MessageFrame& frame,
                                               std::uint8_t version) {
  ByteWriter body = frame_body();
  encode_message_fields(frame.message, version, body);
  if (frame.from != kInvalidNode) {
    body.field_fixed32(kFFrom, frame.from);
  }
  if (version >= kWireVersionFuture) {
    // One probe per wire-type class, under ids no shipped decoder knows —
    // a frame only a future build would emit, which today's decoder must
    // step over without blinking.
    body.field_varint(100, 0x5eedu);
    body.field_fixed64(101, 0x0123456789abcdefULL);
    const std::uint8_t blob[3] = {0xaa, 0xbb, 0xcc};
    body.field_bytes(102, blob);
  }
  return finish_frame(FrameKind::kMessage, version, std::move(body));
}

DecodeError decode_message_frame(std::span<const std::uint8_t> payload,
                                 MessageFrame* out) {
  ByteReader in(payload);
  FrameHeader header;
  if (const DecodeError err = read_frame_header(in, &header);
      err != DecodeError::kNone) {
    return err;
  }
  if (header.kind != FrameKind::kMessage) return DecodeError::kBadKind;
  *out = MessageFrame{};
  return decode_message_fields(in, out);
}

}  // namespace mot::wire
