// The wire codec's contracts: golden little-endian bytes, round-trip
// fuzz with re-encode byte equality (encoding is a pure function of the
// field values), unknown-field skip (a v(N) decoder steps over v(N+1)
// fields), and hardening — truncated or corrupted input always yields a
// typed DecodeError, never UB.
#include "wire/message_codec.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"
#include "wire/codec.hpp"
#include "wire/frames.hpp"

namespace mot {
namespace {

using wire::ByteReader;
using wire::ByteWriter;
using wire::DecodeError;
using wire::FrameKind;
using wire::MessageFrame;
using wire::WireType;

using Bytes = std::vector<std::uint8_t>;

// The codec's layout assumptions, checked at compile time: tags use the
// protobuf bit layout, doubles are IEEE-754 binary64, node ids are 32
// bits wide.
static_assert(sizeof(double) == 8);
static_assert(sizeof(NodeId) == 4);
static_assert(static_cast<int>(WireType::kVarint) == 0);
static_assert(static_cast<int>(WireType::kFixed64) == 1);
static_assert(static_cast<int>(WireType::kBytes) == 2);
static_assert(static_cast<int>(WireType::kFixed32) == 5);
static_assert(wire::kWireVersionMin <= wire::kWireVersion);
static_assert(wire::kWireVersionFuture > wire::kWireVersion);

// --- Primitive codecs: golden bytes -------------------------------------

TEST(WireCodec, Fixed32IsLittleEndian) {
  ByteWriter w;
  w.fixed32(0x01020304u);
  EXPECT_EQ(w.take(), (Bytes{0x04, 0x03, 0x02, 0x01}));
}

TEST(WireCodec, Fixed64IsLittleEndian) {
  ByteWriter w;
  w.fixed64(0x0102030405060708ULL);
  EXPECT_EQ(w.take(),
            (Bytes{0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01}));
}

TEST(WireCodec, DoubleIsLittleEndianIeee754) {
  ByteWriter w;
  w.f64(1.0);  // 0x3ff0000000000000
  EXPECT_EQ(w.take(), (Bytes{0, 0, 0, 0, 0, 0, 0xf0, 0x3f}));
}

TEST(WireCodec, VarintGoldenBytes) {
  const struct {
    std::uint64_t value;
    Bytes encoded;
  } cases[] = {
      {0, {0x00}},
      {1, {0x01}},
      {127, {0x7f}},
      {128, {0x80, 0x01}},
      {300, {0xac, 0x02}},
      {~std::uint64_t{0},
       {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
  };
  for (const auto& c : cases) {
    ByteWriter w;
    w.varint(c.value);
    EXPECT_EQ(w.take(), c.encoded) << c.value;
    ByteReader r(c.encoded);
    EXPECT_EQ(r.varint(), c.value);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.at_end());
  }
}

TEST(WireCodec, ZigzagMapsSmallMagnitudesToSmallBytes) {
  const struct {
    std::int64_t value;
    Bytes encoded;
  } cases[] = {
      {0, {0x00}}, {-1, {0x01}}, {1, {0x02}}, {-2, {0x03}}, {2, {0x04}},
  };
  for (const auto& c : cases) {
    ByteWriter w;
    w.svarint(c.value);
    EXPECT_EQ(w.take(), c.encoded) << c.value;
    ByteReader r(c.encoded);
    EXPECT_EQ(r.svarint(), c.value);
  }
}

TEST(WireCodec, PrimitiveRoundTripFuzz) {
  SeedTree seeds(0xc0dec);
  Rng rng = seeds.stream("primitives");
  for (int i = 0; i < 2000; ++i) {
    // Bias toward small values (the shift makes leading zeros common),
    // where varint length boundaries live.
    const std::uint64_t u = rng() >> (rng() % 64);
    const auto s = static_cast<std::int64_t>(rng() >> (rng() % 64)) *
                   (rng.chance(0.5) ? 1 : -1);
    const double d = rng.uniform(-1e12, 1e12);
    ByteWriter w;
    w.varint(u);
    w.svarint(s);
    w.fixed32(static_cast<std::uint32_t>(u));
    w.fixed64(u);
    w.f64(d);
    const Bytes buf = w.take();
    ByteReader r(buf);
    EXPECT_EQ(r.varint(), u);
    EXPECT_EQ(r.svarint(), s);
    EXPECT_EQ(r.fixed32(), static_cast<std::uint32_t>(u));
    EXPECT_EQ(r.fixed64(), u);
    EXPECT_EQ(r.f64(), d);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.at_end());
  }
}

// --- Reader hardening ----------------------------------------------------

TEST(WireCodec, OverlongVarintIsRejected) {
  const Bytes ten_continuations(10, 0xff);
  ByteReader r(ten_continuations);
  r.varint();
  EXPECT_EQ(r.error(), DecodeError::kOverlongVarint);

  // 10 bytes, but the final byte carries more than the top bit of a
  // 64-bit value.
  const Bytes overflow{0xff, 0xff, 0xff, 0xff, 0xff,
                       0xff, 0xff, 0xff, 0xff, 0x02};
  ByteReader r2(overflow);
  r2.varint();
  EXPECT_EQ(r2.error(), DecodeError::kOverlongVarint);
}

TEST(WireCodec, TruncatedReadsLatchShortRead) {
  const Bytes three{0x01, 0x02, 0x03};
  ByteReader r(three);
  EXPECT_EQ(r.fixed32(), 0u);
  EXPECT_EQ(r.error(), DecodeError::kShortRead);
  // The error latches: further reads are safe no-ops that keep the
  // original error.
  EXPECT_EQ(r.u8(), 0);
  EXPECT_EQ(r.varint(), 0u);
  EXPECT_EQ(r.f64(), 0.0);
  EXPECT_EQ(r.error(), DecodeError::kShortRead);
}

TEST(WireCodec, LengthPrefixBeyondInputIsBadLength) {
  ByteWriter w;
  w.varint(100);  // claims 100 payload bytes
  w.u8(0xab);     // ...but only one follows
  const Bytes buf = w.take();
  ByteReader r(buf);
  EXPECT_TRUE(r.length_delimited().empty());
  EXPECT_EQ(r.error(), DecodeError::kBadLength);
}

TEST(WireCodec, UnknownWireTypeInTagIsBadTag) {
  for (const std::uint8_t bad_type : {3, 4, 6, 7}) {
    ByteWriter w;
    w.varint((1u << 3) | bad_type);
    const Bytes buf = w.take();
    ByteReader r(buf);
    std::uint32_t id = 0;
    WireType type = WireType::kVarint;
    EXPECT_FALSE(r.next_field(&id, &type));
    EXPECT_EQ(r.error(), DecodeError::kBadTag) << int(bad_type);
  }
}

// --- Message frames: round-trip fuzz -------------------------------------

proto::Message random_message(Rng& rng, proto::MsgType type) {
  proto::Message m;
  m.type = type;
  // Mix defaults in: the default-omission rule is part of the byte
  // contract, so half-populated messages must round-trip too.
  if (rng.chance(0.9)) m.object = static_cast<ObjectId>(rng() % 10000);
  if (rng.chance(0.9)) {
    m.role = {static_cast<int>(rng.uniform_int(-2, 40)),
              static_cast<NodeId>(rng() % 100000)};
  }
  if (rng.chance(0.7)) m.walk_source = static_cast<NodeId>(rng() % 100000);
  if (rng.chance(0.7)) m.walk_index = static_cast<std::uint32_t>(rng() % 64);
  if (rng.chance(0.6)) {
    m.link = {static_cast<int>(rng.uniform_int(-2, 40)),
              static_cast<NodeId>(rng() % 100000)};
  }
  if (rng.chance(0.5)) m.new_proxy = static_cast<NodeId>(rng() % 100000);
  if (rng.chance(0.5)) m.requester = static_cast<NodeId>(rng() % 100000);
  if (rng.chance(0.5)) m.query_id = rng() % 1000000;
  if (rng.chance(0.3)) m.degraded = true;
  if (rng.chance(0.3)) m.staleness = rng.uniform(0.0, 1e6);
  if (rng.chance(0.5)) m.op_cost = rng.uniform(0.0, 1e6);
  if (rng.chance(0.5)) m.op_peak = static_cast<std::int32_t>(
      rng.uniform_int(-1, 40));
  if (rng.chance(0.5)) {
    // Trace context travels together: an id plus the span/cursor pair.
    m.trace_id = rng();
    m.span = rng() % 1000;
    m.span_seq = m.span + 1 + rng() % 16;
  }
  return m;
}

TEST(WireMessage, RoundTripFuzzEveryTypeWithReencodeByteEquality) {
  SeedTree seeds(0x3117e);
  for (std::uint8_t t = 0; t < proto::kNumMsgTypes; ++t) {
    Rng rng = seeds.stream("msg", t);
    for (int i = 0; i < 200; ++i) {
      MessageFrame frame;
      frame.message = random_message(rng, static_cast<proto::MsgType>(t));
      if (rng.chance(0.9)) frame.from = static_cast<NodeId>(rng() % 100000);

      const Bytes encoded = wire::encode_message_frame(frame);

      // Frame envelope: the length prefix covers version + kind + body.
      std::span<const std::uint8_t> payload;
      std::size_t consumed = 0;
      ASSERT_EQ(wire::split_frame(encoded, &payload, &consumed),
                DecodeError::kNone);
      EXPECT_EQ(consumed, encoded.size());

      MessageFrame decoded;
      ASSERT_EQ(wire::decode_message_frame(payload, &decoded),
                DecodeError::kNone);
      EXPECT_EQ(decoded, frame) << "type " << int(t) << " iter " << i;

      // Encoding is a pure function of field values: decode -> re-encode
      // reproduces the exact bytes.
      EXPECT_EQ(wire::encode_message_frame(decoded), encoded);
    }
  }
}

TEST(WireMessage, VersionOneOmitsWalkerContext) {
  SeedTree seeds(0x01d);
  Rng rng = seeds.stream("v1");
  MessageFrame frame;
  frame.message = random_message(rng, proto::MsgType::kInsert);
  frame.message.op_cost = 123.5;
  frame.message.op_peak = 7;
  frame.message.trace_id = 0xfeedULL;
  frame.message.span = 3;
  frame.message.span_seq = 4;

  const Bytes v1 = wire::encode_message_frame(frame, 1);
  std::span<const std::uint8_t> payload;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::split_frame(v1, &payload, &consumed), DecodeError::kNone);
  MessageFrame decoded;
  ASSERT_EQ(wire::decode_message_frame(payload, &decoded),
            DecodeError::kNone);
  // Everything round-trips except the v2 fields, which v1 cannot carry.
  EXPECT_EQ(decoded.message.op_cost, 0.0);
  EXPECT_EQ(decoded.message.op_peak, 0);
  EXPECT_EQ(decoded.message.trace_id, 0u);
  EXPECT_EQ(decoded.message.span, 0u);
  EXPECT_EQ(decoded.message.span_seq, 0u);
  decoded.message.op_cost = frame.message.op_cost;
  decoded.message.op_peak = frame.message.op_peak;
  decoded.message.trace_id = frame.message.trace_id;
  decoded.message.span = frame.message.span;
  decoded.message.span_seq = frame.message.span_seq;
  EXPECT_EQ(decoded, frame);
}

TEST(WireMessage, UntracedMessagesEncodeIdenticallyToPreTracingBytes) {
  // Tracing is omitted-by-default: a message with zero trace context
  // must produce the same v2 bytes it did before the fields existed, so
  // untraced clusters stay bit-identical (golden frames unchanged).
  SeedTree seeds(0x0b5);
  Rng rng = seeds.stream("untraced");
  for (int i = 0; i < 100; ++i) {
    MessageFrame frame;
    frame.message = random_message(
        rng, static_cast<proto::MsgType>(rng() % proto::kNumMsgTypes));
    frame.from = static_cast<NodeId>(rng() % 100000);
    MessageFrame untraced = frame;
    untraced.message.trace_id = 0;
    untraced.message.span = 0;
    untraced.message.span_seq = 0;
    const Bytes bytes = wire::encode_message_frame(untraced);
    if (frame.message.trace_id != 0) {
      EXPECT_LT(bytes.size(),
                wire::encode_message_frame(frame).size());
    }
    // No tag in the 16..18 range survives zeroing: the decoded message
    // equals a message that never had the fields.
    std::span<const std::uint8_t> payload;
    std::size_t consumed = 0;
    ASSERT_EQ(wire::split_frame(bytes, &payload, &consumed),
              DecodeError::kNone);
    MessageFrame decoded;
    ASSERT_EQ(wire::decode_message_frame(payload, &decoded),
              DecodeError::kNone);
    EXPECT_EQ(decoded, untraced);
  }
}

TEST(WireMessage, CurrentDecoderSkipsFutureFields) {
  // The "build from the future" shim appends three fields (one per wire
  // type class) under ids no shipped decoder knows; today's decoder must
  // step over them and still produce the identical message.
  SeedTree seeds(0xf07012e);
  Rng rng = seeds.stream("future");
  for (int i = 0; i < 100; ++i) {
    MessageFrame frame;
    frame.message = random_message(
        rng, static_cast<proto::MsgType>(rng() % proto::kNumMsgTypes));
    frame.from = static_cast<NodeId>(rng() % 100000);

    const Bytes future =
        wire::encode_message_frame(frame, wire::kWireVersionFuture);
    const Bytes current = wire::encode_message_frame(frame);
    EXPECT_GT(future.size(), current.size());  // the probes are real bytes

    std::span<const std::uint8_t> payload;
    std::size_t consumed = 0;
    ASSERT_EQ(wire::split_frame(future, &payload, &consumed),
              DecodeError::kNone);
    MessageFrame decoded;
    ASSERT_EQ(wire::decode_message_frame(payload, &decoded),
              DecodeError::kNone);
    EXPECT_EQ(decoded, frame);
  }
}

TEST(WireMessage, OutOfDomainTypeIsBadValue) {
  ByteWriter body;
  body.field_varint(1, proto::kNumMsgTypes);  // field 1 = MsgType
  const Bytes frame = wire::finish_frame(FrameKind::kMessage,
                                         wire::kWireVersion,
                                         std::move(body));
  std::span<const std::uint8_t> payload;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::split_frame(frame, &payload, &consumed),
            DecodeError::kNone);
  MessageFrame decoded;
  EXPECT_EQ(wire::decode_message_frame(payload, &decoded),
            DecodeError::kBadValue);
}

TEST(WireMessage, EnvelopeRejectsBadVersionAndKind) {
  {
    const Bytes frame =
        wire::finish_frame(FrameKind::kMessage, 0, ByteWriter{});
    std::span<const std::uint8_t> payload;
    std::size_t consumed = 0;
    ASSERT_EQ(wire::split_frame(frame, &payload, &consumed),
              DecodeError::kNone);
    MessageFrame decoded;
    EXPECT_EQ(wire::decode_message_frame(payload, &decoded),
              DecodeError::kBadVersion);
  }
  {
    const Bytes payload{wire::kWireVersion, 99};  // unknown kind
    ByteReader r(payload);
    wire::FrameHeader header;
    EXPECT_EQ(wire::read_frame_header(r, &header), DecodeError::kBadKind);
  }
  {
    // A kControl payload fed to the kMessage decoder is a kind mismatch.
    const Bytes frame = wire::encode_control({});
    std::span<const std::uint8_t> payload;
    std::size_t consumed = 0;
    ASSERT_EQ(wire::split_frame(frame, &payload, &consumed),
              DecodeError::kNone);
    MessageFrame decoded;
    EXPECT_EQ(wire::decode_message_frame(payload, &decoded),
              DecodeError::kBadKind);
  }
}

TEST(WireMessage, OversizedLengthPrefixIsBadLength) {
  ByteWriter w;
  w.fixed32(wire::kMaxFramePayload + 1);
  w.u8(wire::kWireVersion);
  w.u8(static_cast<std::uint8_t>(FrameKind::kMessage));
  const Bytes buf = w.take();
  std::span<const std::uint8_t> payload;
  std::size_t consumed = 0;
  EXPECT_EQ(wire::split_frame(buf, &payload, &consumed),
            DecodeError::kBadLength);
}

// --- Truncation / corruption hardening -----------------------------------

TEST(WireHardening, EveryTruncationYieldsTypedErrorNeverCrash) {
  SeedTree seeds(0x72c);
  Rng rng = seeds.stream("trunc");
  for (int i = 0; i < 50; ++i) {
    MessageFrame frame;
    frame.message = random_message(
        rng, static_cast<proto::MsgType>(rng() % proto::kNumMsgTypes));
    frame.from = static_cast<NodeId>(rng() % 100000);
    const Bytes encoded = wire::encode_message_frame(frame);

    // Truncate the raw frame at every length: split_frame must report
    // kShortRead (wait for more bytes) everywhere below the full size.
    for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
      const std::span<const std::uint8_t> view(encoded.data(), cut);
      std::span<const std::uint8_t> payload;
      std::size_t consumed = 0;
      EXPECT_EQ(wire::split_frame(view, &payload, &consumed),
                DecodeError::kShortRead);
    }

    // Truncate the *payload* at every length past the envelope: the
    // decoder must come back with a typed error, never UB (the asan/ubsan
    // CI stage runs this very loop under sanitizers).
    std::span<const std::uint8_t> payload;
    std::size_t consumed = 0;
    ASSERT_EQ(wire::split_frame(encoded, &payload, &consumed),
              DecodeError::kNone);
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      MessageFrame decoded;
      const DecodeError err =
          wire::decode_message_frame(payload.first(cut), &decoded);
      if (cut < 2) {
        EXPECT_EQ(err, DecodeError::kShortRead);
      }
      // Longer prefixes may happen to end on a field boundary (kNone) or
      // die inside a value; either way it returned, typed, without UB.
    }
  }
}

TEST(WireHardening, RandomCorruptionNeverCrashes) {
  SeedTree seeds(0xbad);
  Rng rng = seeds.stream("corrupt");
  for (int i = 0; i < 300; ++i) {
    MessageFrame frame;
    frame.message = random_message(
        rng, static_cast<proto::MsgType>(rng() % proto::kNumMsgTypes));
    Bytes encoded = wire::encode_message_frame(frame);
    std::span<const std::uint8_t> payload;
    std::size_t consumed = 0;
    ASSERT_EQ(wire::split_frame(encoded, &payload, &consumed),
              DecodeError::kNone);

    // Flip 1..4 random bytes of the payload (past the length prefix so
    // the carve stays in place) and decode: any outcome is legal except
    // a crash or sanitizer report.
    Bytes mutated(payload.begin(), payload.end());
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      mutated[rng() % mutated.size()] ^=
          static_cast<std::uint8_t>(1u << (rng() % 8));
    }
    MessageFrame decoded;
    (void)wire::decode_message_frame(mutated, &decoded);
  }
}

TEST(WireHardening, PureGarbageDecodesToTypedErrors) {
  SeedTree seeds(0x6a7ba6e);
  Rng rng = seeds.stream("garbage");
  for (int i = 0; i < 500; ++i) {
    Bytes garbage(rng() % 64);
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng());
    MessageFrame decoded;
    (void)wire::decode_message_frame(garbage, &decoded);
    wire::HelloFrame hello;
    (void)wire::decode_hello(garbage, &hello);
    wire::ControlFrame control;
    (void)wire::decode_control(garbage, &control);
    wire::CompleteFrame complete;
    (void)wire::decode_complete(garbage, &complete);
    wire::LoadReportFrame report;
    (void)wire::decode_load_report(garbage, &report);
  }
}

// --- Control-plane frames -------------------------------------------------

// Strips the length prefix: encode_* emits a full frame, decode_* takes
// the carved payload (what FrameStream::recv hands the cluster runner).
Bytes body_of(const Bytes& framed) {
  std::span<const std::uint8_t> payload;
  std::size_t consumed = 0;
  EXPECT_EQ(wire::split_frame(framed, &payload, &consumed),
            DecodeError::kNone);
  EXPECT_EQ(consumed, framed.size());
  return Bytes(payload.begin(), payload.end());
}

TEST(WireFrames, ControlPlaneRoundTrips) {
  SeedTree seeds(0xc7a1);
  Rng rng = seeds.stream("frames");
  for (int i = 0; i < 200; ++i) {
    wire::HelloFrame hello;
    hello.shard = static_cast<std::uint32_t>(rng() % 64);
    hello.num_shards = hello.shard + 1 + static_cast<std::uint32_t>(rng() % 8);
    hello.listen_port = static_cast<std::uint32_t>(rng() % 65536);
    hello.wire_min = 1;
    hello.wire_max = static_cast<std::uint8_t>(2 + rng() % 3);
    hello.node_map_hash = rng();
    hello.num_nodes = rng() % 100000;
    wire::HelloFrame hello2;
    ASSERT_EQ(wire::decode_hello(body_of(wire::encode_hello(hello)), &hello2),
              DecodeError::kNone);
    EXPECT_EQ(hello2, hello);

    wire::HelloAckFrame ack;
    ack.version = static_cast<std::uint8_t>(1 + rng() % 4);
    for (std::uint64_t p = rng() % 6; p > 0; --p) {
      ack.peer_ports.push_back(static_cast<std::uint32_t>(rng() % 65536));
    }
    wire::HelloAckFrame ack2;
    ASSERT_EQ(wire::decode_hello_ack(body_of(wire::encode_hello_ack(ack)), &ack2),
              DecodeError::kNone);
    EXPECT_EQ(ack2, ack);

    wire::ControlFrame control;
    control.op = static_cast<wire::ClusterOp>(1 + rng() % 6);
    control.object = static_cast<ObjectId>(rng() % 10000);
    control.node = static_cast<NodeId>(rng() % 100000);
    control.query_id = rng() % 1000000;
    wire::ControlFrame control2;
    ASSERT_EQ(wire::decode_control(body_of(wire::encode_control(control)), &control2),
              DecodeError::kNone);
    EXPECT_EQ(control2, control);

    wire::CompleteFrame complete;
    complete.op = static_cast<wire::ClusterOp>(1 + rng() % 5);
    complete.object = static_cast<ObjectId>(rng() % 10000);
    complete.query_id = rng() % 1000000;
    complete.found = rng.chance(0.5);
    complete.proxy = static_cast<NodeId>(rng() % 100000);
    complete.cost = rng.uniform(0.0, 1e6);
    complete.level = static_cast<std::int32_t>(rng.uniform_int(-1, 40));
    complete.degraded = rng.chance(0.2);
    complete.staleness = rng.uniform(0.0, 100.0);
    wire::CompleteFrame complete2;
    ASSERT_EQ(
        wire::decode_complete(body_of(wire::encode_complete(complete)), &complete2),
        DecodeError::kNone);
    EXPECT_EQ(complete2, complete);

    // Per-link counts: empty vectors (omitted fields) and full-range
    // values alike.
    wire::ProbeReplyFrame reply;
    reply.token = rng();
    for (std::uint64_t n = rng() % 6; n > 0; --n) {
      reply.sent.push_back(rng.chance(0.5) ? rng() % 1000 : rng());
    }
    for (std::uint64_t n = rng() % 6; n > 0; --n) {
      reply.received.push_back(rng.chance(0.5) ? rng() % 1000 : rng());
    }
    wire::ProbeReplyFrame reply2;
    ASSERT_EQ(wire::decode_probe_reply(body_of(wire::encode_probe_reply(reply)),
                                       &reply2),
              DecodeError::kNone);
    EXPECT_EQ(reply2, reply);

    wire::LoadReportFrame report;
    for (std::uint64_t n = rng() % 20; n > 0; --n) {
      report.loads.push_back(rng() % 1000);
    }
    report.meter_total = rng.uniform(0.0, 1e9);
    wire::LoadReportFrame report2;
    ASSERT_EQ(wire::decode_load_report(body_of(wire::encode_load_report(report)),
                                       &report2),
              DecodeError::kNone);
    EXPECT_EQ(report2, report);

    wire::LoopbackFrame loop{.seq = rng()};
    wire::LoopbackFrame loop2;
    ASSERT_EQ(wire::decode_loopback(body_of(wire::encode_loopback(loop)), &loop2),
              DecodeError::kNone);
    EXPECT_EQ(loop2, loop);
  }
}

TEST(WireFrames, ControlOpOutOfRangeIsBadValue) {
  ByteWriter body;
  body.field_varint(1, 99);  // field 1 = ClusterOp
  const Bytes frame = wire::finish_frame(FrameKind::kControl,
                                         wire::kWireVersion,
                                         std::move(body));
  wire::ControlFrame control;
  EXPECT_EQ(wire::decode_control(body_of(frame), &control),
            DecodeError::kBadValue);
}

TEST(WireFrames, TelemetryReportRoundTripsEveryMetricKind) {
  SeedTree seeds(0x7e1e);
  Rng rng = seeds.stream("telemetry");
  for (int i = 0; i < 100; ++i) {
    wire::TelemetryReportFrame report;
    report.shard = static_cast<std::uint32_t>(rng() % 16);
    obs::MetricSnapshot counter;
    counter.name = "mot_cost_messages_total";
    counter.kind = obs::MetricKind::kCounter;
    counter.counter_value = rng() % 1000000;
    if (rng.chance(0.5)) counter.labels = {{"shard", "3"}, {"op", "move"}};
    report.metrics.push_back(counter);
    obs::MetricSnapshot gauge;
    gauge.name = "mot_cost_distance_total";
    gauge.kind = obs::MetricKind::kGauge;
    gauge.gauge_value = rng.uniform(-1e6, 1e6);
    report.metrics.push_back(gauge);
    obs::MetricSnapshot histogram;
    histogram.name = "mot_latency";
    histogram.kind = obs::MetricKind::kHistogram;
    for (std::uint64_t b = 1 + rng() % 5; b > 0; --b) {
      histogram.bounds.push_back(rng.uniform(0.0, 1e3));
    }
    for (std::size_t b = 0; b <= histogram.bounds.size(); ++b) {
      histogram.buckets.push_back(rng() % 100);
    }
    histogram.sum = rng.uniform(0.0, 1e6);
    histogram.count = rng() % 100000;
    report.metrics.push_back(histogram);
    // Defaults must be omittable too: an all-zero counter.
    obs::MetricSnapshot zero;
    zero.name = "mot_zero";
    report.metrics.push_back(zero);

    const Bytes encoded = wire::encode_telemetry_report(report);
    wire::TelemetryReportFrame decoded;
    ASSERT_EQ(wire::decode_telemetry_report(body_of(encoded), &decoded),
              DecodeError::kNone);
    EXPECT_EQ(decoded, report);
    EXPECT_EQ(wire::encode_telemetry_report(decoded), encoded);
  }
}

TEST(WireFrames, TelemetryRejectsBadKindAndBucketMismatch) {
  {
    // Metric kind beyond kHistogram is out of domain.
    ByteWriter metric;
    metric.field_varint(1, 9);  // field 1 = MetricKind
    ByteWriter body;
    body.field_bytes(2, metric.take());  // field 2 = repeated metric
    const Bytes frame = wire::finish_frame(FrameKind::kTelemetryReport,
                                           wire::kWireVersion,
                                           std::move(body));
    wire::TelemetryReportFrame report;
    EXPECT_EQ(wire::decode_telemetry_report(body_of(frame), &report),
              DecodeError::kBadValue);
  }
  {
    // A histogram must carry exactly bounds+1 buckets.
    wire::TelemetryReportFrame report;
    obs::MetricSnapshot histogram;
    histogram.name = "h";
    histogram.kind = obs::MetricKind::kHistogram;
    histogram.bounds = {1.0, 2.0};
    histogram.buckets = {1, 2};  // one short
    report.metrics.push_back(histogram);
    const Bytes frame = wire::encode_telemetry_report(report);
    wire::TelemetryReportFrame decoded;
    EXPECT_EQ(wire::decode_telemetry_report(body_of(frame), &decoded),
              DecodeError::kBadValue);
  }
}

TEST(WireFrames, ShutdownIsABareEnvelope) {
  const Bytes frame = wire::encode_shutdown();
  std::span<const std::uint8_t> payload;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::split_frame(frame, &payload, &consumed),
            DecodeError::kNone);
  ByteReader r(payload);
  wire::FrameHeader header;
  ASSERT_EQ(wire::read_frame_header(r, &header), DecodeError::kNone);
  EXPECT_EQ(header.kind, FrameKind::kShutdown);
  EXPECT_TRUE(r.at_end());
}

TEST(WireFrames, NamesAreStable) {
  EXPECT_STREQ(wire::frame_kind_name(FrameKind::kMessage), "message");
  EXPECT_STREQ(wire::frame_kind_name(FrameKind::kLoopback), "loopback");
  EXPECT_STREQ(wire::frame_kind_name(FrameKind::kTelemetryReport),
               "telemetry-report");
  EXPECT_STREQ(wire::decode_error_name(DecodeError::kNone), "none");
  EXPECT_STREQ(wire::cluster_op_name(wire::ClusterOp::kQuery), "query");
  EXPECT_STREQ(wire::cluster_op_name(wire::ClusterOp::kReportTelemetry),
               "report-telemetry");
}

TEST(WireFrames, EveryFrameKindAndClusterOpHasAName) {
  // The name tables are switch-based and the wire library compiles with
  // -Wswitch-enum, so a new enumerator that misses a case fails the
  // build; this guards the complementary property that no enumerator
  // falls back to the catch-all.
  for (std::uint8_t k = 1; k <= static_cast<std::uint8_t>(
                                    FrameKind::kTelemetryReport);
       ++k) {
    EXPECT_STRNE(wire::frame_kind_name(static_cast<FrameKind>(k)),
                 "unknown")
        << "FrameKind " << int(k);
  }
  for (std::uint8_t op = 1; op <= static_cast<std::uint8_t>(
                                      wire::ClusterOp::kReportTelemetry);
       ++op) {
    EXPECT_STRNE(wire::cluster_op_name(static_cast<wire::ClusterOp>(op)),
                 "unknown")
        << "ClusterOp " << int(op);
  }
}

TEST(WireFrames, SplitFrameCarvesBackToBackFrames) {
  const Bytes a = wire::encode_probe({.token = 7});
  const Bytes b = wire::encode_shutdown();
  Bytes joined = a;
  joined.insert(joined.end(), b.begin(), b.end());

  std::span<const std::uint8_t> payload;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::split_frame(joined, &payload, &consumed),
            DecodeError::kNone);
  wire::ProbeFrame probe;
  ASSERT_EQ(wire::decode_probe(payload, &probe), DecodeError::kNone);
  EXPECT_EQ(probe.token, 7u);

  const std::span<const std::uint8_t> rest(joined.data() + consumed,
                                           joined.size() - consumed);
  ASSERT_EQ(wire::split_frame(rest, &payload, &consumed),
            DecodeError::kNone);
  ByteReader r(payload);
  wire::FrameHeader header;
  ASSERT_EQ(wire::read_frame_header(r, &header), DecodeError::kNone);
  EXPECT_EQ(header.kind, FrameKind::kShutdown);
}

}  // namespace
}  // namespace mot
