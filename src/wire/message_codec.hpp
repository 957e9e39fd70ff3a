// The versioned wire encoding of proto::Message and the frame envelope
// every socket payload travels in (DESIGN.md §11 has the full spec).
//
// Framing:  [u32 LE payload length][u8 version][u8 kind][body]
// Body:     tagged fields, protobuf-style (tag = id << 3 | wire type),
//           ascending id order, default-valued fields omitted.
//
// Compatibility contract: within a major framing (the length/version/
// kind envelope), a decoder accepts any version >= kWireVersionMin.
// Frames from a NEWER encoder decode by skipping unknown field ids — the
// rolling-upgrade story the mixed-version interop tests exercise. A
// version below the floor (or zero) is rejected with kBadVersion before
// any field is touched.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "proto/messages.hpp"
#include "wire/codec.hpp"

namespace mot::wire {

// Version 1: message fields 1..13 (the PR-1 protocol vocabulary).
// Version 2 (current): adds the traveling walker context (op_cost,
// op_peak) that cluster mode ships between shards, plus the optional
// causal trace context (trace_id, span, span_seq) — absent unless a
// trace sink is installed, so untraced v2 bytes are unchanged.
inline constexpr std::uint8_t kWireVersionMin = 1;
inline constexpr std::uint8_t kWireVersion = 2;
// Test shim: "a build from the future" — a valid encoder whose version
// byte and extra fields (ids 100..102, one per wire type class) the
// current decoder has never seen. Exists to prove unknown-field skip.
inline constexpr std::uint8_t kWireVersionFuture = kWireVersion + 1;

// Sanity bound on a frame payload; a length prefix beyond it is
// kBadLength (never an allocation).
inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;

enum class FrameKind : std::uint8_t {
  kMessage = 1,    // one proto::Message crossing a shard boundary
  kHello = 2,      // worker -> coordinator bootstrap
  kHelloAck = 3,   // coordinator -> worker: negotiated version + peers
  kControl = 4,    // coordinator -> worker: inject an operation
  kComplete = 5,   // worker -> coordinator: an operation finished
  kProbe = 6,      // coordinator -> worker: quiescence probe
  kProbeReply = 7, // worker -> coordinator: counters at idle
  kLoadReport = 8, // worker -> coordinator: per-node storage load
  kShutdown = 9,   // coordinator -> worker: exit cleanly
  kLoopback = 10,  // transport self-delivery notification (intra-shard)
  kTelemetryReport = 11,  // worker -> coordinator: metrics snapshot
};

const char* frame_kind_name(FrameKind kind);

struct FrameHeader {
  std::uint8_t version = kWireVersion;
  FrameKind kind = FrameKind::kMessage;
};

// Bytes ahead of the body in an encoded frame: the u32 length prefix,
// the version and the kind.
inline constexpr std::size_t kFrameHeaderBytes = 6;

// A body writer that leaves room for the envelope, so finish_frame()
// completes the frame in the same buffer: one allocation for a typical
// frame, and no copy of the body.
inline ByteWriter frame_body() { return ByteWriter(kFrameHeaderBytes, 64); }

// Writes the length prefix and envelope in front of `body`, consuming
// it. A body from frame_body() is finished in place; any other writer's
// bytes are copied behind a fresh header.
std::vector<std::uint8_t> finish_frame(FrameKind kind, std::uint8_t version,
                                       ByteWriter body);

// Splits one frame off `buffer` (which starts at a length prefix).
// On kNone: *payload is the version+kind+body view and *consumed the
// total bytes eaten. kShortRead means "wait for more bytes" — it is the
// only retryable outcome. kBadLength rejects an over-long prefix.
DecodeError split_frame(std::span<const std::uint8_t> buffer,
                        std::span<const std::uint8_t>* payload,
                        std::size_t* consumed);

// Reads and validates the version + kind envelope.
DecodeError read_frame_header(ByteReader& in, FrameHeader* out);

// --- kMessage ------------------------------------------------------------

struct MessageFrame {
  proto::Message message;
  NodeId from = kInvalidNode;  // physical sender of the hop

  bool operator==(const MessageFrame&) const = default;
};

// Appends the message's tagged fields (no envelope) at `version`:
// version 1 omits the walker-context fields, kWireVersionFuture appends
// the unknown-field probes.
void encode_message_fields(const proto::Message& message,
                           std::uint8_t version, ByteWriter& out);

std::vector<std::uint8_t> encode_message_frame(
    const MessageFrame& frame, std::uint8_t version = kWireVersion);

// Decodes a full kMessage payload (version + kind + body).
DecodeError decode_message_frame(std::span<const std::uint8_t> payload,
                                 MessageFrame* out);

}  // namespace mot::wire
