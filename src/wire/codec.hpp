// Primitive binary codecs for the wire protocol (DESIGN.md §11).
//
// Everything multi-byte on the wire is little-endian and serialized via
// explicit byte shifts — never by memcpy'ing a struct — so encoded bytes
// are identical on any host regardless of its endianness or padding.
// Integers use LEB128 varints (small values dominate: node ids on small
// networks, walk indices, levels) with a zigzag variant for signed
// fields; doubles and 32-bit node ids use fixed-width encodings.
//
// Error model: a ByteReader is a monad over a byte span. The first
// malformed read latches a typed DecodeError; every subsequent read
// returns a safe default without touching memory, so decoding untrusted
// bytes can never crash or invoke UB — the caller checks ok() once at
// the end. This is what the truncation/corruption fuzz tests lock in.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace mot::wire {

enum class DecodeError : std::uint8_t {
  kNone = 0,
  kShortRead,       // input ended inside a value
  kOverlongVarint,  // varint ran past 10 bytes (or overflowed 64 bits)
  kBadTag,          // unknown wire type in a field tag
  kBadLength,       // length prefix exceeds the frame / sanity bound
  kBadVersion,      // frame version below the supported floor (or zero)
  kBadKind,         // unknown frame kind
  kBadValue,        // field decoded but the value is out of domain
  kTrailingBytes,   // payload has bytes after the last field
};

const char* decode_error_name(DecodeError error);

// Field wire types (three low bits of the tag, protobuf layout:
// tag = field_id << 3 | wire_type).
enum class WireType : std::uint8_t {
  kVarint = 0,
  kFixed64 = 1,
  kBytes = 2,  // length-delimited
  kFixed32 = 5,
};

class ByteWriter {
 public:
  ByteWriter() = default;

  // A writer whose buffer starts with `headroom` zero bytes that size()
  // and data() skip: room for an envelope written in place later (see
  // finish_frame). Reserving `capacity` bytes up front makes a typical
  // frame one allocation.
  ByteWriter(std::size_t headroom, std::size_t capacity)
      : headroom_(headroom) {
    out_.reserve(std::max(headroom, capacity));
    out_.resize(headroom);
  }

  void u8(std::uint8_t value) { out_.push_back(value); }

  void varint(std::uint64_t value) {
    while (value >= 0x80) {
      out_.push_back(static_cast<std::uint8_t>(value) | 0x80);
      value >>= 7;
    }
    out_.push_back(static_cast<std::uint8_t>(value));
  }

  // Zigzag-mapped signed varint: small magnitudes stay small either sign.
  void svarint(std::int64_t value) {
    const auto u = static_cast<std::uint64_t>(value);
    varint((u << 1) ^ static_cast<std::uint64_t>(value >> 63));
  }

  void fixed32(std::uint32_t value) {
    out_.push_back(static_cast<std::uint8_t>(value));
    out_.push_back(static_cast<std::uint8_t>(value >> 8));
    out_.push_back(static_cast<std::uint8_t>(value >> 16));
    out_.push_back(static_cast<std::uint8_t>(value >> 24));
  }

  void fixed64(std::uint64_t value) {
    fixed32(static_cast<std::uint32_t>(value));
    fixed32(static_cast<std::uint32_t>(value >> 32));
  }

  void f64(double value);

  void bytes(std::span<const std::uint8_t> data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }

  // --- Tagged fields (ascending id order is the encoder's contract). ---
  void tag(std::uint32_t field_id, WireType type) {
    varint((static_cast<std::uint64_t>(field_id) << 3) |
           static_cast<std::uint64_t>(type));
  }
  void field_varint(std::uint32_t id, std::uint64_t value) {
    tag(id, WireType::kVarint);
    varint(value);
  }
  void field_svarint(std::uint32_t id, std::int64_t value) {
    tag(id, WireType::kVarint);
    svarint(value);
  }
  void field_fixed32(std::uint32_t id, std::uint32_t value) {
    tag(id, WireType::kFixed32);
    fixed32(value);
  }
  void field_fixed64(std::uint32_t id, std::uint64_t value) {
    tag(id, WireType::kFixed64);
    fixed64(value);
  }
  void field_f64(std::uint32_t id, double value);
  void field_bytes(std::uint32_t id, std::span<const std::uint8_t> data) {
    tag(id, WireType::kBytes);
    varint(data.size());
    bytes(data);
  }

  // Bytes written after the headroom.
  std::size_t size() const { return out_.size() - headroom_; }
  std::span<const std::uint8_t> data() const {
    return std::span<const std::uint8_t>(out_).subspan(headroom_);
  }
  std::size_t headroom() const { return headroom_; }
  // The whole buffer, headroom included.
  std::vector<std::uint8_t> take() {
    headroom_ = 0;
    return std::move(out_);
  }

 private:
  std::vector<std::uint8_t> out_;
  std::size_t headroom_ = 0;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  bool ok() const { return error_ == DecodeError::kNone; }
  DecodeError error() const { return error_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return !ok() || remaining() == 0; }

  // Latches the first failure; later calls keep the original error.
  void fail(DecodeError error) {
    if (error_ == DecodeError::kNone) error_ = error;
  }

  std::uint8_t u8() {
    if (!require(1)) return 0;
    return data_[pos_++];
  }

  std::uint64_t varint() {
    std::uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (!require(1)) return 0;
      const std::uint8_t byte = data_[pos_++];
      value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        // The 10th byte may only carry the top bit of the 64-bit value.
        if (shift == 63 && byte > 1) {
          fail(DecodeError::kOverlongVarint);
          return 0;
        }
        return value;
      }
    }
    fail(DecodeError::kOverlongVarint);
    return 0;
  }

  std::int64_t svarint() {
    const std::uint64_t u = varint();
    return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
  }

  std::uint32_t fixed32() {
    if (!require(4)) return 0;
    const std::uint32_t value =
        static_cast<std::uint32_t>(data_[pos_]) |
        (static_cast<std::uint32_t>(data_[pos_ + 1]) << 8) |
        (static_cast<std::uint32_t>(data_[pos_ + 2]) << 16) |
        (static_cast<std::uint32_t>(data_[pos_ + 3]) << 24);
    pos_ += 4;
    return value;
  }

  std::uint64_t fixed64() {
    const std::uint64_t lo = fixed32();
    const std::uint64_t hi = fixed32();
    return lo | (hi << 32);
  }

  double f64();

  std::span<const std::uint8_t> bytes(std::size_t length) {
    if (!require(length)) return {};
    const auto view = data_.subspan(pos_, length);
    pos_ += length;
    return view;
  }

  // Length-delimited payload with its varint length prefix. The length
  // is validated against the remaining input (an over-long prefix is
  // kBadLength, not a huge allocation).
  std::span<const std::uint8_t> length_delimited() {
    const std::uint64_t length = varint();
    if (!ok()) return {};
    if (length > remaining()) {
      fail(DecodeError::kBadLength);
      return {};
    }
    return bytes(static_cast<std::size_t>(length));
  }

  // Reads the next field tag. Returns false (without error) at a clean
  // end of input; false with an error latched on malformed tags.
  bool next_field(std::uint32_t* field_id, WireType* type) {
    if (at_end()) return false;
    const std::uint64_t tag = varint();
    if (!ok()) return false;
    const auto raw_type = static_cast<std::uint8_t>(tag & 0x7);
    switch (raw_type) {
      case 0:
      case 1:
      case 2:
      case 5:
        break;
      default:
        fail(DecodeError::kBadTag);
        return false;
    }
    *field_id = static_cast<std::uint32_t>(tag >> 3);
    *type = static_cast<WireType>(raw_type);
    return true;
  }

  // Skips one field's value — how a v(N) decoder steps over a v(N+1)
  // field it does not know.
  void skip(WireType type) {
    switch (type) {
      case WireType::kVarint:
        varint();
        break;
      case WireType::kFixed64:
        fixed64();
        break;
      case WireType::kBytes:
        length_delimited();
        break;
      case WireType::kFixed32:
        fixed32();
        break;
    }
  }

 private:
  bool require(std::size_t count) {
    if (!ok()) return false;
    if (remaining() < count) {
      fail(DecodeError::kShortRead);
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  DecodeError error_ = DecodeError::kNone;
};

}  // namespace mot::wire
