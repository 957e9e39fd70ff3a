// Thin RAII wrappers over loopback TCP for the cluster runner: a
// listener bound to 127.0.0.1 on an ephemeral port, a blocking connect
// with retry (workers race the coordinator's accept loop at bootstrap),
// and a frame-buffered stream that speaks the length-prefixed wire
// framing of src/wire/ — bytes accumulate in a receive buffer until
// split_frame() can carve off a whole payload.
//
// Everything here is deliberately blocking-with-poll: the cluster runner
// is a single-threaded event loop per process, and poll_readable() is
// its only wait primitive.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "wire/message_codec.hpp"

namespace mot::netio {

// Owned POSIX socket descriptor; move-only.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

 private:
  int fd_ = -1;
};

// Listening socket on 127.0.0.1; port 0 picks an ephemeral port, the
// bound port is readable afterwards.
class Listener {
 public:
  // Returns false (with errno intact) if bind/listen failed.
  bool open(std::uint16_t port = 0);
  std::uint16_t port() const { return port_; }
  bool valid() const { return socket_.valid(); }
  int fd() const { return socket_.fd(); }

  // Blocking accept; invalid Socket on failure.
  Socket accept();

 private:
  Socket socket_;
  std::uint16_t port_ = 0;
};

// Blocking connect to 127.0.0.1:port, retrying for up to `timeout_ms`
// while the peer's listener is not up yet.
Socket connect_loopback(std::uint16_t port, int timeout_ms = 5000);

// Waits until at least one fd in `fds` is readable; returns the indices
// of the readable ones (empty on timeout). timeout_ms < 0 blocks.
std::vector<std::size_t> poll_readable(std::span<const int> fds,
                                       int timeout_ms);

// A connected stream carrying wire frames. Writes are blocking-complete
// (the loopback kernel buffer absorbs them); reads drain whatever the
// socket has into an internal buffer and carve complete frames off it.
class FrameStream {
 public:
  FrameStream() = default;
  explicit FrameStream(Socket socket) : socket_(std::move(socket)) {}

  bool valid() const { return socket_.valid(); }
  int fd() const { return socket_.fd(); }
  void close() { socket_.close(); }

  // Sends one encoded frame (length prefix included). Returns false if
  // the peer is gone.
  bool send(std::span<const std::uint8_t> frame);

  // Stages one encoded frame in the outgoing buffer without touching the
  // socket. Frames are length-prefixed, so the concatenation flush()
  // writes is exactly what back-to-back send() calls would have put on
  // the wire — the receiver cannot tell the difference.
  void queue(std::span<const std::uint8_t> frame);

  // Writes every queued frame in one blocking-complete send. True when
  // nothing was queued or the write completed; false if the peer is
  // gone. Counts toward bytes_sent() only here, once the bytes actually
  // leave the process.
  bool flush();

  std::size_t queued_bytes() const { return out_buffer_.size(); }

  // Pulls available bytes off the socket (non-blocking if `block` is
  // false) and, if a complete frame is buffered, copies its payload
  // (version + kind + body) into *payload. Outcomes:
  //   kNone       — one frame delivered
  //   kShortRead  — no complete frame yet (peer still writing / no data)
  //   kBadLength  — stream corrupt (desynced length prefix); fatal
  // Peer hangup with an empty buffer reports kShortRead and flips
  // closed().
  wire::DecodeError recv(std::vector<std::uint8_t>* payload, bool block);

  // The two halves of recv() for readiness-driven loops. fill() appends
  // up to one read()'s worth of bytes to the receive buffer — call it
  // without blocking once poll_readable() reported the stream; it returns
  // false on hangup or a socket error (closed() flips). take_frame()
  // carves the next whole buffered frame with no syscall: kNone,
  // kShortRead when no whole frame is buffered, or kBadLength.
  bool fill(bool block);
  wire::DecodeError take_frame(std::vector<std::uint8_t>* payload);

  bool closed() const { return closed_; }

  // Total frame bytes through this stream, for the wire stats.
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_received() const { return bytes_received_; }

 private:
  Socket socket_;
  std::vector<std::uint8_t> buffer_;
  std::vector<std::uint8_t> out_buffer_;  // queued frames awaiting flush()
  std::size_t buffer_pos_ = 0;  // consumed prefix (compacted lazily)
  bool closed_ = false;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
};

}  // namespace mot::netio
