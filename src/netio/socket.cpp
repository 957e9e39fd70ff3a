#include "netio/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace mot::netio {
namespace {

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Socket::~Socket() { close(); }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Listener::open(std::uint16_t port) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) return false;
  int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback_addr(port);
  if (::bind(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return false;
  }
  if (::listen(sock.fd(), SOMAXCONN) != 0) return false;
  socklen_t len = sizeof(addr);
  if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return false;
  }
  port_ = ntohs(addr.sin_port);
  socket_ = std::move(sock);
  return true;
}

Socket Listener::accept() {
  while (true) {
    const int fd = ::accept(socket_.fd(), nullptr, nullptr);
    if (fd >= 0) {
      set_nodelay(fd);
      return Socket(fd);
    }
    if (errno != EINTR) return Socket();
  }
}

Socket connect_loopback(std::uint16_t port, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (true) {
    Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
    if (!sock.valid()) return Socket();
    sockaddr_in addr = loopback_addr(port);
    if (::connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      set_nodelay(sock.fd());
      return sock;
    }
    if (std::chrono::steady_clock::now() >= deadline) return Socket();
    // The peer's listener may not be up yet during bootstrap.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

std::vector<std::size_t> poll_readable(std::span<const int> fds,
                                       int timeout_ms) {
  std::vector<pollfd> pfds;
  pfds.reserve(fds.size());
  for (const int fd : fds) pfds.push_back({fd, POLLIN, 0});
  while (true) {
    const int rc = ::poll(pfds.data(),
                          static_cast<nfds_t>(pfds.size()), timeout_ms);
    if (rc < 0 && errno == EINTR) continue;
    std::vector<std::size_t> ready;
    if (rc <= 0) return ready;
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) ready.push_back(i);
    }
    return ready;
  }
}

bool FrameStream::send(std::span<const std::uint8_t> frame) {
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(socket_.fd(), frame.data() + sent,
                             frame.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      closed_ = true;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  bytes_sent_ += frame.size();
  return true;
}

void FrameStream::queue(std::span<const std::uint8_t> frame) {
  out_buffer_.insert(out_buffer_.end(), frame.begin(), frame.end());
}

bool FrameStream::flush() {
  if (out_buffer_.empty()) return true;
  const bool ok = send(out_buffer_);
  out_buffer_.clear();
  return ok;
}

bool FrameStream::fill(bool block) {
  std::uint8_t chunk[16384];
  while (true) {
    const ssize_t n = ::recv(socket_.fd(), chunk, sizeof(chunk),
                             block ? 0 : MSG_DONTWAIT);
    if (n > 0) {
      buffer_.insert(buffer_.end(), chunk, chunk + n);
      bytes_received_ += static_cast<std::uint64_t>(n);
      return true;
    }
    if (n == 0) {
      closed_ = true;
      return false;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // no data
    closed_ = true;
    return false;
  }
}

wire::DecodeError FrameStream::take_frame(
    std::vector<std::uint8_t>* payload) {
  const std::span<const std::uint8_t> view{buffer_.data() + buffer_pos_,
                                           buffer_.size() - buffer_pos_};
  std::span<const std::uint8_t> frame;
  std::size_t consumed = 0;
  const wire::DecodeError err = wire::split_frame(view, &frame, &consumed);
  if (err != wire::DecodeError::kNone) return err;
  payload->assign(frame.begin(), frame.end());
  buffer_pos_ += consumed;
  // Compact once the consumed prefix dominates the buffer.
  if (buffer_pos_ > 65536 && buffer_pos_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(buffer_pos_));
    buffer_pos_ = 0;
  }
  return wire::DecodeError::kNone;
}

wire::DecodeError FrameStream::recv(std::vector<std::uint8_t>* payload,
                                    bool block) {
  while (true) {
    const wire::DecodeError err = take_frame(payload);
    if (err != wire::DecodeError::kShortRead) return err;  // frame or corrupt
    if (closed_) return wire::DecodeError::kShortRead;
    const std::size_t before = buffer_.size();
    if (!fill(block)) return wire::DecodeError::kShortRead;
    if (!block && buffer_.size() == before) {
      return wire::DecodeError::kShortRead;  // nothing new without blocking
    }
  }
}

}  // namespace mot::netio
