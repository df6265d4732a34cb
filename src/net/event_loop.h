// Thin epoll wrapper: the readiness engine under the server and the
// client pool.
//
// Level-triggered deliberately: the connection code reads/writes until
// EAGAIN anyway, and level triggering means a frame left half-processed
// (e.g. the per-burst fairness cap fired) is re-reported on the next
// wait() instead of being lost until more bytes arrive — simpler to
// reason about under fault injection than edge-triggered wakeup rules.
#pragma once

#include <cstdint>
#include <vector>

#include "net/socket.h"

namespace lppa::net {

class EventLoop {
 public:
  struct Event {
    std::uint64_t token = 0;
    bool readable = false;
    bool writable = false;
    bool hangup = false;  ///< EPOLLHUP / EPOLLERR / EPOLLRDHUP
  };

  EventLoop();

  /// Registers `fd` under `token` (returned verbatim in events); ~0 is
  /// the wake eventfd's.
  void add(int fd, std::uint64_t token, bool want_read, bool want_write);
  void mod(int fd, std::uint64_t token, bool want_read, bool want_write);
  /// Unregisters; tolerates an fd that was already closed.
  void del(int fd) noexcept;

  /// Blocks up to timeout_ms (0 = poll, <0 = forever) and fills `out`.
  /// EINTR retries internally.  A wake() ends the wait early; the wake
  /// itself is consumed here and reported as no event.
  void wait(int timeout_ms, std::vector<Event>& out);

  /// Ends the current wait(), or the next one if none is in progress,
  /// through an eventfd the loop watches.  The loop's only cross-thread
  /// entry.
  void wake() noexcept;

 private:
  Fd epoll_;
  static constexpr std::uint64_t kWakeToken = ~std::uint64_t{0};
  Fd wake_;  ///< eventfd, registered under kWakeToken
};

}  // namespace lppa::net
