#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

namespace lppa::net {

namespace {

std::uint32_t interest(bool want_read, bool want_write) {
  std::uint32_t ev = EPOLLRDHUP;
  if (want_read) ev |= EPOLLIN;
  if (want_write) ev |= EPOLLOUT;
  return ev;
}

}  // namespace

EventLoop::EventLoop()
    : epoll_(::epoll_create1(EPOLL_CLOEXEC)),
      wake_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (!epoll_.valid() || !wake_.valid()) {
    throw LppaError(ErrorKind::kState,
                    std::string("epoll_create1/eventfd: ") +
                        std::strerror(errno));
  }
  add(wake_.get(), kWakeToken, /*want_read=*/true, /*want_write=*/false);
}

void EventLoop::add(int fd, std::uint64_t token, bool want_read,
                    bool want_write) {
  epoll_event ev{};
  ev.events = interest(want_read, want_write);
  ev.data.u64 = token;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) < 0) {
    throw LppaError(ErrorKind::kState,
                    std::string("epoll_ctl(ADD): ") + std::strerror(errno));
  }
}

void EventLoop::mod(int fd, std::uint64_t token, bool want_read,
                    bool want_write) {
  epoll_event ev{};
  ev.events = interest(want_read, want_write);
  ev.data.u64 = token;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, fd, &ev) < 0) {
    throw LppaError(ErrorKind::kState,
                    std::string("epoll_ctl(MOD): ") + std::strerror(errno));
  }
}

void EventLoop::del(int fd) noexcept {
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr);
}

void EventLoop::wait(int timeout_ms, std::vector<Event>& out) {
  out.clear();
  std::array<epoll_event, 128> events;
  int n;
  do {
    n = ::epoll_wait(epoll_.get(), events.data(),
                     static_cast<int>(events.size()), timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    throw LppaError(ErrorKind::kState,
                    std::string("epoll_wait: ") + std::strerror(errno));
  }
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Event e;
    e.token = events[static_cast<std::size_t>(i)].data.u64;
    if (e.token == kWakeToken) {
      std::uint64_t count = 0;
      (void)::read(wake_.get(), &count, sizeof count);  // re-arm
      continue;
    }
    const std::uint32_t mask = events[static_cast<std::size_t>(i)].events;
    e.readable = (mask & EPOLLIN) != 0;
    e.writable = (mask & EPOLLOUT) != 0;
    e.hangup = (mask & (EPOLLHUP | EPOLLERR | EPOLLRDHUP)) != 0;
    out.push_back(e);
  }
}

void EventLoop::wake() noexcept {
  const std::uint64_t one = 1;
  (void)::write(wake_.get(), &one, sizeof one);  // fails only if one is pending
}

}  // namespace lppa::net
