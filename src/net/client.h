// ClientPool: every SU endpoint of a socket round, multiplexed into one
// epoll loop.
//
// Each SU's submission envelopes are built exactly once by the driver
// (the zero-resubmission invariant: a crashing auctioneer must never
// force an SU to re-mask, which would widen the linkage-attack window)
// and handed to the pool as cached bytes.  The pool's whole protocol is
// then:
//
//   connect → send cached location + bid → answer nacks with the same
//   cached bytes → wait for the winner announcement → done
//
// with capped exponential reconnect backoff
// (HardenedSessionConfig::backoff_ticks on the wall-tick clock) around
// every connection loss — resets, evictions, server crashes, refused
// connects while the auctioneer is rebuilding from its journal.
//
// A SocketFaultInjector, when attached, sits in the send path and
// mangles traffic at the byte level (truncate / reset / delay /
// duplicate / fragment); see socket_fault.h for the determinism and
// convergence guarantees.
#pragma once

#include <chrono>
#include <memory>
#include <vector>

#include "net/connection.h"
#include "net/event_loop.h"
#include "net/socket_fault.h"
#include "proto/round_driver.h"

namespace lppa::net {

struct ClientPoolConfig {
  Endpoint endpoint;
  /// Reconnect backoff schedule (backoff_ticks(attempt) wall ticks).
  proto::HardenedSessionConfig backoff;
  /// Wall-clock duration of one tick; keep equal to ServerConfig::tick.
  std::chrono::microseconds tick{1000};
  TransportLimits limits;
  /// Connects in flight at once — staggers a multi-thousand-SU stampede
  /// so the listener backlog never overflows.
  std::size_t max_concurrent_connects = 128;
  SocketFaultInjector* faults = nullptr;     ///< not owned; may be null
  obs::MetricsRegistry* metrics = nullptr;   ///< not owned; may be null
};

class ClientPool {
 public:
  ClientPool(ClientPoolConfig config, std::vector<proto::SuEnvelopes> sus);
  ~ClientPool();

  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  /// Drives every SU until all hold the announcement or `timeout`
  /// passes.  Callable repeatedly (progress is kept); returns all_done.
  bool run(std::chrono::milliseconds timeout);

  bool all_done() const noexcept { return done_ == peers_.size(); }
  std::size_t done_count() const noexcept { return done_; }

  /// The announcement envelope bytes (identical for every SU — the
  /// parity tests assert it); requires at least one finished SU.
  const Bytes& announcement() const;

  /// Connection attempts made after a loss (initial connects excluded).
  std::size_t reconnects() const noexcept { return reconnects_; }

  /// Latency samples in microseconds: submit = first send → first
  /// kSubmissionAck (requires ServerConfig::ack_submissions), round =
  /// pool start → announcement.
  const std::vector<double>& submit_latencies_us() const noexcept {
    return submit_us_;
  }
  const std::vector<double>& round_latencies_us() const noexcept {
    return round_us_;
  }

 private:
  struct SuPeer;

  void start_connects(SteadyClock::time_point now);
  void on_connected(SuPeer& peer, SteadyClock::time_point now);
  /// Sends one cached envelope through the fault pipeline; returns false
  /// when the fault tore the connection down (stop sending more).
  bool send_with_faults(SuPeer& peer, const Bytes& envelope_bytes,
                        SteadyClock::time_point now);
  void handle_frames(SuPeer& peer, const std::vector<Bytes>& frames,
                     SteadyClock::time_point now);
  void drop_connection(SuPeer& peer, bool abortive,
                       SteadyClock::time_point now);
  void flush_due_delays(SteadyClock::time_point now);

  ClientPoolConfig config_;
  EventLoop loop_;
  std::vector<std::unique_ptr<SuPeer>> peers_;
  struct DelayedFrame {
    SteadyClock::time_point due;
    std::size_t peer;  ///< peers_ slot
    Bytes frame;
  };
  std::vector<DelayedFrame> delayed_;
  std::size_t done_ = 0;
  std::size_t connecting_ = 0;
  std::size_t reconnects_ = 0;
  SteadyClock::time_point round_started_{};
  std::vector<double> submit_us_;
  std::vector<double> round_us_;
};

}  // namespace lppa::net
