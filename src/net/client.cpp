#include "net/client.h"

#include <unordered_set>

#include "obs/metrics.h"

namespace lppa::net {

struct ClientPool::SuPeer {
  enum class State : std::uint8_t {
    kBackoff,     ///< waiting for retry_at, no socket
    kConnecting,  ///< nonblocking connect in flight
    kActive,      ///< submissions sent; serving nacks / awaiting outcome
    kDone,        ///< announcement held
  };

  std::size_t su = 0;
  std::size_t slot = 0;  ///< index into peers_ (the epoll token)
  Bytes location;
  Bytes bid;

  State state = State::kBackoff;
  SteadyClock::time_point retry_at{};  ///< epoch = connect immediately
  std::size_t attempt = 0;             ///< reconnect backoff wave
  std::unique_ptr<Connection> conn;
  std::size_t seq = 0;  ///< fault-injector send-attempt counter
  bool kill_after_flush = false;  ///< truncation fault: RST once flushed

  SteadyClock::time_point first_sent{};
  bool ack_seen = false;
  Bytes announcement;
};

ClientPool::ClientPool(ClientPoolConfig config,
                       std::vector<proto::SuEnvelopes> sus)
    : config_(std::move(config)) {
  LPPA_REQUIRE(!sus.empty(), "client pool needs at least one SU");
  std::unordered_set<std::size_t> seen;
  peers_.reserve(sus.size());
  for (proto::SuEnvelopes& e : sus) {
    LPPA_REQUIRE(seen.insert(e.su).second, "duplicate SU in client pool");
    auto peer = std::make_unique<SuPeer>();
    peer->su = e.su;
    peer->slot = peers_.size();
    peer->location = std::move(e.location);
    peer->bid = std::move(e.bid);
    peers_.push_back(std::move(peer));
  }
}

ClientPool::~ClientPool() = default;

const Bytes& ClientPool::announcement() const {
  for (const auto& peer : peers_) {
    if (peer->state == SuPeer::State::kDone) return peer->announcement;
  }
  throw LppaError(ErrorKind::kState, "no SU finished the round yet");
}

void ClientPool::start_connects(SteadyClock::time_point now) {
  for (auto& peer_ptr : peers_) {
    SuPeer& peer = *peer_ptr;
    if (peer.state != SuPeer::State::kBackoff || now < peer.retry_at) {
      continue;
    }
    if (connecting_ >= config_.max_concurrent_connects) return;
    try {
      Fd fd = connect_to(config_.endpoint);
      peer.conn = std::make_unique<Connection>(std::move(fd), peer.slot,
                                               config_.limits, now);
      peer.kill_after_flush = false;
      loop_.add(peer.conn->fd(), peer.slot, /*want_read=*/true,
                /*want_write=*/true);
      peer.state = SuPeer::State::kConnecting;
      ++connecting_;
    } catch (const LppaError&) {
      // Listener gone (auctioneer mid-restart) — back off and retry.
      ++reconnects_;
      ++peer.attempt;
      peer.retry_at =
          now + config_.backoff.backoff_ticks(peer.attempt) * config_.tick;
    }
  }
}

bool ClientPool::send_with_faults(SuPeer& peer, const Bytes& envelope_bytes,
                                  SteadyClock::time_point now) {
  Bytes frame = encode_frame(envelope_bytes);
  SocketFaultDecision d;
  if (config_.faults != nullptr) {
    d = config_.faults->decide(peer.su, peer.seq++, frame.size());
  }
  using Kind = SocketFaultDecision::Kind;
  switch (d.kind) {
    case Kind::kNone:
      peer.conn->enqueue(std::move(frame));
      break;
    case Kind::kTruncate: {
      // Deliver a torn prefix, then die abortively once it flushed: the
      // server sees a half frame closed under it and must not leak any
      // partial state from it.
      Bytes prefix(frame.begin(),
                   frame.begin() + static_cast<std::ptrdiff_t>(d.cut_at));
      peer.conn->enqueue(std::move(prefix));
      peer.kill_after_flush = true;
      break;
    }
    case Kind::kReset:
      drop_connection(peer, /*abortive=*/true, now);
      return false;
    case Kind::kDelay:
      delayed_.push_back(
          {now + d.delay_ticks * config_.tick, peer.slot, std::move(frame)});
      break;
    case Kind::kDuplicate:
      peer.conn->enqueue(Bytes(frame));
      peer.conn->enqueue(std::move(frame));
      break;
    case Kind::kFragment: {
      // One send buffer per piece: the server's decoder sees the frame
      // arrive split at the seeded cut points.
      d.fragment_cuts.push_back(frame.size());
      auto from = frame.begin();
      for (const std::size_t cut : d.fragment_cuts) {
        const auto to = frame.begin() + static_cast<std::ptrdiff_t>(cut);
        peer.conn->enqueue(Bytes(from, to));
        from = to;
      }
      break;
    }
    case Kind::kMute:
      // Swallowed before the socket: the SU simply never arrives, the
      // connection stays healthy.  The wire twin of a drop=1.0 party
      // spec on the bus.
      break;
  }
  peer.conn->on_writable(now);
  if (peer.kill_after_flush && !peer.conn->wants_write()) {
    drop_connection(peer, /*abortive=*/true, now);
    return false;
  }
  return true;
}

void ClientPool::on_connected(SuPeer& peer, SteadyClock::time_point now) {
  peer.state = SuPeer::State::kActive;
  if (peer.first_sent == SteadyClock::time_point{}) peer.first_sent = now;
  // (Re)send both cached envelopes: this is what (re)binds the SU at the
  // server, and redundant halves dedupe there as benign redeliveries.
  if (!send_with_faults(peer, peer.location, now)) return;
  if (!send_with_faults(peer, peer.bid, now)) return;
  loop_.mod(peer.conn->fd(), peer.slot, /*want_read=*/true,
            peer.conn->wants_write());
}

void ClientPool::drop_connection(SuPeer& peer, bool abortive,
                                 SteadyClock::time_point now) {
  if (peer.conn != nullptr) {
    loop_.del(peer.conn->fd());
    if (abortive) arm_abortive_close(peer.conn->fd());
    peer.conn.reset();
  }
  if (peer.state == SuPeer::State::kConnecting) --connecting_;
  if (peer.state == SuPeer::State::kDone) return;
  peer.state = SuPeer::State::kBackoff;
  ++reconnects_;
  ++peer.attempt;
  peer.retry_at =
      now + config_.backoff.backoff_ticks(peer.attempt) * config_.tick;
  if (config_.metrics != nullptr) {
    config_.metrics->counter("net.client_reconnects").inc();
  }
}

void ClientPool::handle_frames(SuPeer& peer, const std::vector<Bytes>& frames,
                               SteadyClock::time_point now) {
  for (const Bytes& frame : frames) {
    std::uint8_t nack_mask = 0;
    bool is_nack = false;
    try {
      const proto::Envelope env = proto::Envelope::deserialize(frame);
      switch (env.type) {
        case proto::MessageType::kWinnerAnnouncement:
          peer.announcement = frame;
          peer.state = SuPeer::State::kDone;
          ++done_;
          round_us_.push_back(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  now - round_started_)
                  .count());
          drop_connection(peer, /*abortive=*/false, now);
          return;
        case proto::MessageType::kSubmissionAck:
          if (!peer.ack_seen) {
            peer.ack_seen = true;
            submit_us_.push_back(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    now - peer.first_sent)
                    .count());
          }
          continue;
        case proto::MessageType::kRetransmitRequest:
          is_nack = true;
          nack_mask = proto::RetransmitRequest::deserialize(env.payload).mask;
          break;
        default:
          continue;  // not addressed to the client protocol
      }
    } catch (const LppaError&) {
      // Damaged nack → full resend; over-answering is safe,
      // under-answering would stall the round (same rule as the bus SU).
      is_nack = true;
      nack_mask =
          proto::RetransmitRequest::kLocation | proto::RetransmitRequest::kBid;
    }
    if (is_nack) {
      if ((nack_mask & proto::RetransmitRequest::kLocation) != 0) {
        if (!send_with_faults(peer, peer.location, now)) return;
      }
      if ((nack_mask & proto::RetransmitRequest::kBid) != 0) {
        if (!send_with_faults(peer, peer.bid, now)) return;
      }
    }
  }
}

void ClientPool::flush_due_delays(SteadyClock::time_point now) {
  std::size_t kept = 0;
  for (DelayedFrame& d : delayed_) {
    if (d.due > now) {
      delayed_[kept++] = std::move(d);
      continue;
    }
    SuPeer& peer = *peers_[d.peer];
    if (peer.state == SuPeer::State::kActive && peer.conn != nullptr) {
      peer.conn->enqueue(std::move(d.frame));
      peer.conn->on_writable(now);
      loop_.mod(peer.conn->fd(), peer.slot, /*want_read=*/true,
                peer.conn->wants_write());
    }
    // Not active: the delayed frame dies with its connection; the
    // reconnect path resends the cached bytes anyway.
  }
  delayed_.resize(kept);
}

bool ClientPool::run(std::chrono::milliseconds timeout) {
  const auto start = SteadyClock::now();
  if (round_started_ == SteadyClock::time_point{}) round_started_ = start;
  const auto deadline = start + timeout;

  std::vector<EventLoop::Event> events;
  std::vector<Bytes> frames;
  while (!all_done()) {
    auto now = SteadyClock::now();
    if (now >= deadline) return false;
    start_connects(now);
    flush_due_delays(now);

    loop_.wait(5, events);
    now = SteadyClock::now();
    for (const EventLoop::Event& ev : events) {
      SuPeer& peer = *peers_[ev.token];
      if (peer.conn == nullptr) continue;

      if (peer.state == SuPeer::State::kConnecting) {
        if (ev.hangup || take_socket_error(peer.conn->fd()) != 0) {
          drop_connection(peer, /*abortive=*/false, now);
          continue;
        }
        if (!ev.writable) continue;
        --connecting_;
        on_connected(peer, now);
        continue;
      }
      if (peer.state != SuPeer::State::kActive) continue;

      if (ev.readable || ev.hangup) {
        frames.clear();
        const Connection::Io io = peer.conn->on_readable(frames, now);
        handle_frames(peer, frames, now);
        if (peer.state != SuPeer::State::kActive || peer.conn == nullptr) {
          continue;
        }
        if (io != Connection::Io::kOk) {
          drop_connection(peer, /*abortive=*/false, now);
          continue;
        }
      }
      if (ev.writable) {
        if (peer.conn->on_writable(now) == Connection::Io::kClosed) {
          drop_connection(peer, /*abortive=*/false, now);
          continue;
        }
        if (peer.kill_after_flush && !peer.conn->wants_write()) {
          drop_connection(peer, /*abortive=*/true, now);
          continue;
        }
      }
      loop_.mod(peer.conn->fd(), peer.slot, /*want_read=*/true,
                peer.conn->wants_write());
    }
  }
  return true;
}

}  // namespace lppa::net
