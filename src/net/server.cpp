#include "net/server.h"

#include <algorithm>
#include <thread>

#include "obs/metrics.h"

namespace lppa::net {

namespace {

constexpr std::uint64_t kListenerToken = 0;
constexpr std::chrono::milliseconds kDeadlineSweep{50};

Bytes make_ack_frame(std::uint64_t su, std::uint8_t mask) {
  proto::Envelope ack;
  ack.type = proto::MessageType::kSubmissionAck;
  ack.sender = su;
  proto::SubmissionAck body;
  body.mask = mask;
  ack.payload = body.serialize();
  return encode_frame(ack.serialize());
}

template <typename T>
T& required(T* p) {
  LPPA_REQUIRE(p != nullptr, "server needs a journal and a report");
  return *p;
}

}  // namespace

struct AuctioneerServer::Peer {
  Connection conn;
  bool doomed = false;  ///< marked for eviction after the current batch

  Peer(Fd fd, std::uint64_t id, const TransportLimits& limits,
       SteadyClock::time_point now)
      : conn(std::move(fd), id, limits, now) {}
};

AuctioneerServer::AuctioneerServer(
    const core::LppaConfig& config, std::size_t num_users,
    ServerConfig& server_config, SocketRoundOptions round,
    std::vector<bool> participating, core::TrustedThirdParty& ttp,
    std::uint64_t seed, proto::RoundJournal* journal,
    proto::RoundReport* report, proto::CrashInjector* crashes,
    std::size_t start_ticks, const obs::Span* round_span)
    : server_config_(server_config),
      start_ticks_(start_ticks), ttp_service_(ttp),
      driver_(config, num_users, std::move(round), std::move(participating),
              seed, required(journal), required(report), crashes,
              server_config.metrics, round_span),
      endpoint_(server_config.endpoint) {
  LPPA_REQUIRE(server_config_.tick.count() > 0, "tick must be positive");
  listener_ = listen_on(endpoint_, server_config_.listen_backlog);
  server_config.endpoint = endpoint_;  // ephemeral port resolved
  loop_.add(listener_.get(), kListenerToken, /*want_read=*/true,
            /*want_write=*/false);
  thread_ = std::thread([this] { run_loop(); });
}

AuctioneerServer::~AuctioneerServer() {
  stop();
  if (thread_.joinable()) thread_.join();
}

void AuctioneerServer::stop() {
  stop_requested_.store(true);
  loop_.wake();
}

AuctioneerServer::Status AuctioneerServer::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return status_;
}

AuctioneerServer::Status AuctioneerServer::await_terminal() {
  std::unique_lock<std::mutex> lock(mutex_);
  status_cv_.wait(lock, [this] { return status_ != Status::kRunning; });
  return status_;
}

void AuctioneerServer::rethrow_failure() {
  std::exception_ptr failure;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    failure = failure_;
  }
  if (failure) std::rethrow_exception(failure);
  throw LppaError(ErrorKind::kState, "server failed without a stored error");
}

void AuctioneerServer::set_status(Status s) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // First terminal status wins: a publish followed by the stop-path
    // sweep must not demote kPublished to kFailed.
    if (status_ != Status::kRunning) return;
    status_ = s;
  }
  status_cv_.notify_all();
}

std::size_t AuctioneerServer::ticks_now(SteadyClock::time_point now) const {
  const auto elapsed = now - started_at_;
  return start_ticks_ +
         static_cast<std::size_t>(elapsed / server_config_.tick);
}

void AuctioneerServer::run_loop() {
  try {
    loop_body();
    set_status(Status::kFailed);  // stopped before the round completed
    std::lock_guard<std::mutex> lock(mutex_);
    if (!failure_) {
      failure_ = std::make_exception_ptr(LppaError(
          ErrorKind::kState, "server stopped before the round completed"));
    }
  } catch (const proto::CrashSignal&) {
    // The auctioneer process "died": in-memory session lost, journal
    // survives, every peer sees an RST — exactly what a kernel cleaning
    // up a dead process would send.
    ticks_used_ = ticks_now(SteadyClock::now());
    close_all_abortive();
    set_status(Status::kCrashed);
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      failure_ = std::current_exception();
    }
    ticks_used_ = ticks_now(SteadyClock::now());
    close_all_abortive();
    set_status(Status::kFailed);
  }
}

void AuctioneerServer::loop_body() {
  obs::MetricsRegistry* const m = server_config_.metrics;
  started_at_ = SteadyClock::now();
  // Churn is applied before any submission is ingested; a restart whose
  // journal already closed admission commits straight away (reconnecting
  // peers only ever redeliver, which dedupes).
  driver_.start();
  if (!driver_.admission_open()) publish_round(started_at_);
  next_wave_at_ =
      started_at_ + 2 * driver_.backoff_ticks() * server_config_.tick;

  std::vector<EventLoop::Event> events;
  std::vector<Bytes> frames;
  auto last_deadline_scan = started_at_;

  while (!stop_requested_.load()) {
    // Block until the next timer (the deadline sweep, or the next wave
    // while admission is open), rounded up so the loop never spins on a
    // zero timeout before it; stop() wakes the wait.
    auto next = last_deadline_scan + kDeadlineSweep;
    if (driver_.admission_open()) next = std::min(next, next_wave_at_);
    const auto wait_ms = std::chrono::ceil<std::chrono::milliseconds>(
        next - SteadyClock::now()).count();
    loop_.wait(static_cast<int>(std::max<std::int64_t>(wait_ms, 0)), events);
    const auto now = SteadyClock::now();

    bool accepted_any = false;
    for (const EventLoop::Event& ev : events) {
      if (ev.token == kListenerToken) {
        for (;;) {
          Fd fd = accept_on(listener_.get());
          if (!fd.valid()) break;
          if (peers_.size() >= server_config_.max_connections) {
            // Admission control: over the cap, close on sight.
            if (m != nullptr) m->counter("net.admission_rejected").inc();
            continue;  // fd destructor closes
          }
          const std::uint64_t id = next_conn_id_++;
          loop_.add(fd.get(), id, /*want_read=*/true, /*want_write=*/false);
          peers_.emplace(id, std::make_unique<Peer>(std::move(fd), id,
                                                    server_config_.limits,
                                                    now));
          if (m != nullptr) {
            m->counter("net.accepted").inc();
            m->gauge("net.connections")
                .set(static_cast<double>(peers_.size()));
          }
        }
        continue;
      }

      auto it = peers_.find(ev.token);
      if (it == peers_.end()) continue;  // evicted earlier this batch
      Peer& peer = *it->second;

      if (ev.readable || ev.hangup) {
        frames.clear();
        const Connection::Io io = peer.conn.on_readable(frames, now);
        for (const Bytes& frame : frames) {
          if (m != nullptr) m->counter("net.frames_in").inc();
          if (peer.conn.frames_received > server_config_.max_frames_per_conn) {
            peer.doomed = true;
            if (m != nullptr) m->counter("net.evicted_budget").inc();
            break;
          }
          handle_frame(peer, frame, now);
          accepted_any = true;
          if (peer.doomed) break;
        }
        if (peer.doomed) {
          evict(ev.token, /*abortive=*/false, "budget/backpressure");
          continue;
        }
        if (io == Connection::Io::kProtocolError) {
          if (m != nullptr) m->counter("net.protocol_errors").inc();
          driver_.note_rejected();
          evict(ev.token, /*abortive=*/false, "protocol");
          continue;
        }
        if (io == Connection::Io::kClosed) {
          evict(ev.token, /*abortive=*/false, "closed");
          continue;
        }
      }
      if (ev.writable) {
        if (peer.conn.on_writable(now) == Connection::Io::kClosed) {
          evict(ev.token, /*abortive=*/false, "closed");
          continue;
        }
      }
      loop_.mod(peer.conn.fd(), ev.token, /*want_read=*/true,
                peer.conn.wants_write());
    }

    // Completing the submission set runs the next wave now, which closes
    // admission without waiting for the timer.  That wave commits the
    // round on this thread for milliseconds.  An SU client on this host
    // that the last acks woke may be queued on this CPU, and the
    // scheduler lets a running thread finish its time slice (~2-3 ms)
    // before a woken one: yield once so the last ack is read first.
    if (driver_.admission_open()) {
      if (accepted_any && driver_.submissions_complete()) {
        next_wave_at_ = now;
        std::this_thread::yield();
      }
      run_wave(now);
    }

    // Slow-loris / slow-reader sweep, amortised to 20 Hz.
    if (now - last_deadline_scan >= kDeadlineSweep) {
      last_deadline_scan = now;
      std::vector<std::uint64_t> expired;
      for (const auto& [id, peer] : peers_) {
        if (peer->conn.read_deadline_expired(now) ||
            peer->conn.write_deadline_expired(now)) {
          expired.push_back(id);
        }
      }
      for (const std::uint64_t id : expired) {
        if (m != nullptr) m->counter("net.evicted_deadline").inc();
        evict(id, /*abortive=*/false, "deadline");
      }
    }
  }
  ticks_used_ = std::max(ticks_used_, ticks_now(SteadyClock::now()));
}

void AuctioneerServer::handle_frame(Peer& peer, const Bytes& frame,
                                    SteadyClock::time_point now) {
  // Published: the only service left is handing out the announcement —
  // any frame from any peer (a late joiner, a client that lost the
  // broadcast to a reset) is answered with it.
  if (!announcement_.empty()) {
    send_to_peer(peer, encode_frame(announcement_), now);
    return;
  }

  using Result = proto::AuctioneerSession::IngestResult;
  const auto verdict = driver_.on_submission(frame);
  if (verdict != Result::kAccepted && verdict != Result::kDuplicateRedelivery) {
    return;  // no binding, no ack for garbage
  }
  const std::size_t su = verdict.sender;

  // (Re)bind the SU to this connection: nacks and the announcement go to
  // the latest socket the SU spoke on.  Duplicates rebind too — after a
  // server restart the redelivered bytes are how a reconnecting client
  // re-identifies itself.
  peer.conn.bound_su = su;
  su_conn_[su] = peer.conn.id();

  if (server_config_.ack_submissions) {
    // Acked for accepted AND duplicate outcomes: under at-least-once
    // delivery the client may be waiting on the ack of a redelivery.
    const std::uint8_t mask =
        verdict.type == proto::MessageType::kLocationSubmission
            ? proto::RetransmitRequest::kLocation
            : proto::RetransmitRequest::kBid;
    send_to_peer(peer, make_ack_frame(su, mask), now);
  }
}

void AuctioneerServer::send_to_peer(Peer& peer, Bytes frame,
                                    SteadyClock::time_point now) {
  obs::MetricsRegistry* const m = server_config_.metrics;
  if (!peer.conn.enqueue(std::move(frame))) {
    // Backpressure bound hit: the peer is not draining; evict rather
    // than buffer without limit.
    peer.doomed = true;
    if (m != nullptr) m->counter("net.evicted_backpressure").inc();
    return;
  }
  if (m != nullptr) m->counter("net.frames_out").inc();
  peer.conn.on_writable(now);  // opportunistic flush; EAGAIN just parks
}

void AuctioneerServer::evict(std::uint64_t id, bool abortive,
                             const char* /*why*/) {
  auto it = peers_.find(id);
  if (it == peers_.end()) return;
  Peer& peer = *it->second;
  loop_.del(peer.conn.fd());
  if (abortive) arm_abortive_close(peer.conn.fd());
  if (peer.conn.bound_su.has_value()) {
    auto bound = su_conn_.find(*peer.conn.bound_su);
    if (bound != su_conn_.end() && bound->second == id) su_conn_.erase(bound);
  }
  peers_.erase(it);
  if (server_config_.metrics != nullptr) {
    server_config_.metrics->gauge("net.connections")
        .set(static_cast<double>(peers_.size()));
  }
}

void AuctioneerServer::close_all_abortive() {
  std::vector<std::uint64_t> ids;
  ids.reserve(peers_.size());
  for (const auto& [id, peer] : peers_) ids.push_back(id);
  for (const std::uint64_t id : ids) evict(id, /*abortive=*/true, "crash");
  listener_ = Fd();  // stop accepting; the driver rebinds on restart
}

void AuctioneerServer::run_wave(SteadyClock::time_point now) {
  if (now < next_wave_at_) return;
  const std::size_t backoff = driver_.backoff_ticks();
  const std::vector<proto::RoundDriver::Nack> nacks =
      driver_.wave(ticks_now(now));
  if (!driver_.admission_open()) {
    publish_round(now);
    return;
  }
  for (const proto::RoundDriver::Nack& nack : nacks) {
    const auto bound = su_conn_.find(nack.su);
    if (bound == su_conn_.end()) continue;  // not (re)connected yet
    const auto it = peers_.find(bound->second);
    if (it == peers_.end()) continue;
    Peer& peer = *it->second;
    send_to_peer(peer, encode_frame(nack.envelope), now);
    if (peer.doomed) {
      evict(bound->second, /*abortive=*/false, "backpressure");
    } else {
      loop_.mod(peer.conn.fd(), peer.conn.id(), /*want_read=*/true,
                peer.conn.wants_write());
    }
  }
  next_wave_at_ = now + 2 * backoff * server_config_.tick;
}

void AuctioneerServer::publish_round(SteadyClock::time_point now) {
  // The TTP is co-located: every query is answered in-process.
  for (std::vector<Bytes> queries = driver_.charge_queries(); !queries.empty();
       queries = driver_.charge_queries()) {
    for (const Bytes& query : queries) {
      driver_.on_charge_result(ttp_service_.handle(query));
    }
  }
  announcement_ = driver_.publish();
  ticks_used_ = ticks_now(now);
  set_status(Status::kPublished);

  // Push the announcement to every open connection — it is the public
  // broadcast the bus delivers to everyone, including SUs the round
  // excluded (whose connections may never have identified themselves).
  // Anyone not connected right now gets it as the reply to their next
  // frame.
  const Bytes frame = encode_frame(announcement_);
  std::vector<std::uint64_t> doomed;
  for (const auto& [id, peer_ptr] : peers_) {
    Peer& peer = *peer_ptr;
    send_to_peer(peer, frame, now);
    if (peer.doomed) {
      doomed.push_back(id);
    } else {
      loop_.mod(peer.conn.fd(), peer.conn.id(), /*want_read=*/true,
                peer.conn.wants_write());
    }
  }
  for (const std::uint64_t id : doomed) {
    evict(id, /*abortive=*/false, "backpressure");
  }
}

}  // namespace lppa::net
