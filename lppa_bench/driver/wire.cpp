#include "driver/wire.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>

#include "common/thread_pool.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "proto/journal.h"
#include "proto/session.h"

namespace lppa::bench_driver {

namespace {

/// Retry budget of both transports.  The open-loop client releases SUs
/// over a few hundred milliseconds while the server's nack waves start
/// after 2 ms and double; 64 waves (capped at 4096 ticks each) outlast
/// any round here, so a fault-free round never excludes an SU that is
/// merely not due yet.
proto::HardenedSessionConfig wire_hardened() {
  proto::HardenedSessionConfig hardened;
  hardened.max_retries = 64;
  return hardened;
}

struct ClientConn {
  net::Fd fd;
  net::FrameDecoder decoder;
  Bytes out;
  std::size_t out_pos = 0;
  bool open = true;
  bool announced = false;
};

/// Writes queued bytes until the socket would block.  False when the
/// connection failed.
bool flush(ClientConn& c) {
  while (c.out_pos < c.out.size()) {
    const ssize_t sent = ::send(c.fd.get(), c.out.data() + c.out_pos,
                                c.out.size() - c.out_pos, MSG_NOSIGNAL);
    if (sent > 0) {
      c.out_pos += static_cast<std::size_t>(sent);
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (sent < 0 && errno == EINTR) continue;
    return false;
  }
  c.out.clear();
  c.out_pos = 0;
  return true;
}

}  // namespace

WireWorld make_wire_world(const core::LppaConfig& config, PlainWorld world,
                          std::uint64_t ttp_seed, std::uint64_t round_seed) {
  WireWorld w;
  w.config = config;
  w.seed = round_seed;
  w.world = std::move(world);
  w.ttp.emplace(config.bid, ttp_seed, config.charging_rule);
  const core::SuKeyBundle keys = w.ttp->su_keys();
  const std::size_t n = w.world.locations.size();
  Rng boot(round_seed);
  Rng su_master = boot.fork();
  for (std::size_t u = 0; u < n; ++u) {
    Rng su_rng = su_master.fork();
    const proto::SuClient client(u, config, keys);
    const auto t0 = Clock::now();
    const Bytes location = client.location_envelope(w.world.locations[u], su_rng);
    const Bytes bid = client.bid_envelope(w.world.bids[u], su_rng);
    w.mask_ms += ms_between(t0, Clock::now());
    w.location_frames.push_back(net::encode_frame(location));
    w.bid_frames.push_back(net::encode_frame(bid));
    w.wire_bytes += w.location_frames.back().size() + w.bid_frames.back().size();
  }
  return w;
}

BusRound run_bus_round(WireWorld& world) {
  proto::MessageBus bus;
  proto::RecoverableSessionConfig recov;
  recov.hardened = wire_hardened();
  const auto t0 = Clock::now();
  const proto::RecoverableWireResult r = proto::run_recoverable_wire_auction(
      world.config, *world.ttp, world.world.locations, world.world.bids, bus,
      world.seed, recov);
  BusRound out;
  out.ms = ms_between(t0, Clock::now());
  out.announcement = r.announcement;
  out.excluded = r.report.excluded.size();
  return out;
}

SocketRound run_socket_round(WireWorld& world, double rate,
                             obs::MetricsRegistry* registry,
                             obs::MetricsRegistry* trace) {
  const std::size_t n = world.world.locations.size();
  const std::size_t conns = ThreadPool::hardware_threads();
  SocketRound out;
  out.submit_ack_us.assign(n, 0.0);
  out.late_us.reserve(n);

  net::ServerConfig server_config;
  server_config.endpoint = net::Endpoint::tcp_loopback();
  // Every SU of a connection sends two frames; the budget must fit them.
  server_config.max_frames_per_conn = 2 * ((n + conns - 1) / conns) + 64;
  server_config.listen_backlog = 64;
  server_config.ack_submissions = true;
  server_config.metrics = registry;
  net::SocketRoundOptions options;
  options.hardened = wire_hardened();
  proto::RoundJournal journal;
  proto::RoundReport report;
  report.num_users = n;

  obs::Span round_span(trace, "round.socket");
  std::optional<net::AuctioneerServer> server;
  server.emplace(world.config, n, server_config, options,
                 std::vector<bool>(n, true), *world.ttp, world.seed, &journal,
                 &report, /*crashes=*/nullptr, /*start_ticks=*/0);

  std::vector<ClientConn> cs(conns);
  std::vector<pollfd> pfds(conns);
  {
    obs::Span span(trace, "net.connect", &round_span);
    for (ClientConn& c : cs) c.fd = net::connect_to(server_config.endpoint);
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    std::size_t connected = 0;
    std::vector<bool> done(conns, false);
    while (connected < conns && Clock::now() < deadline) {
      for (std::size_t i = 0; i < conns; ++i) {
        pfds[i] = pollfd{cs[i].fd.get(), static_cast<short>(done[i] ? 0 : POLLOUT), 0};
      }
      ::poll(pfds.data(), pfds.size(), 100);
      for (std::size_t i = 0; i < conns; ++i) {
        if (done[i] || (pfds[i].revents & (POLLOUT | POLLERR | POLLHUP)) == 0) {
          continue;
        }
        if (net::take_socket_error(cs[i].fd.get()) != 0) {
          out.failure = "client connect failed";
        }
        done[i] = true;
        ++connected;
      }
    }
    if (connected < conns && out.failure.empty()) {
      out.failure = "client connect timed out";
    }
  }

  // Open-loop schedule: SU i is due at t0 + i / rate, whatever the
  // server is doing; submit latency is measured from that due time.
  const auto t0 = Clock::now() + std::chrono::milliseconds(1);
  const double interval_ns = rate > 0.0 ? 1e9 / rate : 0.0;
  const auto due = [&](std::size_t i) {
    return t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(
                    static_cast<double>(i) * interval_ns));
  };
  std::vector<std::uint8_t> acked(n, 0);
  std::size_t next = 0, acks_done = 0, announced = 0;
  Clock::time_point last_ack = t0, last_announcement = t0;
  std::vector<std::uint8_t> buffer(1u << 16);
  const auto wall_ceiling = Clock::now() + std::chrono::seconds(60);

  const auto handle_frame = [&](ClientConn& c, const Bytes& frame,
                                Clock::time_point now) {
    proto::Envelope env;
    try {
      env = proto::Envelope::deserialize(frame);
    } catch (const LppaError&) {
      out.failure = "malformed frame from the server";
      return;
    }
    switch (env.type) {
      case proto::MessageType::kSubmissionAck: {
        const std::uint8_t mask =
            proto::SubmissionAck::deserialize(env.payload).mask;
        const std::size_t su = env.sender;
        if (su >= n || acked[su] == 3) return;
        acked[su] |= mask;
        if (acked[su] == 3) {
          out.submit_ack_us[su] = us_between(due(su), now);
          ++acks_done;
          last_ack = now;
        }
        return;
      }
      case proto::MessageType::kRetransmitRequest:
        // Both envelopes of every released SU are already on the wire;
        // a fault-free loopback delivers them, so there is nothing to
        // resend.
        return;
      case proto::MessageType::kWinnerAnnouncement:
        if (c.announced) return;
        c.announced = true;
        ++announced;
        last_announcement = now;
        if (out.announcement.empty()) {
          out.announcement = frame;
        } else if (out.announcement != frame) {
          out.failure = "connections received different announcements";
        }
        return;
      default:
        out.failure = "unexpected message type from the server";
    }
  };

  {
    obs::Span span(trace, "net.client.loop", &round_span);
    while (out.failure.empty() && (announced < conns || acks_done < n)) {
      auto now = Clock::now();
      if (now > wall_ceiling) {
        out.failure = "round wedged: wall ceiling reached";
        break;
      }
      while (next < n && due(next) <= now) {
        ClientConn& c = cs[next % conns];
        c.out.insert(c.out.end(), world.location_frames[next].begin(),
                     world.location_frames[next].end());
        c.out.insert(c.out.end(), world.bid_frames[next].begin(),
                     world.bid_frames[next].end());
        out.late_us.push_back(us_between(due(next), now));
        ++next;
      }
      for (ClientConn& c : cs) {
        if (c.open && !flush(c)) {
          out.failure = "client send failed";
          c.open = false;
        }
      }
      const auto wait = next < n ? due(next) - now
                                 : std::chrono::nanoseconds(
                                       std::chrono::milliseconds(50));
      const auto wait_ns = std::max<std::int64_t>(
          0, std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count());
      const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                        static_cast<long>(wait_ns % 1'000'000'000)};
      for (std::size_t i = 0; i < conns; ++i) {
        short events = cs[i].open ? POLLIN : 0;
        if (cs[i].open && cs[i].out_pos < cs[i].out.size()) events |= POLLOUT;
        pfds[i] = pollfd{cs[i].fd.get(), events, 0};
      }
      ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
      now = Clock::now();
      for (std::size_t i = 0; i < conns; ++i) {
        ClientConn& c = cs[i];
        if (!c.open || (pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
          continue;
        }
        for (;;) {
          const ssize_t got = ::recv(c.fd.get(), buffer.data(), buffer.size(), 0);
          if (got > 0) {
            try {
              c.decoder.feed(std::span(buffer.data(), static_cast<std::size_t>(got)));
              while (auto frame = c.decoder.next()) handle_frame(c, *frame, now);
            } catch (const LppaError&) {
              out.failure = "framing error on a client connection";
              c.open = false;
              break;
            }
            continue;
          }
          if (got < 0 && errno == EINTR) continue;
          if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          c.open = false;  // EOF or error
          if (!c.announced) out.failure = "server closed a connection early";
          break;
        }
      }
    }
  }

  // Every connection holding the announcement means the server published;
  // after a client-side failure it may still be running, so stop it.
  const bool published =
      out.failure.empty() &&
      server->await_terminal() == net::AuctioneerServer::Status::kPublished;
  if (out.failure.empty() && !published) out.failure = "server did not publish";
  server.reset();  // joins the loop thread: report and journal are final
  round_span.end();

  out.round_ms = ms_between(t0, last_announcement);
  out.ingest_ms = ms_between(t0, last_ack);
  out.commit_ms = ms_between(last_ack, last_announcement);
  for (std::size_t su = 0; su < n; ++su) {
    if (acked[su] != 3 || !cs[su % conns].announced) ++out.missed;
  }
  if (out.failure.empty() && out.missed > 0) {
    out.failure = std::to_string(out.missed) + " SUs unacked or unannounced";
  }
  if (published) {
    out.missed += report.excluded.size();
    if (out.failure.empty() && !report.excluded.empty()) {
      out.failure = std::to_string(report.excluded.size()) + " SUs excluded";
    }
    out.journal_bytes = journal.data().size();
    if (registry != nullptr) {
      for (const proto::JournalRecord& rec :
           proto::RoundJournal::read(journal.data())) {
        if (rec.type == proto::JournalRecordType::kNackSent) {
          ++out.nacks_journaled;
        }
      }
    }
  }
  return out;
}

}  // namespace lppa::bench_driver
