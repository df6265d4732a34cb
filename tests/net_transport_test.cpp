// Transport-level robustness of src/net: connection state machine
// (backpressure bounds, partial writes, progress deadlines), server
// admission control, slow-loris eviction, a multi-frame read classified
// exactly as the in-process driver classifies it, deterministic teardown
// of an AuctioneerServer with frames still queued, stop() waking an idle
// server and EventLoop::wake, and ThreadPool's stopped-pool shutdown
// contract.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/thread_pool.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/server.h"
#include "proto/journal.h"
#include "proto/parties.h"

namespace lppa::net {
namespace {

using namespace std::chrono_literals;

struct WireWorld {
  std::vector<auction::SuLocation> locations;
  std::vector<auction::BidVector> bids;
  core::LppaConfig config;
};

WireWorld make_world(std::size_t n, std::size_t k, std::uint64_t seed) {
  Rng rng(seed);
  WireWorld w;
  for (std::size_t i = 0; i < n; ++i) {
    w.locations.push_back({rng.below(5000), rng.below(5000)});
    auction::BidVector bv(k);
    for (auto& b : bv) b = rng.below(16);
    w.bids.push_back(bv);
  }
  w.config.num_channels = k;
  w.config.lambda = 100;
  w.config.coord_width = 14;
  w.config.bid = core::PpbsBidConfig::advanced(
      15, 3, 4, core::ZeroDisguisePolicy::none(15));
  w.config.ttp_batch_size = 4;
  return w;
}

// Raw-socket helpers for playing the hostile client.
void wait_writable(int fd, int timeout_ms = 2000) {
  pollfd p{fd, POLLOUT, 0};
  ASSERT_GT(::poll(&p, 1, timeout_ms), 0) << "connect did not complete";
  ASSERT_EQ(take_socket_error(fd), 0);
}

void send_all(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR);
    pollfd p{fd, POLLOUT, 0};
    ::poll(&p, 1, 100);
  }
}

/// True when the peer closed (EOF or reset) within `timeout_ms`.
bool closed_within(int fd, int timeout_ms) {
  const auto deadline =
      SteadyClock::now() + std::chrono::milliseconds(timeout_ms);
  std::uint8_t buf[256];
  while (SteadyClock::now() < deadline) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n == 0) return true;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return true;  // ECONNRESET counts as closed
    }
    std::this_thread::sleep_for(5ms);
  }
  return false;
}

/// An AuctioneerServer wired to throwaway round state, parked in a long
/// admission phase so transport behaviour can be probed.
struct ServerFixture {
  WireWorld world = make_world(4, 2, 11);
  core::TrustedThirdParty ttp{world.config.bid, 77};
  proto::RoundJournal journal;
  proto::RoundReport report;
  ServerConfig server_config;
  SocketRoundOptions round;
  std::unique_ptr<AuctioneerServer> server;

  explicit ServerFixture(TransportLimits limits = {},
                         std::size_t max_connections = 64,
                         std::size_t backoff_base_ticks = 100,
                         bool ack_submissions = false) {
    server_config.limits = limits;
    server_config.max_connections = max_connections;
    server_config.tick = std::chrono::microseconds(1000);
    server_config.ack_submissions = ack_submissions;
    // Park admission for a long time: by default waves every ~200 ms,
    // many retries.
    round.hardened.backoff_base_ticks = backoff_base_ticks;
    round.hardened.max_retries = 50;
    server = std::make_unique<AuctioneerServer>(
        world.config, world.bids.size(), server_config, round,
        std::vector<bool>(world.bids.size(), true), ttp, /*seed=*/5,
        &journal, &report, /*crashes=*/nullptr, /*start_ticks=*/0);
  }
};

TEST(Connection, BackpressureBoundRefusesEnqueue) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv), 0);
  TransportLimits limits;
  limits.max_write_queue_bytes = 64;
  const auto now = SteadyClock::now();
  Connection conn(Fd(sv[0]), 1, limits, now);
  Fd peer(sv[1]);

  EXPECT_TRUE(conn.enqueue(Bytes(40, 0xAA)));
  EXPECT_TRUE(conn.enqueue(Bytes(24, 0xBB)));  // exactly at the bound
  EXPECT_FALSE(conn.enqueue(Bytes(1, 0xCC)));  // over → eviction signal
  EXPECT_EQ(conn.queued_bytes(), 64u);
}

TEST(Connection, PartialWritesKeepCursorAndDeadline) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv), 0);
  // Shrink the send buffer so EAGAIN is reachable quickly.
  const int small = 4096;
  ::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof small);

  TransportLimits limits;
  limits.max_write_queue_bytes = 1u << 22;
  limits.write_deadline = std::chrono::milliseconds(50);
  auto now = SteadyClock::now();
  Connection conn(Fd(sv[0]), 1, limits, now);
  Fd peer(sv[1]);

  // Queue far more than the kernel will take without a reader.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(conn.enqueue(Bytes(16 * 1024, 0x5A)));
  }
  ASSERT_EQ(conn.on_writable(now), Connection::Io::kOk);
  EXPECT_TRUE(conn.wants_write());  // blocked mid-queue
  EXPECT_FALSE(conn.write_deadline_expired(now));
  EXPECT_TRUE(conn.write_deadline_expired(now + 60ms));

  // Draining the peer un-blocks the writer and clears the deadline.
  std::vector<std::uint8_t> sink(1 << 16);
  std::size_t guard = 0;
  while (conn.wants_write() && guard++ < 10000) {
    while (::recv(sv[1], sink.data(), sink.size(), 0) > 0) {
    }
    now = SteadyClock::now();
    ASSERT_EQ(conn.on_writable(now), Connection::Io::kOk);
  }
  EXPECT_FALSE(conn.wants_write());
  EXPECT_FALSE(conn.write_deadline_expired(now + 1h));
}

TEST(Connection, ReadDeadlineArmsOnlyWhileOwedBytes) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv), 0);
  TransportLimits limits;
  limits.read_deadline = std::chrono::milliseconds(100);
  const auto now = SteadyClock::now();
  Connection conn(Fd(sv[0]), 1, limits, now);
  Fd peer(sv[1]);

  // Never said anything: classic slow-loris, deadline armed.
  EXPECT_FALSE(conn.read_deadline_expired(now));
  EXPECT_TRUE(conn.read_deadline_expired(now + 150ms));

  // Deliver one complete frame: the peer owes nothing, deadline disarmed.
  const Bytes frame = encode_frame(Bytes(8, 0x42));
  ASSERT_EQ(::send(sv[1], frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  std::vector<Bytes> frames;
  ASSERT_EQ(conn.on_readable(frames, now + 10ms), Connection::Io::kOk);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_FALSE(conn.read_deadline_expired(now + 10h));

  // A half frame re-arms it.
  ASSERT_EQ(::send(sv[1], frame.data(), 3, 0), 3);
  frames.clear();
  const auto later = SteadyClock::now();
  ASSERT_EQ(conn.on_readable(frames, later), Connection::Io::kOk);
  EXPECT_TRUE(frames.empty());
  EXPECT_FALSE(conn.read_deadline_expired(later + 50ms));
  EXPECT_TRUE(conn.read_deadline_expired(later + 150ms));
}

TEST(AuctioneerServer, AdmissionControlClosesExcessConnections) {
  ServerFixture fx({}, /*max_connections=*/2);

  Fd c1 = connect_to(fx.server->endpoint());
  Fd c2 = connect_to(fx.server->endpoint());
  wait_writable(c1.get());
  wait_writable(c2.get());
  // Give the accept loop a beat to register both.
  std::this_thread::sleep_for(50ms);

  Fd c3 = connect_to(fx.server->endpoint());
  wait_writable(c3.get());
  EXPECT_TRUE(closed_within(c3.get(), 2000))
      << "third connection should be closed by admission control";
  // The admitted pair stays open.
  EXPECT_FALSE(closed_within(c1.get(), 100));
}

TEST(AuctioneerServer, SlowLorisIsEvictedCompleteTalkerIsNot) {
  TransportLimits limits;
  limits.read_deadline = std::chrono::milliseconds(100);
  ServerFixture fx(limits);

  // Loris: opens, delivers three bytes of a valid frame, stalls.
  Fd loris = connect_to(fx.server->endpoint());
  wait_writable(loris.get());
  const Bytes frame = encode_frame(Bytes(32, 0x99));  // garbage envelope
  send_all(loris.get(), std::span<const std::uint8_t>(frame.data(), 3));

  // Honest-but-garbled: delivers one COMPLETE frame (the envelope inside
  // is garbage — a strike, not a transport offence) and goes idle.
  Fd talker = connect_to(fx.server->endpoint());
  wait_writable(talker.get());
  send_all(talker.get(), frame);

  EXPECT_TRUE(closed_within(loris.get(), 3000)) << "slow-loris not evicted";
  EXPECT_FALSE(closed_within(talker.get(), 300))
      << "idle-but-complete client must not trip the read deadline";
}

TEST(AuctioneerServer, OneReadOfMixedFramesIsClassifiedLikeTheBus) {
  // One write carries five frames, so one read hands the server a batch:
  // SU 0's location and bid, SU 1's location with its payload cut short
  // (valid envelope, attributable strike), SU 2's location with one byte
  // flipped (checksum fails, unattributable), and SU 0's location again
  // (byte-identical duplicate).  The server must journal, count and ack
  // exactly what the bus adapter's driver does with the same bytes.
  ServerFixture fx({}, 64, /*backoff_base_ticks=*/10000,
                   /*ack_submissions=*/true);  // first wave after ~20 s
  const WireWorld& w = fx.world;
  Rng rng(3);
  const Bytes loc0 = proto::SuClient(0, w.config, fx.ttp.su_keys())
                         .location_envelope(w.locations[0], rng);
  const Bytes bid0 = proto::SuClient(0, w.config, fx.ttp.su_keys())
                         .bid_envelope(w.bids[0], rng);
  proto::Envelope cut = proto::Envelope::deserialize(
      proto::SuClient(1, w.config, fx.ttp.su_keys())
          .location_envelope(w.locations[1], rng));
  cut.payload.pop_back();
  const Bytes strike1 = cut.serialize();
  Bytes flipped2 = proto::SuClient(2, w.config, fx.ttp.su_keys())
                       .location_envelope(w.locations[2], rng);
  flipped2[flipped2.size() / 2] ^= 0x01;
  const std::vector<Bytes> batch = {loc0, bid0, strike1, flipped2, loc0};

  // The bus adapter's view: one driver fed the same bytes in order.
  proto::RoundJournal ref_journal;
  proto::RoundReport ref_report;
  proto::RoundDriver ref(w.config, w.bids.size(), fx.round,
                         std::vector<bool>(w.bids.size(), true), /*seed=*/5,
                         ref_journal, ref_report);
  ref.start();
  std::vector<proto::AuctioneerSession::IngestResult> verdicts;
  std::vector<std::uint8_t> want_acks;
  for (const Bytes& env : batch) {
    verdicts.push_back(ref.on_submission(env));
    if (verdicts.back() == proto::AuctioneerSession::IngestResult::kRejected) {
      continue;
    }
    want_acks.push_back(proto::Envelope::deserialize(env).type ==
                                proto::MessageType::kLocationSubmission
                            ? proto::RetransmitRequest::kLocation
                            : proto::RetransmitRequest::kBid);
  }
  using R = proto::AuctioneerSession::IngestResult;
  ASSERT_EQ(verdicts, (std::vector<R>{R::kAccepted, R::kAccepted,
                                      R::kRejected, R::kRejected,
                                      R::kDuplicateRedelivery}));

  Fd client = connect_to(fx.server->endpoint());
  wait_writable(client.get());
  Bytes wire;
  for (const Bytes& env : batch) {
    const Bytes frame = encode_frame(env);
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  send_all(client.get(), wire);

  std::vector<std::uint8_t> acks;
  FrameDecoder decoder;
  std::uint8_t buf[4096];
  const auto deadline = SteadyClock::now() + 5s;
  while (acks.size() < want_acks.size() && SteadyClock::now() < deadline) {
    pollfd p{client.get(), POLLIN, 0};
    if (::poll(&p, 1, 50) <= 0) continue;
    const ssize_t n = ::recv(client.get(), buf, sizeof buf, 0);
    ASSERT_GT(n, 0) << "server closed the connection";
    decoder.feed(
        std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
    while (auto frame = decoder.next()) {
      const proto::Envelope ack = proto::Envelope::deserialize(*frame);
      ASSERT_EQ(ack.type, proto::MessageType::kSubmissionAck);
      EXPECT_EQ(ack.sender, 0u);
      acks.push_back(proto::SubmissionAck::deserialize(ack.payload).mask);
    }
  }
  EXPECT_EQ(acks, want_acks);
  EXPECT_FALSE(closed_within(client.get(), 50));

  fx.server.reset();  // joins the loop thread; its state is ours now
  EXPECT_EQ(fx.journal.data(), ref_journal.data());
  EXPECT_EQ(fx.report.rejected_messages, 2u);
  EXPECT_EQ(fx.report.duplicate_redeliveries, 1u);
  std::size_t strikes = 0;
  for (const auto& record : proto::RoundJournal::read(fx.journal.data())) {
    if (record.type == proto::JournalRecordType::kStrike) ++strikes;
  }
  EXPECT_EQ(strikes, 1u);
}

TEST(AuctioneerServer, DestructionWithQueuedFramesIsDeterministic) {
  // Frames still in flight / queued when the server dies: teardown must
  // drain or cancel deterministically — never hang, never crash.
  for (int iteration = 0; iteration < 3; ++iteration) {
    ServerFixture fx;
    std::vector<Fd> clients;
    const Bytes frame = encode_frame(Bytes(64, 0x7F));
    for (int i = 0; i < 8; ++i) {
      clients.push_back(connect_to(fx.server->endpoint()));
      wait_writable(clients.back().get());
      for (int j = 0; j < 4; ++j) send_all(clients.back().get(), frame);
    }
    // Destroy with traffic still arriving.
    fx.server.reset();
  }
  SUCCEED();
}

TEST(AuctioneerServer, StopWakesAnIdleLoop) {
  // A published server with no traffic blocks in its event-loop wait;
  // stop() must end that wait rather than let it run to its timeout.
  std::vector<double> destroy_ms;
  for (std::uint64_t run = 0; run < 5; ++run) {
    ServerFixture fx({}, 64, /*backoff_base_ticks=*/10000);
    const WireWorld& w = fx.world;
    Rng rng(run);
    Bytes wire;
    for (std::size_t u = 0; u < w.bids.size(); ++u) {
      const proto::SuClient su(u, w.config, fx.ttp.su_keys());
      for (const Bytes& env : {su.location_envelope(w.locations[u], rng),
                               su.bid_envelope(w.bids[u], rng)}) {
        const Bytes frame = encode_frame(env);
        wire.insert(wire.end(), frame.begin(), frame.end());
      }
    }
    Fd client = connect_to(fx.server->endpoint());
    wait_writable(client.get());
    send_all(client.get(), wire);
    // The complete submission set closes admission at once.
    ASSERT_EQ(fx.server->await_terminal(),
              AuctioneerServer::Status::kPublished);
    std::this_thread::sleep_for(5ms);  // the loop is back in its wait

    const auto start = SteadyClock::now();
    fx.server.reset();
    destroy_ms.push_back(std::chrono::duration<double, std::milli>(
                             SteadyClock::now() - start)
                             .count());
  }
  std::sort(destroy_ms.begin(), destroy_ms.end());
  EXPECT_LT(destroy_ms[2], 5.0) << "median destructor time, ms";
}

TEST(EventLoop, WakeReturnsABlockedWaitFromAnotherThread) {
  EventLoop loop;
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  Fd a(sv[0]);
  Fd b(sv[1]);
  loop.add(a.get(), /*token=*/7, /*want_read=*/true, /*want_write=*/false);

  std::thread waker([&] {
    std::this_thread::sleep_for(20ms);
    loop.wake();
  });
  std::vector<EventLoop::Event> events;
  loop.wait(-1, events);  // would block forever without the wake
  waker.join();
  EXPECT_TRUE(events.empty()) << "the wake fd is not reported";

  // The wake was consumed: a poll finds nothing, and the registered fd
  // still reports as before.
  loop.wait(0, events);
  EXPECT_TRUE(events.empty());
  const std::uint8_t byte = 1;
  ASSERT_EQ(::send(b.get(), &byte, 1, MSG_NOSIGNAL), 1);
  loop.wait(1000, events);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].token, 7u);
  EXPECT_TRUE(events[0].readable);
}

TEST(ThreadPool, RunAfterStopExecutesInlineInOrder) {
  ThreadPool pool(2);
  pool.stop();
  // A stopped pool must not enqueue (nobody would ever pop): run()
  // degrades to inline, ascending-w execution on the caller.
  std::vector<std::size_t> order;
  pool.run(4, [&](std::size_t w) { order.push_back(w); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));

  // Idempotent stop, and exceptions still propagate inline.
  pool.stop();
  EXPECT_THROW(
      pool.run(2,
               [](std::size_t w) {
                 if (w == 1) throw LppaError(ErrorKind::kState, "boom");
               }),
      LppaError);
}

TEST(ThreadPool, StopDrainsQueuedWorkBeforeJoining) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    pool.run(3, [&](std::size_t) {
      std::this_thread::sleep_for(10ms);
      ran.fetch_add(1);
    });
    pool.stop();  // explicit stop, then destructor's stop is a no-op
  }
  EXPECT_EQ(ran.load(), 3);
}

}  // namespace
}  // namespace lppa::net
