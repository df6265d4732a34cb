// AuctioneerServer: the auctioneer side of the LPPA round over real
// sockets.
//
// One epoll thread multiplexes every SU connection into one
// proto::RoundDriver — the same sans-IO round state machine the
// in-process bus adapter runs, with its ticks mapped onto wall time (one
// tick = ServerConfig::tick).  This layer only does transport work:
// accept, framing, binding SUs to their latest connection, eviction and
// broadcast; the session parses each frame once, and the server binds
// and acks from the driver's verdict.  A socket round at seed S
// therefore commits byte-identical awards, charges and announcement to
// a bus round at seed S (net_session_test pins this, including under
// crash and fault injection).
//
// Robustness posture (docs/robustness.md has the full state machine):
//   * admission control — at most max_connections peers; excess accepts
//     are closed on sight, and a per-connection frame budget bounds what
//     any one peer can make us parse;
//   * backpressure — per-connection write queues are bounded; a peer
//     that will not drain its socket is evicted, never buffered without
//     limit;
//   * slow-loris — read/write progress deadlines (TransportLimits);
//   * crashes — a CrashInjector checkpoint firing anywhere in the round
//     tears the server down abortively (RST to every peer), exactly like
//     a process death; the caller rebuilds a new server from the
//     journal, and reconnecting clients redeliver already-sent bytes
//     which dedupe as benign.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/connection.h"
#include "net/event_loop.h"
#include "proto/round_driver.h"

namespace lppa::net {

/// Transport-side server policy; the round policy (retries, deadline,
/// quorum, churn) is SocketRoundOptions.
struct ServerConfig {
  Endpoint endpoint = Endpoint::tcp_loopback();
  /// Admission control: peers accepted concurrently; everyone past the
  /// cap is closed immediately after accept.
  std::size_t max_connections = 2048;
  /// Admission control: total frames one connection may deliver before
  /// it is evicted (valid or not — parsing is the resource defended).
  std::size_t max_frames_per_conn = 64;
  /// listen(2) backlog.  Size it to the expected connect burst: SYNs
  /// past the backlog are dropped and the peers retry on multi-second
  /// retransmission timers, which serialises what should be a stampede.
  /// The kernel clamps this to net.core.somaxconn.
  int listen_backlog = 256;
  TransportLimits limits;
  /// Wall-clock duration of one logical tick: backoff waves, round
  /// deadlines and fault delays are all specified in ticks and scheduled
  /// on this clock (see the mapping note in proto/fault.h).
  std::chrono::microseconds tick{1000};
  /// When true the server answers every accepted (or benignly duplicate)
  /// submission with a kSubmissionAck frame — bench/loadgen uses it to
  /// measure end-to-end submit latency.
  bool ack_submissions = false;
  /// Transport counters (`net.*`) and the round's `wire.*` counters and
  /// spans.  Not owned; may be null.
  obs::MetricsRegistry* metrics = nullptr;
};

/// The round policy is the transport-independent one.
using SocketRoundOptions = proto::RecoverableSessionConfig;

class AuctioneerServer {
 public:
  enum class Status : std::uint8_t {
    kRunning,    ///< round in progress
    kPublished,  ///< announcement committed; serving it to late clients
    kCrashed,    ///< CrashSignal fired; rebuild from the journal
    kFailed,     ///< unrecoverable error (quorum, bind, ...) — rethrown
  };

  /// Builds the auctioneer for one round attempt: a proto::RoundDriver
  /// over `journal` (replayed into a fresh session — crash recovery; an
  /// empty journal starts the round), a listen socket bound to
  /// `server_config.endpoint` (an ephemeral TCP port is rewritten into
  /// it — pass the same resolved endpoint to every restart so clients
  /// can reconnect), and the epoll thread.  `participating[u]` == false
  /// marks SU u as a known non-participant (never nacked, never
  /// awaited).  `start_ticks` seeds the round clock — the caller
  /// accumulates recovery costs there — and the attempt's spans hang
  /// under `round_span`.  None of the pointer parameters are owned;
  /// journal/report/crashes/round_span must outlive the server, and
  /// `report` is only caller-readable after a terminal status.
  AuctioneerServer(const core::LppaConfig& config, std::size_t num_users,
                   ServerConfig& server_config, SocketRoundOptions round,
                   std::vector<bool> participating,
                   core::TrustedThirdParty& ttp, std::uint64_t seed,
                   proto::RoundJournal* journal, proto::RoundReport* report,
                   proto::CrashInjector* crashes, std::size_t start_ticks,
                   const obs::Span* round_span = nullptr);

  /// Stops the loop (if still running) and joins the epoll thread.
  ~AuctioneerServer();

  AuctioneerServer(const AuctioneerServer&) = delete;
  AuctioneerServer& operator=(const AuctioneerServer&) = delete;

  /// The endpoint clients should dial (ephemeral port resolved).
  const Endpoint& endpoint() const noexcept { return endpoint_; }

  Status status() const;
  /// Blocks until the status leaves kRunning and returns it.
  Status await_terminal();
  /// Rethrows the stored error after a kFailed status.
  [[noreturn]] void rethrow_failure();

  /// Wakes the loop and asks it to exit (idempotent; the destructor calls it).
  void stop();

  /// Ticks consumed by this attempt (start_ticks + elapsed wall time /
  /// tick); meaningful after a terminal status.
  std::size_t ticks_used() const noexcept { return ticks_used_; }

 private:
  struct Peer;

  void run_loop();
  void loop_body();  ///< throws CrashSignal / LppaError out to run_loop
  void handle_frame(Peer& peer, const Bytes& frame,
                    SteadyClock::time_point now);
  void send_to_peer(Peer& peer, Bytes frame, SteadyClock::time_point now);
  void evict(std::uint64_t id, bool abortive, const char* why);
  void close_all_abortive();
  void run_wave(SteadyClock::time_point now);
  void publish_round(SteadyClock::time_point now);  ///< charge → publish
  std::size_t ticks_now(SteadyClock::time_point now) const;
  void set_status(Status s);

  // --- immutable configuration ------------------------------------------
  ServerConfig server_config_;
  std::size_t start_ticks_;
  proto::TtpService ttp_service_;

  // --- loop-thread state (only touched by the epoll thread after
  // construction) ---------------------------------------------------------
  proto::RoundDriver driver_;
  Endpoint endpoint_;
  Fd listener_;
  EventLoop loop_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Peer>> peers_;
  /// Last bound connection per SU — where nacks / acks / the
  /// announcement go.  A reconnect rebinds the SU to its new connection.
  std::unordered_map<std::size_t, std::uint64_t> su_conn_;
  std::uint64_t next_conn_id_ = 1;
  SteadyClock::time_point started_at_;
  SteadyClock::time_point next_wave_at_;
  Bytes announcement_;
  std::size_t ticks_used_ = 0;

  // --- cross-thread coordination -----------------------------------------
  mutable std::mutex mutex_;
  std::condition_variable status_cv_;
  Status status_ = Status::kRunning;
  std::exception_ptr failure_;
  std::atomic<bool> stop_requested_{false};
  std::thread thread_;
};

}  // namespace lppa::net
