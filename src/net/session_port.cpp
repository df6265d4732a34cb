#include "net/session_port.h"

#include <optional>

#include "obs/span.h"

namespace lppa::net {

SocketAuctionResult run_recoverable_socket_auction(
    const core::LppaConfig& config, core::TrustedThirdParty& ttp,
    const std::vector<auction::SuLocation>& locations,
    const std::vector<auction::BidVector>& bids, std::uint64_t seed,
    ServerConfig server_config, SocketRoundOptions round,
    proto::CrashInjector* crashes, SocketFaultInjector* faults,
    const std::vector<std::size_t>& exclude) {
  const std::size_t n = bids.size();
  const std::vector<bool> participating = proto::participation_mask(n, exclude);
  if (faults != nullptr) {
    faults->require_within_deadline(round.deadline_ticks);
  }

  SocketAuctionResult result;
  proto::RoundReport& report = result.report;
  std::vector<proto::SuEnvelopes> endpoints = proto::mask_submissions(
      config, ttp.su_keys(), locations, bids, seed, participating);
  LPPA_REQUIRE(!endpoints.empty(), "every SU is excluded from the round");
  result.envelopes_built = 2 * endpoints.size();

  // --- Durable state: what a crash cannot erase --------------------------
  proto::RoundJournal journal;
  std::size_t ticks = 0;
  std::optional<ClientPool> pool;
  obs::Span round_span(server_config.metrics, "wire.round");

  // Generous wall ceiling so a wedged round fails loudly instead of
  // hanging the caller; sized for the slowest sanitized crash-matrix
  // sweeps, not for the happy path (which ends in milliseconds).
  const auto hard_deadline =
      SteadyClock::now() + std::chrono::seconds(120);
  const auto check_wall = [&] {
    LPPA_PROTOCOL_CHECK(SteadyClock::now() < hard_deadline,
                        "socket round wedged: wall ceiling reached");
  };

  for (;;) {
    check_wall();
    AuctioneerServer server(config, n, server_config, round, participating,
                            ttp, seed, &journal, &report, crashes, ticks,
                            &round_span);
    if (!pool.has_value()) {
      // First server bound the endpoint (ephemeral port now resolved);
      // every restart rebinds the same address.
      ClientPoolConfig client_config;
      client_config.endpoint = server_config.endpoint;
      client_config.backoff = round.hardened;
      client_config.tick = server_config.tick;
      client_config.limits = server_config.limits;
      client_config.faults = faults;
      client_config.metrics = server_config.metrics;
      pool.emplace(std::move(client_config), std::move(endpoints));
    }

    // Pump the clients while the server round runs in its own thread.
    while (server.status() == AuctioneerServer::Status::kRunning) {
      pool->run(std::chrono::milliseconds(20));
      check_wall();
    }

    const AuctioneerServer::Status status = server.await_terminal();
    if (status == AuctioneerServer::Status::kCrashed) {
      // The auctioneer died; the journal and the SUs (their sockets got
      // an RST) survive.  Restarting costs ticks, which is how crashes
      // erode the deadline.
      ticks = server.ticks_used() + round.recovery_cost_ticks;
      continue;  // ~server closes the listener; loop rebinds
    }
    if (status == AuctioneerServer::Status::kFailed) {
      server.rethrow_failure();
    }

    // Published: let every SU collect the announcement (late clients are
    // answered on reconnect), then retire the server.
    while (!pool->run(std::chrono::milliseconds(50))) {
      check_wall();
    }
    ticks = server.ticks_used();
    break;
  }

  result.announcement = pool->announcement();
  const proto::Envelope e = proto::Envelope::deserialize(result.announcement);
  result.awards = proto::WinnerAnnouncement::deserialize(e.payload).awards;
  result.journal = journal.data();
  result.reconnects = pool->reconnects();
  if (faults != nullptr) result.socket_faults = faults->counters();
  report.ticks_used = ticks;
  return result;
}

}  // namespace lppa::net
