// The LPPA round over sockets: the socket adapter of proto::RoundDriver.
//
// The same round as proto::run_recoverable_wire_auction — nack waves
// under exponential backoff, strike/equivocation bookkeeping,
// deadline-quorum degradation, scripted churn, write-ahead journal
// recovery after a mid-round auctioneer crash — because both run the
// one RoundDriver; here every SU↔auctioneer message travels through a
// real nonblocking socket (TCP loopback or Unix-domain) instead of the
// in-process MessageBus.
//
// The invariant the tests pin: at the same seed, the socket round
// commits byte-identical awards, charges and announcement to the bus
// round — clean, under socket-level fault injection
// (SocketFaultInjector), and across auctioneer crashes at every
// CrashPoint — and the SUs never rebuild an envelope
// (SocketAuctionResult::envelopes_built counts exactly one
// location+bid build per participant, however many times the bytes were
// redelivered).
#pragma once

#include "net/client.h"
#include "net/server.h"

namespace lppa::net {

struct SocketAuctionResult {
  std::vector<auction::Award> awards;
  proto::RoundReport report;
  /// The durable journal at round commit.
  Bytes journal;
  /// The published kWinnerAnnouncement envelope bytes, as every SU
  /// received them over its socket.
  Bytes announcement;
  /// Location/bid envelope constructions performed — exactly
  /// 2 × participants when the zero-resubmission invariant holds.
  std::size_t envelopes_built = 0;
  /// Client connection attempts after a loss (faults, evictions,
  /// crashes); 0 on a clean run.
  std::size_t reconnects = 0;
  /// Transport fault totals (zero when no injector was attached).
  SocketFaultCounters socket_faults;
};

/// Runs one crash-tolerant auction round over sockets.  `server_config`
/// is taken by value; its endpoint may name an ephemeral port (0) —
/// the resolved endpoint is what the internal restarts rebind.  Pass a
/// CrashInjector to kill the auctioneer at its checkpoints, a
/// SocketFaultInjector to mangle client traffic, and `exclude` for SUs
/// that sit the round out (their RNG streams are still consumed — same
/// contract as the bus adapter).  With ServerConfig::metrics set the
/// round records the same `wire.*` counters and `wire.round` span tree
/// as the bus.
SocketAuctionResult run_recoverable_socket_auction(
    const core::LppaConfig& config, core::TrustedThirdParty& ttp,
    const std::vector<auction::SuLocation>& locations,
    const std::vector<auction::BidVector>& bids, std::uint64_t seed,
    ServerConfig server_config, SocketRoundOptions round = {},
    proto::CrashInjector* crashes = nullptr,
    SocketFaultInjector* faults = nullptr,
    const std::vector<std::size_t>& exclude = {});

}  // namespace lppa::net
