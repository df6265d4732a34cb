// The LPPA round over the in-process MessageBus: every message travels
// as bytes, and the auctioneer side is the one RoundDriver
// (proto/round_driver.h) that the socket transport also runs.
#pragma once

#include "core/lppa_auction.h"
#include "proto/bus.h"
#include "proto/parties.h"
#include "proto/round_driver.h"

namespace lppa::proto {

struct RecoverableWireResult {
  /// TTP-validated awards; Award::user carries original SU ids.
  std::vector<auction::Award> awards;
  RoundReport report;
  /// The durable journal as it stands at round commit.
  Bytes journal;
  /// The published kWinnerAnnouncement envelope, for byte-identity
  /// assertions across transports and crashy and crash-free runs.
  Bytes announcement;
};

/// Runs one auction round over `bus`, the bus adapter of RoundDriver.
///
/// The SUs mask once (mask_submissions — the RNG discipline of
/// core::LppaAuction::run, so a clean round at seed S awards exactly
/// what LppaAuction::run awards under Rng(S)) and afterwards only answer
/// nacks with the same cached bytes.  The TTP answers charge queries the
/// bus carries to it.  Faults: attach a FaultInjector to `bus` first;
/// damaged or missing submissions are nacked in waves, and SUs that
/// never deliver a valid pair are excluded so the round completes with
/// the survivors.  Crashes: when `crashes` fires a CrashSignal, a new
/// driver is rebuilt from the journal alone and the round continues, to
/// the same awards and announcement bytes (the SUs never resubmit; only
/// already-sent bytes are redelivered, deduped as benign).
///
/// `exclude` lists SUs that sit the round out (their RNG streams are
/// still consumed, so a run excluding exactly the parties a faulty run
/// lost masks the survivors byte-identically).  Takes a seed rather
/// than an Rng& because every restart must reconstruct the identical
/// allocation stream.  `bus` accumulates traffic stats across calls.
RecoverableWireResult run_recoverable_wire_auction(
    const core::LppaConfig& config, core::TrustedThirdParty& ttp,
    const std::vector<auction::SuLocation>& locations,
    const std::vector<auction::BidVector>& bids, MessageBus& bus,
    std::uint64_t seed, const RecoverableSessionConfig& recov = {},
    CrashInjector* crashes = nullptr,
    const std::vector<std::size_t>& exclude = {});

}  // namespace lppa::proto
