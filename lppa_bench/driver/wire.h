// The round over the wire: SU envelopes masked once (set-up), replayed
// into a real epoll AuctioneerServer over TCP loopback by a
// single-threaded open-loop client the benchmark owns, and the same round
// and seed through proto::run_recoverable_wire_auction on the in-process
// bus as the reference announcement.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "core/lppa_auction.h"
#include "driver/common.h"

namespace lppa::bench_driver {

struct WireWorld {
  core::LppaConfig config;
  std::uint64_t seed = 0;  ///< the round seed: SU masks and allocation
  PlainWorld world;
  std::optional<core::TrustedThirdParty> ttp;
  std::vector<Bytes> location_frames;  ///< framed envelopes, one per SU
  std::vector<Bytes> bid_frames;
  double mask_ms = 0.0;  ///< SuClient envelope builds, summed
  std::size_t wire_bytes = 0;  ///< framed submission bytes, all SUs
};

/// TTP keygen and SU masking under the bus drivers' RNG discipline (one
/// boot fork, per-SU forks in index order), so the socket round commits
/// the same announcement as the bus round at `round_seed`.
WireWorld make_wire_world(const core::LppaConfig& config, PlainWorld world,
                          std::uint64_t ttp_seed, std::uint64_t round_seed);

struct BusRound {
  Bytes announcement;
  double ms = 0.0;  ///< the whole call, SU masking included
  std::size_t excluded = 0;
};

BusRound run_bus_round(WireWorld& world);

struct SocketRound {
  std::string failure;     ///< first problem seen, empty on success
  std::size_t missed = 0;  ///< SUs excluded, unacked or unannounced
  double round_ms = 0.0;   ///< first scheduled send -> last announcement
  double ingest_ms = 0.0;  ///< first scheduled send -> last ack
  double commit_ms = 0.0;  ///< last ack -> last announcement
  std::vector<double> submit_ack_us;  ///< per SU, from its scheduled send
  std::vector<double> late_us;        ///< per SU, send time - scheduled
  Bytes announcement;
  std::size_t nacks_journaled = 0;  ///< counted only with a registry
  std::size_t journal_bytes = 0;
};

/// One round over nproc loopback connections, the SUs multiplexed
/// round-robin.  `rate` is the open-loop release rate in SUs per second;
/// 0 releases every SU at once (the capacity probe).  A non-null
/// `registry` is attached to the server (the traced run reads its net.*
/// counters) and makes the journal's nacks get counted.
SocketRound run_socket_round(WireWorld& world, double rate,
                             obs::MetricsRegistry* registry,
                             obs::MetricsRegistry* trace);

}  // namespace lppa::bench_driver
