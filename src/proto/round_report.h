// RoundReport: the per-round log of a wire auction round.
//
// Graceful degradation is only useful if it is observable: when the
// auctioneer completes a round without some parties, operators (and the
// fault-injection tests) need to see exactly who was excluded, why, how
// many retry waves it took, and what the network did.  One RoundReport
// is produced per round (proto::RoundDriver) and accumulated per
// experiment (sim/multi_round.h).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "proto/fault.h"

namespace lppa::proto {

struct RoundReport {
  /// Why an SU was excluded from the round.
  enum class ExclusionReason : std::uint8_t {
    kTimeout,       ///< no (valid) submission arrived within the retry budget
    kInvalid,       ///< submissions arrived but every one failed validation
    kEquivocation,  ///< two different valid submissions under one identity
  };
  struct Exclusion {
    std::size_t user = 0;
    ExclusionReason reason = ExclusionReason::kTimeout;
    std::string detail;  ///< last validator / protocol error, if any
  };

  std::size_t round = 0;      ///< round index within a multi-round run
  std::size_t num_users = 0;  ///< configured population size
  bool completed = false;     ///< allocation + charging finished

  std::vector<std::size_t> survivors;  ///< SU ids that made it to allocation
  std::vector<Exclusion> excluded;

  std::size_t retry_waves = 0;      ///< retransmission waves issued
  std::size_t charge_attempts = 0;  ///< send attempts of the charging phase
  std::size_t rejected_messages = 0;  ///< unparseable or invalid messages seen
  std::size_t duplicate_redeliveries = 0;  ///< benign identical re-arrivals

  // --- Crash recovery (proto::RoundDriver) ------------------------------
  std::size_t crash_recoveries = 0;  ///< auctioneer restarts this round
  std::size_t journal_records = 0;   ///< journal records written by round end
  std::size_t journal_bytes = 0;     ///< durable journal size in bytes
  std::size_t replayed_records = 0;  ///< records replayed across recoveries

  // --- Deadline / quorum degradation -------------------------------------
  /// True when the round deadline expired (typically while recovering)
  /// and the session committed with the quorum of journaled submissions
  /// instead of waiting out further retry waves.
  bool degraded = false;
  std::size_t deadline_ticks = 0;  ///< configured round deadline (0 = none)
  std::size_t ticks_used = 0;      ///< bus ticks the round consumed

  /// Injected-fault totals for the round (zero when no injector attached).
  FaultCounters faults;

  /// One-line human-readable summary for logs.
  std::string summary() const;

  /// The report as one JSON object, schema-stable for the BENCH_*.json
  /// sweeps (bench/abl_faults, bench/abl_recovery).
  std::string to_json() const;
};

/// Log label of an exclusion reason ("timeout" / "invalid" /
/// "equivocation").
const char* to_string(RoundReport::ExclusionReason reason) noexcept;

}  // namespace lppa::proto
