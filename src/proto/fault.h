// FaultInjector: seeded, per-party message-fault injection for the
// MessageBus.
//
// The wire harness is where the library's robustness claims get tested:
// every experiment should be runnable under dropped, duplicated,
// reordered, corrupted, and delayed messages, and under Byzantine
// parties that corrupt everything they send.  The injector decides the
// fate of each message at send time from its own Rng stream, so a fault
// schedule is a pure function of (seed, message sequence) — the same
// seed reproduces the same faults regardless of what the parties do with
// their own randomness.
//
// Attach to a bus with MessageBus::set_fault_injector; the bus consults
// decide() per send and applies the verdict (see proto/bus.h).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"

namespace lppa::obs {
class MetricsRegistry;
}  // namespace lppa::obs

namespace lppa::proto {

struct Address;  // proto/bus.h

/// Per-party fault probabilities.  The five delivery faults are mutually
/// exclusive per message (one uniform draw is cascaded through them);
/// corruption composes with delivery for Byzantine senders.
///
/// Tick-based delays vs wall-clock transports: `delay` holds a message
/// for 1..max_delay_ticks *bus ticks*, and a tick is whatever the
/// session driver says it is.  On the in-process MessageBus a tick is
/// one MessageBus::advance() call — the bus adapter of the round driver
/// spends ticks explicitly (HardenedSessionConfig::backoff_ticks,
/// RecoverableSessionConfig::deadline_ticks), so delays and deadlines
/// share one logical clock by construction.  The socket transport
/// (src/net) has no advance(): it maps one tick to one wall-clock
/// `ServerConfig::tick` / `ClientPoolConfig::tick` duration, and its
/// fault delays are scheduled on that clock.  Under either mapping a
/// delay that can exceed the session deadline is a misconfiguration,
/// not a fault model: the message is indistinguishable from a drop, the
/// round degrades or excludes the sender, and the "delay" counter lies
/// about what was simulated.  require_delay_within_deadline() turns
/// that silent misbehaviour into a typed error at configuration time.
struct FaultSpec {
  double drop = 0.0;       ///< message silently discarded
  double duplicate = 0.0;  ///< delivered twice
  double reorder = 0.0;    ///< jumps the destination queue
  double corrupt = 0.0;    ///< random bytes flipped in transit
  double delay = 0.0;      ///< held for 1..max_delay_ticks bus ticks
  std::size_t max_delay_ticks = 2;
};

/// Validates that `spec`'s delay fault cannot outlive a session deadline
/// of `deadline_ticks` ticks (0 = no deadline, always fine).  Throws
/// LppaError(kInvalidArgument) when spec.delay > 0 and
/// spec.max_delay_ticks >= deadline_ticks: a delayed message could then
/// land after the round committed, which every driver would silently
/// misreport as a drop/exclusion.  Both the in-process recoverable
/// session tests and the socket transport (net::SocketFaultInjector)
/// call this before arming an injector against a deadlined round.
void require_delay_within_deadline(const FaultSpec& spec,
                                   std::size_t deadline_ticks);

/// Running totals of injected faults; copied into RoundReport.
struct FaultCounters {
  std::size_t messages = 0;  ///< sends the injector ruled on
  std::size_t drops = 0;
  std::size_t duplicates = 0;
  std::size_t reorders = 0;
  std::size_t corruptions = 0;
  std::size_t delays = 0;
};

/// The injector's verdict for one message.
struct FaultDecision {
  enum class Delivery : std::uint8_t {
    kNormal,
    kDrop,
    kDuplicate,
    kReorder,
    kDelay,
  };
  Delivery delivery = Delivery::kNormal;
  bool corrupt = false;
  std::size_t delay_ticks = 0;  ///< meaningful when delivery == kDelay
};

class FaultInjector {
 public:
  /// `spec` applies to every sender without an override.
  explicit FaultInjector(std::uint64_t seed, FaultSpec spec = {});

  /// Overrides the fault profile of one sender.
  void set_party_spec(const Address& party, FaultSpec spec);

  /// Marks a party Byzantine: every message it sends is corrupted (its
  /// delivery faults still apply on top).  Models a bidder that always
  /// submits garbage.
  void mark_byzantine(const Address& party);

  /// Rules on one message from `from`; advances the fault Rng stream.
  FaultDecision decide(const Address& from, const Address& to);

  /// Flips 1-4 random bytes of `message` in place (appends one garbage
  /// byte when empty, so corruption is never a no-op).
  void corrupt_in_place(Bytes& message);

  const FaultCounters& counters() const noexcept { return counters_; }

  /// Attaches (or detaches, with nullptr) an observability sink: decide()
  /// mirrors FaultCounters into per-fault-type counters `fault.messages`
  /// / `fault.drops` / `fault.duplicates` / `fault.reorders` /
  /// `fault.corruptions` / `fault.delays`.  Not owned.
  void set_metrics(obs::MetricsRegistry* metrics) noexcept;

 private:
  const FaultSpec& spec_for(const Address& party) const;

  Rng rng_;
  FaultSpec default_spec_;
  std::map<std::pair<std::uint8_t, std::size_t>, FaultSpec> overrides_;
  std::set<std::pair<std::uint8_t, std::size_t>> byzantine_;
  FaultCounters counters_;
  obs::MetricsRegistry* metrics_ = nullptr;  ///< not owned; may be null
};

/// Where the round driver (proto/round_driver.h) may lose the
/// auctioneer process.  Each point sits just after the matching journal
/// record is durable, so a crash there loses all in-memory state but
/// never the log — the atomicity contract of a write-ahead design.
enum class CrashPoint : std::uint8_t {
  kAfterIngest = 0,       ///< after an accepted submission was journaled
  kAfterFinalize = 1,     ///< after the admission phase commit
  kAfterAllocation = 2,   ///< after the allocation snapshot commit
  kAfterChargeCommit = 3, ///< after a charge-result batch was journaled
  kBeforePublish = 4,     ///< charging complete, announcement not yet out
  kMidChurn = 5,          ///< after a churn (departure/arrival) record
};
inline constexpr std::size_t kNumCrashPoints = 6;

/// Thrown by CrashInjector::checkpoint to model the auctioneer process
/// dying.  Deliberately NOT an LppaError: protocol-boundary code catches
/// LppaError to classify peer garbage, and a crash must tear through
/// those handlers like a real process death would.
struct CrashSignal {
  CrashPoint point = CrashPoint::kAfterIngest;
  std::size_t hit = 0;  ///< which occurrence of the point fired
};

/// CrashInjector: kills the auctioneer at explicitly armed crash
/// points.  Sibling of FaultInjector — the injector owns the crash
/// schedule so a crashy run is a pure function of (armed points,
/// checkpoint sequence), independent of the parties' randomness.
///
/// Default-constructed it is a pure counter (never crashes): a dry run
/// measures how many times each point is reached, which the crash-matrix
/// test sweeps exhaustively.  arm(point, nth) crashes exactly at the nth
/// hit of a point, once.
class CrashInjector {
 public:
  /// Arms one crash: the nth (0-based) future hit of `point` throws.
  void arm(CrashPoint point, std::size_t nth);

  /// Counts the hit and throws CrashSignal when the schedule says so.
  void checkpoint(CrashPoint point);

  std::size_t hits(CrashPoint point) const noexcept {
    return hits_[static_cast<std::size_t>(point)];
  }
  std::size_t total_hits() const noexcept;
  std::size_t crashes_fired() const noexcept { return crashes_; }

 private:
  struct Armed {
    CrashPoint point;
    std::size_t nth;
    bool fired = false;
  };

  std::array<std::size_t, kNumCrashPoints> hits_{};
  std::vector<Armed> armed_;
  std::size_t crashes_ = 0;
};

}  // namespace lppa::proto
