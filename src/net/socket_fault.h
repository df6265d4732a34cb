// SocketFaultInjector: deterministic transport-level fault injection.
//
// The bus-level proto::FaultInjector rules on whole messages; the socket
// transport extends the model down to the byte stream.  Five fault
// classes, mutually exclusive per frame (one uniform draw cascaded
// through them, same discipline as FaultSpec):
//
//   kTruncate  — the frame is cut at a deterministic byte boundary and
//                the connection is torn down (the peer sees a torn frame
//                followed by EOF / RST and must reconnect + resend);
//   kReset    — the connection is aborted (SO_LINGER 0 → RST) before the
//                frame is sent at all;
//   kDelay    — the frame is held for 1..max_delay_ticks ticks (one tick
//                = one ClientPoolConfig::tick wall duration) before
//                hitting the socket;
//   kDuplicate — the frame bytes are written twice back to back (the
//                session's redelivery classification must absorb it);
//   kFragment  — the frame is written in a few pieces, split at seeded
//                cut points, with one send() per piece, so the server's
//                FrameDecoder sees partial reads inside the frame.  (The
//                decoder's every-split-point coverage is net_frame_test's
//                job; over loopback, per-byte sends would not even
//                guarantee per-byte reads.)
//
// Plus one targeted, non-probabilistic class: SocketFaultSpec::mute_su
// names an SU whose every frame is silently swallowed (kMute) — the
// deterministic "silent party" the deadline-quorum degradation tests
// need, mirroring a bus FaultSpec{drop=1.0} party spec.
//
// Determinism: the verdict for (su, seq) is a pure function of the
// injector seed — each decision re-derives its own Rng from
// derive_stream_seed(seed, su << 20 | seq), so verdicts do not depend on
// arrival order, retries elsewhere, or thread scheduling.  A per-SU
// fault budget (max_faults_per_su) guarantees convergence: once an SU
// has burned its budget, its traffic is delivered clean, so every
// faulted round terminates with the same awards as a clean one.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "proto/fault.h"

namespace lppa::net {

/// Per-frame transport fault probabilities.  Mutually exclusive per
/// frame; all zero = clean transport.
struct SocketFaultSpec {
  double truncate = 0.0;   ///< cut mid-frame, then tear the connection
  double reset = 0.0;      ///< abortive close before sending
  double delay = 0.0;      ///< held 1..max_delay_ticks ticks
  double duplicate = 0.0;  ///< frame bytes sent twice
  double fragment = 0.0;   ///< sent in pieces split at seeded cut points
  std::size_t max_delay_ticks = 2;
  /// Faults charged per SU before its traffic goes clean; bounds the
  /// retry storm so every faulted round converges.
  std::size_t max_faults_per_su = 4;

  static constexpr std::size_t kNoMute = static_cast<std::size_t>(-1);
  /// Targeted, deterministic fault: every frame of this SU is silently
  /// dropped before it reaches the socket — the wire twin of a bus
  /// FaultSpec{drop=1.0} party spec.  Unlike the probabilistic classes
  /// it is not charged against max_faults_per_su (a muted SU never goes
  /// clean), which is what makes deadline-quorum degradation
  /// deterministic over sockets.
  std::size_t mute_su = kNoMute;
};

/// Counters mirroring proto::FaultCounters for the socket classes.
struct SocketFaultCounters {
  std::size_t frames = 0;  ///< frames the injector ruled on
  std::size_t truncations = 0;
  std::size_t resets = 0;
  std::size_t delays = 0;
  std::size_t duplicates = 0;
  std::size_t fragments = 0;
  std::size_t mutes = 0;  ///< frames swallowed by SocketFaultSpec::mute_su
};

struct SocketFaultDecision {
  enum class Kind : std::uint8_t {
    kNone,
    kTruncate,
    kReset,
    kDelay,
    kDuplicate,
    kFragment,
    kMute,
  };
  /// Most cut points a kFragment verdict splits a frame at.
  static constexpr std::size_t kMaxFragmentCuts = 3;

  Kind kind = Kind::kNone;
  std::size_t cut_at = 0;      ///< kTruncate: bytes delivered before the cut
  std::size_t delay_ticks = 0; ///< kDelay: hold duration
  /// kFragment: strictly increasing cut offsets inside the frame.
  std::vector<std::size_t> fragment_cuts;
};

class SocketFaultInjector {
 public:
  explicit SocketFaultInjector(std::uint64_t seed, SocketFaultSpec spec = {});

  /// Rules on send attempt `seq` (per-SU, 0-based, strictly increasing
  /// — the client numbers every send attempt, including resends) of
  /// `su`, whose encoded size is `frame_bytes`.  The verdict is a pure
  /// function of (seed, su, seq, frame_bytes) plus the SU's remaining
  /// fault budget, which itself only depends on the SU's earlier seqs —
  /// so a fault schedule never depends on thread scheduling or on other
  /// SUs' traffic.
  SocketFaultDecision decide(std::size_t su, std::size_t seq,
                             std::size_t frame_bytes);

  /// Validates the delay budget against a session deadline, reusing the
  /// bus-level rule (satellite 2): throws LppaError(kInvalidArgument)
  /// when a delayed frame could land after the round commits.
  void require_within_deadline(std::size_t deadline_ticks) const;

  const SocketFaultCounters& counters() const noexcept { return counters_; }

 private:
  std::uint64_t seed_;
  SocketFaultSpec spec_;
  SocketFaultCounters counters_;
  /// Faults already charged to each SU (budget bookkeeping) and the
  /// highest seq ruled on (so replays don't double-count).
  std::vector<std::size_t> charged_;
  std::vector<std::size_t> next_seq_;
};

}  // namespace lppa::net
