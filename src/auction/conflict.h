// ConflictGraph: which pairs of SUs may not share a channel.
//
// The paper models interference as axis-aligned proximity: SU_i and SU_j
// conflict iff |x_i - x_j| <= 2*lambda and |y_i - y_j| <= 2*lambda (each
// user's interference range is a square of side 2*lambda centred on it).
// The plaintext path builds the graph from coordinates; the LPPA path
// reconstructs the same graph from hashed prefix submissions — tests
// assert the two graphs are identical.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace lppa::auction {

/// Integer SU coordinates (quantised metres), as PPBS requires
/// non-negative integers.
struct SuLocation {
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  bool operator==(const SuLocation&) const = default;
};

/// The paper's conflict predicate.
bool locations_conflict(const SuLocation& a, const SuLocation& b,
                        std::uint64_t lambda) noexcept;

class ConflictGraph {
 public:
  explicit ConflictGraph(std::size_t num_users);

  /// Builds the graph from plaintext coordinates (the baseline path).
  static ConflictGraph from_locations(const std::vector<SuLocation>& locations,
                                      std::uint64_t lambda);

  /// Sweep-line variant: sorts by x and only tests pairs within the
  /// 2λ x-window — O(N log N + E·window) instead of O(N²) pairs.  The
  /// masked (PPBS) path cannot use this shortcut (hashed coordinates
  /// admit no sorting), but it has an equivalent escape from O(N²): the
  /// digest hash-join of prefix/digest_index.h, which joins on digest
  /// equality instead of coordinate order (bench/perf_scaling compares
  /// the two).  Produces exactly the same graph.
  static ConflictGraph from_locations_sweep(
      const std::vector<SuLocation>& locations, std::uint64_t lambda);

  std::size_t num_users() const noexcept { return num_users_; }

  void add_conflict(std::size_t i, std::size_t j);
  bool conflicts(std::size_t i, std::size_t j) const;

  /// Churn delta updates.  The graph keeps a fixed user universe (slot
  /// roster); arrivals and departures toggle a slot's edges in place.

  /// Detaches slot i from every neighbour: i becomes isolated.
  /// O(degree) list edits.
  void remove_su(std::size_t i);

  /// Attaches slot i (which must currently be isolated) to every slot in
  /// `neighbors` — the caller supplies the probed conflict set.
  void add_su(std::size_t i, const std::vector<std::size_t>& neighbors);

  /// remove_su followed by add_su: slot i moved to a new location.
  void move_su(std::size_t i, const std::vector<std::size_t>& neighbors);

  /// N(i): neighbours of user i, ascending ids.  Valid until the next
  /// mutation of the graph.
  std::span<const std::uint32_t> neighbors(std::size_t i) const;

  std::size_t edge_count() const noexcept;

  /// Same user count and same edge set (the lists are canonical: sorted,
  /// duplicate-free).
  bool operator==(const ConflictGraph&) const = default;

 private:
  std::size_t num_users_;
  /// Sorted neighbour lists: O(n + E) memory, where a bitset row per
  /// user cost n² bits.
  std::vector<std::vector<std::uint32_t>> adjacency_;
};

}  // namespace lppa::auction
