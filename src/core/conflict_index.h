// The masked conflict build: one digest index per axis and one two-axis
// join.  It is the only conflict build; PpbsLocation::build_conflict_graph,
// LppaAuction::run, the wire session and core::ChurnState all run it.
//
// The conflict predicate is two set intersections, one per axis:
// x_family_i ∩ x_range_j ≠ ∅ ∧ y_family_i ∩ y_range_j ≠ ∅.  The build
// indexes every SU's x-range digests in one DigestIndex and its y-range
// digests in another (an IndexPair), and each SU i joins its x-family
// hits on the x index with its y-family hits on the y index, both cut to
// ids j > i; a pair is an edge iff it hit on both axes.  No digest merge
// runs per pair, and the auctioneer needs nothing but the masked
// submissions — no tile, cell or other plaintext hint of where an SU is.
//
// The join is orientation-free: core::ChurnState keeps the build's range
// IndexPair for an arrival's upper partners (its families as the query,
// cut j > u) and a second IndexPair over the live SUs' x- and y-families
// for its lower partners (its ranges as the query, cut j < u).  Both
// directions test family_i against range_u on each axis for a pair
// i < u — the digest multisets the from-scratch build tests — so the
// maintained graph is identical to a rebuild, not merely equal w.h.p.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/ppbs_location.h"
#include "prefix/digest_index.h"

namespace lppa::obs {
class MetricsRegistry;
class Span;
}  // namespace lppa::obs

namespace lppa::core {

/// One digest index per axis.
struct IndexPair {
  prefix::DigestIndex x;
  prefix::DigestIndex y;

  std::size_t memory_bytes() const noexcept {
    return x.memory_bytes() + y.memory_bytes();
  }
};

/// Which digest set of a LocationSubmission an index holds per axis:
/// {&LocationSubmission::x_range, &LocationSubmission::y_range} for the
/// conflict build, {&...::x_family, &...::y_family} for churn's lower
/// partners.
using AxisSet = prefix::HashedPrefixSet LocationSubmission::*;

/// The one index builder: `x_set` of every submission into the x index
/// and `y_set` into the y index, each by one DigestIndex::build (exact
/// occupancy, each digest's owners one contiguous run).
/// The two axes build as two parallel tasks under one
/// "conflict.index_build" span (under `parent`).  Empty submissions (the
/// churn roster's dead slots) contribute nothing.
IndexPair build_index_pair(const std::vector<LocationSubmission>& submissions,
                           AxisSet x_set, AxisSet y_set,
                           std::size_t num_threads,
                           obs::MetricsRegistry* metrics = nullptr,
                           const obs::Span* parent = nullptr);

/// Which side of the querying id `i` a join keeps.
enum class JoinCut { kAbove, kBelow };  ///< j > i, j < i

/// What one join found.
struct JoinResult {
  std::vector<std::uint32_t> ids;  ///< partners, ascending
  std::size_t x_hits = 0;          ///< distinct x-axis candidates past the cut
  std::size_t y_hits = 0;          ///< distinct y-axis candidates past the cut
};

/// The two-axis join: the owners of `x_query`'s digests in `index.x` and
/// of `y_query`'s digests in `index.y`, each deduped and cut to the
/// `cut` side of `i`, then intersected.  Every key comparison is the
/// index's ct_equal on the full digest.
JoinResult join_partners(const prefix::HashedPrefixSet& x_query,
                         const prefix::HashedPrefixSet& y_query,
                         const IndexPair& index, std::uint32_t i, JoinCut cut);

/// What a conflict build observed — fed to the conflict.* obs counters
/// and gauge.
struct ConflictStats {
  std::size_t x_hits = 0;       ///< Σ_i distinct x candidates j > i
  std::size_t y_hits = 0;       ///< Σ_i distinct y candidates j > i
  std::size_t join_edges = 0;   ///< edges the join kept
  std::size_t index_bytes = 0;  ///< memory of the range IndexPair
};

/// The probe step over a range IndexPair built from `submissions`: every
/// SU i joins its families against `ranges` with the cut j > i (in
/// parallel, one "conflict.probe" span under `parent`), and the edges
/// become the graph.  Records conflict.x_hits, conflict.y_hits,
/// conflict.join_edges and the conflict.index_bytes gauge into `metrics`
/// and fills `stats`.
auction::ConflictGraph probe_index_pair(
    const std::vector<LocationSubmission>& submissions,
    const IndexPair& ranges, std::size_t num_threads,
    obs::MetricsRegistry* metrics = nullptr, ConflictStats* stats = nullptr,
    const obs::Span* parent = nullptr);

/// Both steps over the range sets.  Bit-identical to the all-pairs
/// reference for any `num_threads`.
auction::ConflictGraph build_conflict_graph(
    const std::vector<LocationSubmission>& submissions,
    std::size_t num_threads, obs::MetricsRegistry* metrics = nullptr,
    ConflictStats* stats = nullptr, const obs::Span* parent = nullptr);

}  // namespace lppa::core
