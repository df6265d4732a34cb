// The conflict-graph build: per-shard digest indexes plus a halo
// exchange of boundary index entries.  It is the only production build;
// PpbsLocation::build_conflict_graph is this function over a one-tile
// assignment, where the single index pair holds every range digest.
//
// The conflict predicate is two set intersections, one per axis:
// x_family_i ∩ x_range_j ≠ ∅ ∧ y_family_i ∩ y_range_j ≠ ∅.  Each shard
// indexes the x-range AND the y-range digests of its own tile's SUs
// *plus its halo* — the foreign SUs whose 2λ interference box overlaps
// the tile — and each SU probes only its home shard's index pair: its
// x-family against the x index, its y-family against the y index.  The
// two hit lists, deduped and cut to ids j > i, are intersected; a pair
// is an edge iff it hit on both axes.  No digest merge runs per pair.
//
// Why this finds exactly the one-tile edge set: take a conflicting pair
// (a, b), a < b.  If they share a tile, b's ranges sit in a's home
// index pair as member entries.  If not, the conflict predicate
// |Δ| <= 2λ puts a inside b's interference box, so that box overlaps
// a's tile and the halo exchange has shipped b's range digests into a's
// home index pair.  The halo is one SU set for both axes, so either
// both of b's ranges are in a's home indexes or neither is, and the
// family-vs-range orientation is the one-tile build's — the tested
// digest multisets per pair are identical, and with them the graph (up
// to the same 2^-256 padding-collision caveat the indexed-vs-pairwise
// argument already carries; the one-tile build can additionally "test"
// spurious far pairs that a halo never ships, whose hit probability is
// that same 2^-256).  No pair is ever reported twice: SU i is probed
// exactly once, in its home shard, and the j > i filter kills the
// mirror-image discovery.
//
// The build is two steps — build_tile_indexes, then probe_tile_indexes
// — so core::ChurnState can keep the per-tile index pairs it builds
// with and find an arriving SU's upper partners with the same
// probe_upper_partners.
#pragma once

#include <cstddef>
#include <vector>

#include "core/ppbs_location.h"
#include "prefix/digest_index.h"
#include "shard/shard_plan.h"

namespace lppa::obs {
class MetricsRegistry;
class Span;
}  // namespace lppa::obs

namespace lppa::core {

/// What the sharded build observed — fed to shard.* obs counters and the
/// perf_scaling shard phase JSON.
struct ShardConflictStats {
  std::size_t halo_entries = 0;  ///< halo-shipped (digest, owner) pairs
  std::size_t x_hits = 0;        ///< Σ_i distinct x candidates j > i
  std::size_t y_hits = 0;        ///< Σ_i distinct y candidates j > i
  std::size_t boundary_sus = 0;  ///< SUs within 2λ of their tile edge
  std::size_t halo_edges = 0;    ///< edges crossing a tile border
  std::size_t local_edges = 0;   ///< edges inside one tile
  std::size_t peak_index_bytes = 0;  ///< largest per-shard index pair
};

/// One tile's indexes: the x-range and the y-range digests of its
/// members plus its halo.
struct TileIndex {
  prefix::DigestIndex x_range;
  prefix::DigestIndex y_range;

  std::size_t memory_bytes() const noexcept {
    return x_range.memory_bytes() + y_range.memory_bytes();
  }
};

/// The index step: per tile, a TileIndex pre-sized to its occupancy.
/// Tiles build in parallel, one task and one "shard.index_build" span
/// (under `parent`) per tile.
std::vector<TileIndex> build_tile_indexes(
    const std::vector<LocationSubmission>& submissions,
    const shard::ShardAssignment& assignment, std::size_t num_threads,
    obs::MetricsRegistry* metrics = nullptr, const obs::Span* parent = nullptr);

/// What probing one SU i found.
struct UpperPartners {
  std::vector<std::uint32_t> ids;  ///< partners j > i, ascending
  std::size_t x_hits = 0;          ///< distinct x-axis candidates j > i
  std::size_t y_hits = 0;          ///< distinct y-axis candidates j > i
};

/// The probe of one SU i against `home` (its home tile's index pair):
/// x-family hits on the x index joined with y-family hits on the y
/// index, both cut to ids j > i.
UpperPartners probe_upper_partners(
    const std::vector<LocationSubmission>& submissions, const TileIndex& home,
    std::uint32_t i);

/// The probe step: every member SU runs probe_upper_partners against its
/// home tile's entry of `indexes` (in parallel, one "shard.probe" span
/// under `parent` for the phase), and the edges become the graph.  Records
/// the shard.* counters and gauges into `metrics` (the join's
/// shard.x_hits, shard.y_hits and shard.join_edges summed from the
/// per-SU results) and fills `stats`.
auction::ConflictGraph probe_tile_indexes(
    const std::vector<LocationSubmission>& submissions,
    const shard::ShardAssignment& assignment,
    const std::vector<TileIndex>& indexes, std::size_t num_threads,
    obs::MetricsRegistry* metrics = nullptr,
    ShardConflictStats* stats = nullptr, const obs::Span* parent = nullptr);

/// Both steps.  Bit-identical to the all-pairs reference for any shard
/// count and `num_threads`.
auction::ConflictGraph build_conflict_graph_sharded(
    const std::vector<LocationSubmission>& submissions,
    const shard::ShardAssignment& assignment, std::size_t num_threads,
    obs::MetricsRegistry* metrics = nullptr,
    ShardConflictStats* stats = nullptr, const obs::Span* parent = nullptr);

}  // namespace lppa::core
