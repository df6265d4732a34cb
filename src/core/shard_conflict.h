// The conflict-graph build: per-shard digest indexes plus a halo
// exchange of boundary index entries.  It is the only production build;
// PpbsLocation::build_conflict_graph is this function over a one-tile
// assignment, where the single index holds every x-range digest.
//
// Each shard indexes only the x-ranges of its own tile's SUs *plus its
// halo* — the foreign SUs whose 2λ interference box overlaps the tile —
// and each SU probes only its home shard's index.
//
// Why this finds exactly the one-tile edge set: take a conflicting pair
// (a, b), a < b.  If they share a tile, b's range sits in a's home index
// as a member entry.  If not, the conflict predicate |Δ| <= 2λ puts a
// inside b's interference box, so that box overlaps a's tile and the
// halo exchange has shipped b's range digests into a's home index.
// Either way, probing a discovers candidate b, keeps it (b > a), and
// y-confirms with the same family-vs-range orientation as the one-tile
// build — so the tested digest multisets per pair are identical, and
// with them the graph (up to the same 2^-256 padding-collision caveat
// the indexed-vs-pairwise argument already carries; the one-tile build
// can additionally "test" spurious far pairs that a halo never ships,
// whose x-hit probability is that same 2^-256).  No pair is ever reported
// twice: SU i is probed exactly once, in its home shard, and the j > i
// filter kills the mirror-image discovery.
//
// The build is two steps — build_tile_indexes, then probe_tile_indexes —
// so core::ChurnState can keep the per-tile indexes it builds with and
// find an arriving SU's upper partners with the same probe_upper_partners.
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
  std::size_t halo_entries = 0;  ///< (digest, owner) pairs shipped by halos
  std::size_t boundary_sus = 0;  ///< SUs within 2λ of their tile edge
  std::size_t halo_edges = 0;    ///< edges crossing a tile border
  std::size_t local_edges = 0;   ///< edges inside one tile
  std::size_t peak_index_bytes = 0;  ///< largest per-shard DigestIndex
};

/// The index step: per tile, a DigestIndex of the x-range digests of its
/// members plus its halo, pre-sized to that occupancy.  Tiles build in
/// parallel, one task and one "shard.index_build" span (under `parent`)
/// per tile.
std::vector<prefix::DigestIndex> build_tile_indexes(
    const std::vector<LocationSubmission>& submissions,
    const shard::ShardAssignment& assignment, std::size_t num_threads,
    obs::MetricsRegistry* metrics = nullptr, const obs::Span* parent = nullptr);

/// The probe of one SU i: its x-family against `home` (its home tile's
/// index), candidates j > i kept and y-confirmed as
/// i.y_family ∩ j.y_range ≠ ∅.  Returns the partners ascending.
std::vector<std::uint32_t> probe_upper_partners(
    const std::vector<LocationSubmission>& submissions,
    const prefix::DigestIndex& home, std::uint32_t i);

/// The probe step: every member SU runs probe_upper_partners against its
/// home tile's entry of `indexes` (in parallel, one "shard.probe" span
/// under `parent` for the phase), and the edges become the graph.  Records
/// the shard.* counters and gauges into `metrics` and fills `stats`.
auction::ConflictGraph probe_tile_indexes(
    const std::vector<LocationSubmission>& submissions,
    const shard::ShardAssignment& assignment,
    const std::vector<prefix::DigestIndex>& indexes, std::size_t num_threads,
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
