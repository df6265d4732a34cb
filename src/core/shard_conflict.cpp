#include "core/shard_conflict.h"

#include <algorithm>
#include <iterator>

#include "common/error.h"
#include "common/thread_pool.h"
#include "obs/span.h"

namespace lppa::core {

namespace {

/// Records the `range` digests of tile `s`'s members and halo into
/// `index`, pre-sized to that exact occupancy so the build never pays
/// rehash churn.  The halo exchange ships ONLY the boundary SUs' index
/// entries — the per-tile working set stays bounded by the tile
/// population plus a 2λ-wide border strip, never the global index.
void index_ranges(const std::vector<LocationSubmission>& submissions,
                  const shard::ShardAssignment& assignment, std::size_t s,
                  prefix::HashedPrefixSet LocationSubmission::*range,
                  prefix::DigestIndex& index) {
  const std::vector<std::uint32_t>* owners[] = {&assignment.members[s],
                                                &assignment.halo[s]};
  std::size_t expected = 0;
  for (const auto* list : owners) {
    for (const std::uint32_t j : *list) {
      expected += (submissions[j].*range).size();
    }
  }
  index.reserve(expected);
  for (const auto* list : owners) {
    for (const std::uint32_t j : *list) {
      index.insert_all(submissions[j].*range, j);
    }
  }
}

/// The distinct owners j > i of `family`'s digests in `index`, ascending.
void upper_hits(const prefix::HashedPrefixSet& family,
                const prefix::DigestIndex& index, std::uint32_t i,
                std::vector<std::uint32_t>& out) {
  for (const auto& d : family.digests()) index.collect(d, out);
  out.erase(std::remove_if(out.begin(), out.end(),
                           [i](std::uint32_t j) { return j <= i; }),
            out.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

}  // namespace

std::vector<TileIndex> build_tile_indexes(
    const std::vector<LocationSubmission>& submissions,
    const shard::ShardAssignment& assignment, std::size_t num_threads,
    obs::MetricsRegistry* metrics, const obs::Span* parent) {
  LPPA_REQUIRE(assignment.shard_of.size() == submissions.size(),
               "shard assignment must cover every submission");
  std::vector<TileIndex> index(assignment.num_shards);
  parallel_for(index.size(), num_threads, [&](std::size_t s) {
    obs::Span build_span(metrics, "shard.index_build", parent);
    // The halo is one SU set for both axes, which is what keeps the
    // two-axis join exact across tile borders.
    index_ranges(submissions, assignment, s, &LocationSubmission::x_range,
                 index[s].x_range);
    index_ranges(submissions, assignment, s, &LocationSubmission::y_range,
                 index[s].y_range);
  });
  return index;
}

UpperPartners probe_upper_partners(
    const std::vector<LocationSubmission>& submissions, const TileIndex& home,
    std::uint32_t i) {
  // Family of the probing SU against indexed ranges, per axis, then the
  // join of the two hit lists — one direction suffices, the plaintext
  // predicate is symmetric.  Every key comparison is the index's ct_equal
  // on the full digest.
  std::vector<std::uint32_t> x_hits;
  std::vector<std::uint32_t> y_hits;
  upper_hits(submissions[i].x_family, home.x_range, i, x_hits);
  upper_hits(submissions[i].y_family, home.y_range, i, y_hits);
  UpperPartners result;
  result.x_hits = x_hits.size();
  result.y_hits = y_hits.size();
  std::set_intersection(x_hits.begin(), x_hits.end(), y_hits.begin(),
                        y_hits.end(), std::back_inserter(result.ids));
  return result;
}

auction::ConflictGraph probe_tile_indexes(
    const std::vector<LocationSubmission>& submissions,
    const shard::ShardAssignment& assignment,
    const std::vector<TileIndex>& indexes, std::size_t num_threads,
    obs::MetricsRegistry* metrics, ShardConflictStats* stats,
    const obs::Span* parent) {
  const std::size_t n = submissions.size();
  const std::size_t shards = assignment.num_shards;
  LPPA_REQUIRE(assignment.shard_of.size() == n,
               "shard assignment must cover every submission");
  LPPA_REQUIRE(indexes.size() == shards, "one index per tile required");

  // Each member SU probes its HOME shard's index only.  The loop runs
  // over SUs, not shards, so a single tile keeps per-SU thread
  // parallelism; probed[i] is written solely by the task probing i, so
  // the edge set is schedule- and shard-count-independent.
  std::vector<std::uint32_t> probers;
  probers.reserve(n);
  for (const auto& members : assignment.members) {
    probers.insert(probers.end(), members.begin(), members.end());
  }
  std::vector<UpperPartners> probed(n);
  obs::Span probe_span(metrics, "shard.probe", parent);
  parallel_for(probers.size(), num_threads, [&](std::size_t k) {
    const std::uint32_t i = probers[k];
    probed[i] = probe_upper_partners(submissions,
                                     indexes[assignment.shard_of[i]], i);
  });
  probe_span.end();

  // Ascending i over ascending partner lists: every neighbour list of
  // the graph grows in id order.
  auction::ConflictGraph g(n);
  ShardConflictStats local_stats;
  local_stats.boundary_sus = assignment.boundary_sus;
  for (std::size_t i = 0; i < n; ++i) {
    local_stats.x_hits += probed[i].x_hits;
    local_stats.y_hits += probed[i].y_hits;
    for (const std::uint32_t j : probed[i].ids) {
      g.add_conflict(i, j);
      if (assignment.shard_of[i] != assignment.shard_of[j]) {
        ++local_stats.halo_edges;
      } else {
        ++local_stats.local_edges;
      }
    }
  }
  for (std::size_t s = 0; s < shards; ++s) {
    for (const std::uint32_t j : assignment.halo[s]) {
      local_stats.halo_entries +=
          submissions[j].x_range.size() + submissions[j].y_range.size();
    }
    local_stats.peak_index_bytes =
        std::max(local_stats.peak_index_bytes, indexes[s].memory_bytes());
  }

  if (metrics != nullptr) {
    metrics->gauge("shard.count").set(static_cast<double>(shards));
    metrics->counter("shard.boundary_sus").inc(local_stats.boundary_sus);
    metrics->counter("shard.halo_index_entries").inc(local_stats.halo_entries);
    metrics->counter("shard.halo_edges").inc(local_stats.halo_edges);
    metrics->counter("shard.local_edges").inc(local_stats.local_edges);
    metrics->counter("shard.x_hits").inc(local_stats.x_hits);
    metrics->counter("shard.y_hits").inc(local_stats.y_hits);
    metrics->counter("shard.join_edges")
        .inc(local_stats.halo_edges + local_stats.local_edges);
    metrics->gauge("shard.peak_index_bytes")
        .set(static_cast<double>(local_stats.peak_index_bytes));
  }
  if (stats != nullptr) *stats = local_stats;
  return g;
}

auction::ConflictGraph build_conflict_graph_sharded(
    const std::vector<LocationSubmission>& submissions,
    const shard::ShardAssignment& assignment, std::size_t num_threads,
    obs::MetricsRegistry* metrics, ShardConflictStats* stats,
    const obs::Span* parent) {
  return probe_tile_indexes(
      submissions, assignment,
      build_tile_indexes(submissions, assignment, num_threads, metrics, parent),
      num_threads, metrics, stats, parent);
}

}  // namespace lppa::core
