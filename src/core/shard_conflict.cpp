#include "core/shard_conflict.h"

#include <algorithm>

#include "common/error.h"
#include "common/thread_pool.h"
#include "obs/span.h"

namespace lppa::core {

std::vector<prefix::DigestIndex> build_tile_indexes(
    const std::vector<LocationSubmission>& submissions,
    const shard::ShardAssignment& assignment, std::size_t num_threads,
    obs::MetricsRegistry* metrics, const obs::Span* parent) {
  LPPA_REQUIRE(assignment.shard_of.size() == submissions.size(),
               "shard assignment must cover every submission");
  std::vector<prefix::DigestIndex> index(assignment.num_shards);
  parallel_for(index.size(), num_threads, [&](std::size_t s) {
    obs::Span build_span(metrics, "shard.index_build", parent);
    // Pre-sized to the exact occupancy (members + halo) so the build
    // never pays rehash churn.
    std::size_t expected = 0;
    for (const std::uint32_t j : assignment.members[s]) {
      expected += submissions[j].x_range.size();
    }
    for (const std::uint32_t j : assignment.halo[s]) {
      expected += submissions[j].x_range.size();
    }
    index[s].reserve(expected);
    for (const std::uint32_t j : assignment.members[s]) {
      index[s].insert_all(submissions[j].x_range, j);
    }
    // The halo exchange: ship ONLY the boundary SUs' index entries —
    // the per-tile working set stays bounded by the tile population
    // plus a 2λ-wide border strip, never the global index.
    for (const std::uint32_t j : assignment.halo[s]) {
      index[s].insert_all(submissions[j].x_range, j);
    }
  });
  return index;
}

std::vector<std::uint32_t> probe_upper_partners(
    const std::vector<LocationSubmission>& submissions,
    const prefix::DigestIndex& home, std::uint32_t i) {
  // Family of the probing SU against indexed ranges, keep candidates
  // j > i, then y-confirm — one direction suffices, the plaintext
  // predicate is symmetric.
  std::vector<std::uint32_t> candidates;
  for (const auto& d : submissions[i].x_family.digests()) {
    home.collect(d, candidates);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::vector<std::uint32_t> partners;
  for (const std::uint32_t j : candidates) {
    if (j <= i) continue;
    if (submissions[i].y_family.intersects(submissions[j].y_range)) {
      partners.push_back(j);
    }
  }
  return partners;
}

auction::ConflictGraph probe_tile_indexes(
    const std::vector<LocationSubmission>& submissions,
    const shard::ShardAssignment& assignment,
    const std::vector<prefix::DigestIndex>& indexes, std::size_t num_threads,
    obs::MetricsRegistry* metrics, ShardConflictStats* stats,
    const obs::Span* parent) {
  const std::size_t n = submissions.size();
  const std::size_t shards = assignment.num_shards;
  LPPA_REQUIRE(assignment.shard_of.size() == n,
               "shard assignment must cover every submission");
  LPPA_REQUIRE(indexes.size() == shards, "one index per tile required");

  // Each member SU probes its HOME shard's index only.  The loop runs
  // over SUs, not shards, so a single tile keeps per-SU thread
  // parallelism; hits[i] is written solely by the task probing i, so the
  // edge set is schedule- and shard-count-independent.
  std::vector<std::uint32_t> probers;
  probers.reserve(n);
  for (const auto& members : assignment.members) {
    probers.insert(probers.end(), members.begin(), members.end());
  }
  std::vector<std::vector<std::uint32_t>> hits(n);
  obs::Span probe_span(metrics, "shard.probe", parent);
  parallel_for(probers.size(), num_threads, [&](std::size_t k) {
    const std::uint32_t i = probers[k];
    hits[i] = probe_upper_partners(submissions,
                                   indexes[assignment.shard_of[i]], i);
  });
  probe_span.end();

  auction::ConflictGraph g(n);
  ShardConflictStats local_stats;
  local_stats.boundary_sus = assignment.boundary_sus;
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::uint32_t j : hits[i]) {
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
      local_stats.halo_entries += submissions[j].x_range.size();
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
