#include "core/conflict_index.h"

#include <algorithm>
#include <iterator>

#include "common/thread_pool.h"
#include "obs/span.h"

namespace lppa::core {

namespace {

/// Records `set` of every submission into `index` in one bulk build:
/// exact occupancy, no rehash, each digest's owners one contiguous run.
void index_axis(const std::vector<LocationSubmission>& submissions,
                AxisSet set, prefix::DigestIndex& index) {
  std::vector<const prefix::HashedPrefixSet*> sets;
  sets.reserve(submissions.size());
  for (const auto& sub : submissions) sets.push_back(&(sub.*set));
  index.build(sets);
}

/// The distinct owners of `query`'s digests in `index` on the `cut` side
/// of `i`, ascending.
void axis_hits(const prefix::HashedPrefixSet& query,
               const prefix::DigestIndex& index, std::uint32_t i, JoinCut cut,
               std::vector<std::uint32_t>& out) {
  for (const auto& d : query.digests()) index.collect(d, out);
  const auto wrong_side = [i, cut](std::uint32_t j) {
    return cut == JoinCut::kAbove ? j <= i : j >= i;
  };
  out.erase(std::remove_if(out.begin(), out.end(), wrong_side), out.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

}  // namespace

IndexPair build_index_pair(const std::vector<LocationSubmission>& submissions,
                           AxisSet x_set, AxisSet y_set,
                           std::size_t num_threads,
                           obs::MetricsRegistry* metrics,
                           const obs::Span* parent) {
  IndexPair index;
  obs::Span build_span(metrics, "conflict.index_build", parent);
  parallel_for(2, num_threads, [&](std::size_t axis) {
    if (axis == 0) {
      index_axis(submissions, x_set, index.x);
    } else {
      index_axis(submissions, y_set, index.y);
    }
  });
  return index;
}

JoinResult join_partners(const prefix::HashedPrefixSet& x_query,
                         const prefix::HashedPrefixSet& y_query,
                         const IndexPair& index, std::uint32_t i,
                         JoinCut cut) {
  // Per-thread scratch: the hit lists are rebuilt for every SU, so their
  // buffers are reused rather than allocated per join.
  thread_local std::vector<std::uint32_t> x_hits;
  thread_local std::vector<std::uint32_t> y_hits;
  x_hits.clear();
  y_hits.clear();
  axis_hits(x_query, index.x, i, cut, x_hits);
  axis_hits(y_query, index.y, i, cut, y_hits);
  JoinResult result;
  result.x_hits = x_hits.size();
  result.y_hits = y_hits.size();
  std::set_intersection(x_hits.begin(), x_hits.end(), y_hits.begin(),
                        y_hits.end(), std::back_inserter(result.ids));
  return result;
}

auction::ConflictGraph probe_index_pair(
    const std::vector<LocationSubmission>& submissions,
    const IndexPair& ranges, std::size_t num_threads,
    obs::MetricsRegistry* metrics, ConflictStats* stats,
    const obs::Span* parent) {
  const std::size_t n = submissions.size();
  // probed[i] is written solely by the task probing i, so the edge set is
  // schedule-independent.  One direction suffices: the plaintext
  // predicate is symmetric.
  std::vector<JoinResult> probed(n);
  obs::Span probe_span(metrics, "conflict.probe", parent);
  parallel_for(n, num_threads, [&](std::size_t k) {
    const std::uint32_t i = static_cast<std::uint32_t>(k);
    probed[k] = join_partners(submissions[k].x_family, submissions[k].y_family,
                              ranges, i, JoinCut::kAbove);
  });
  probe_span.end();

  // Ascending i over ascending partner lists: every neighbour list of
  // the graph grows in id order.
  auction::ConflictGraph g(n);
  ConflictStats local_stats;
  for (std::size_t i = 0; i < n; ++i) {
    local_stats.x_hits += probed[i].x_hits;
    local_stats.y_hits += probed[i].y_hits;
    local_stats.join_edges += probed[i].ids.size();
    for (const std::uint32_t j : probed[i].ids) g.add_conflict(i, j);
  }
  local_stats.index_bytes = ranges.memory_bytes();

  if (metrics != nullptr) {
    metrics->counter("conflict.x_hits").inc(local_stats.x_hits);
    metrics->counter("conflict.y_hits").inc(local_stats.y_hits);
    metrics->counter("conflict.join_edges").inc(local_stats.join_edges);
    metrics->gauge("conflict.index_bytes")
        .set(static_cast<double>(local_stats.index_bytes));
  }
  if (stats != nullptr) *stats = local_stats;
  return g;
}

auction::ConflictGraph build_conflict_graph(
    const std::vector<LocationSubmission>& submissions,
    std::size_t num_threads, obs::MetricsRegistry* metrics,
    ConflictStats* stats, const obs::Span* parent) {
  return probe_index_pair(
      submissions,
      build_index_pair(submissions, &LocationSubmission::x_range,
                       &LocationSubmission::y_range, num_threads, metrics,
                       parent),
      num_threads, metrics, stats, parent);
}

}  // namespace lppa::core
