#include "auction/conflict.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/error.h"

namespace lppa::auction {

bool locations_conflict(const SuLocation& a, const SuLocation& b,
                        std::uint64_t lambda) noexcept {
  const std::uint64_t dx = a.x > b.x ? a.x - b.x : b.x - a.x;
  const std::uint64_t dy = a.y > b.y ? a.y - b.y : b.y - a.y;
  // PPBS checks "x_i in [x_j - 2l, x_j + 2l]", an inclusive predicate, so
  // the plaintext reference uses <= to match it exactly.
  return dx <= 2 * lambda && dy <= 2 * lambda;
}

namespace {

/// Inserts `v` into the sorted list `list` unless already present.
/// Builders that add edges in id order hit the append fast path.
void insert_sorted(std::vector<std::uint32_t>& list, std::uint32_t v) {
  if (list.empty() || list.back() < v) {
    list.push_back(v);
    return;
  }
  const auto it = std::lower_bound(list.begin(), list.end(), v);
  if (*it != v) list.insert(it, v);
}

void erase_sorted(std::vector<std::uint32_t>& list, std::uint32_t v) {
  const auto it = std::lower_bound(list.begin(), list.end(), v);
  if (it != list.end() && *it == v) list.erase(it);
}

}  // namespace

ConflictGraph::ConflictGraph(std::size_t num_users)
    : num_users_(num_users), adjacency_(num_users) {
  LPPA_REQUIRE(num_users > 0, "ConflictGraph requires at least one user");
  LPPA_REQUIRE(num_users <= std::numeric_limits<std::uint32_t>::max(),
               "ConflictGraph user ids must fit in 32 bits");
}

ConflictGraph ConflictGraph::from_locations(
    const std::vector<SuLocation>& locations, std::uint64_t lambda) {
  ConflictGraph g(locations.size());
  for (std::size_t i = 0; i < locations.size(); ++i) {
    for (std::size_t j = i + 1; j < locations.size(); ++j) {
      if (locations_conflict(locations[i], locations[j], lambda)) {
        g.add_conflict(i, j);
      }
    }
  }
  return g;
}

ConflictGraph ConflictGraph::from_locations_sweep(
    const std::vector<SuLocation>& locations, std::uint64_t lambda) {
  ConflictGraph g(locations.size());
  std::vector<std::size_t> order(locations.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return locations[a].x < locations[b].x;
  });

  const std::uint64_t diameter = 2 * lambda;
  std::size_t window_start = 0;
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const auto& current = locations[order[pos]];
    // Slide the window: keep only candidates within 2λ on the x axis.
    while (locations[order[window_start]].x + diameter < current.x) {
      ++window_start;
    }
    for (std::size_t other = window_start; other < pos; ++other) {
      if (locations_conflict(current, locations[order[other]], lambda)) {
        g.add_conflict(order[pos], order[other]);
      }
    }
  }
  return g;
}

void ConflictGraph::add_conflict(std::size_t i, std::size_t j) {
  LPPA_REQUIRE(i < num_users_ && j < num_users_, "user index out of range");
  LPPA_REQUIRE(i != j, "a user does not conflict with itself");
  insert_sorted(adjacency_[i], static_cast<std::uint32_t>(j));
  insert_sorted(adjacency_[j], static_cast<std::uint32_t>(i));
}

void ConflictGraph::remove_su(std::size_t i) {
  LPPA_REQUIRE(i < num_users_, "user index out of range");
  for (const std::uint32_t j : adjacency_[i]) {
    erase_sorted(adjacency_[j], static_cast<std::uint32_t>(i));
  }
  adjacency_[i] = {};
}

void ConflictGraph::add_su(std::size_t i,
                           const std::vector<std::size_t>& neighbors) {
  LPPA_REQUIRE(i < num_users_, "user index out of range");
  LPPA_REQUIRE(adjacency_[i].empty(), "add_su requires an isolated slot");
  for (std::size_t j : neighbors) add_conflict(i, j);
}

void ConflictGraph::move_su(std::size_t i,
                            const std::vector<std::size_t>& neighbors) {
  remove_su(i);
  add_su(i, neighbors);
}

bool ConflictGraph::conflicts(std::size_t i, std::size_t j) const {
  LPPA_REQUIRE(i < num_users_ && j < num_users_, "user index out of range");
  if (i == j) return false;
  return std::binary_search(adjacency_[i].begin(), adjacency_[i].end(),
                            static_cast<std::uint32_t>(j));
}

std::span<const std::uint32_t> ConflictGraph::neighbors(std::size_t i) const {
  LPPA_REQUIRE(i < num_users_, "user index out of range");
  return adjacency_[i];
}

std::size_t ConflictGraph::edge_count() const noexcept {
  std::size_t total = 0;
  for (const auto& adj : adjacency_) total += adj.size();
  return total / 2;
}

}  // namespace lppa::auction
