// Self-tests of the benchmark's own helpers: percentile selection, the
// counting wrappers, the traced replay, and the result line.  Exit 0 when
// every check passes.  With --emit-sample, prints one result line whose
// metrics include a NaN; run.py's self-test strict-parses it and must
// reject it.
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>

#include "core/lppa_auction.h"
#include "driver/counting.h"
#include "driver/layers.h"

using namespace lppa;
using namespace lppa::bench_driver;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

void test_percentile() {
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  expect(percentile(v, 50.0) == 5.0, "p50 of 1..10 is 5");
  expect(percentile(v, 90.0) == 9.0, "p90 of 1..10 is 9");
  expect(percentile(v, 99.0) == 10.0, "p99 of 1..10 is 10");
  expect(percentile(v, 100.0) == 10.0, "p100 is the maximum");
  expect(percentile(v, 1.0) == 1.0, "p1 of 1..10 is 1");
  expect(percentile({}, 50.0) == 0.0, "empty input yields 0");
  expect(percentile({7.0}, 99.0) == 7.0, "one sample is every percentile");
  expect(median({1.0, 2.0, 3.0, 4.0}) == 2.0, "nearest-rank median is a sample");
}

void test_tail_rule() {
  // Highest percentile with at least ten samples beyond its rank.
  expect(tail_percentile(0) == 0.0, "no samples, no tail");
  expect(tail_percentile(19) == 0.0, "19 samples: the median has 9 beyond");
  expect(tail_percentile(20) == 50.0, "20 samples: p50 has 10 beyond");
  expect(tail_percentile(39) == 50.0, "39 samples: p75 has 9 beyond");
  expect(tail_percentile(40) == 75.0, "40 samples: p75 has 10 beyond");
  expect(tail_percentile(100) == 90.0, "100 samples: p90 has 10 beyond");
  expect(tail_percentile(199) == 90.0, "199 samples: p95 has 9 beyond");
  expect(tail_percentile(200) == 95.0, "200 samples: p95 has 10 beyond");
  expect(tail_percentile(1000) == 99.0, "1000 samples: p99 has 10 beyond");
  expect(tail_percentile(10000) == 99.9, "10000 samples: p99.9 has 10 beyond");
}

void test_slot_profile() {
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  expect(tail_mean(v, 99.0) == 199.5, "the slowest 1% of 1..200 is {199, 200}");
  expect(tail_mean({1.0, 2.0, 3.0}, 99.0) == 3.0,
         "nothing beyond the rank: the maximum");
  expect(tail_mean({}, 99.0) == 0.0, "empty input yields 0");

  // Three rounds of 100 slots: slots 0-4 cost 50 in every round, and a
  // stall of 1000 hits slots 50-79 of round 1 only.
  std::vector<double> rounds(300, 1.0);
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t i = 0; i < 5; ++i) rounds[k * 100 + i] = 50.0;
  }
  for (std::size_t i = 50; i < 80; ++i) rounds[100 + i] = 1000.0;
  const std::vector<double> profile = slot_medians(rounds, 100);
  expect(profile.size() == 100 && profile[0] == 50.0 && profile[60] == 1.0,
         "slot medians keep the per-round cost and drop the one-round stall");
  expect(tail_mean(profile, 99.0) == 50.0, "the profile's tail is the 50s");
  expect(percentile(rounds, 99.0) == 1000.0, "the pooled p99 is the stall");
}

core::LppaConfig small_config() {
  core::LppaConfig c;
  c.num_channels = 4;
  c.lambda = 60;
  c.coord_width = 12;
  c.num_threads = 1;
  return c;
}

void test_counting_wrappers() {
  const core::LppaConfig config = small_config();
  core::LppaAuction auction(config, 7);
  const PlainWorld world = uniform_world(
      300, config.num_channels, (1u << config.coord_width) - 2 * config.lambda,
      15, 8);
  Rng round_rng(9);
  const core::LppaOutcome out =
      auction.run(world.locations, world.bids, round_rng);
  const auto& bids = out.view.bids;
  const auto& graph = out.view.conflicts;

  core::EncryptedBidTable plain(bids, config.num_channels);
  const CountingBackend backend(crypto::hmac_backend());
  core::EncryptedBidTable counted(bids, config.num_channels,
                                  core::ArgmaxStrategy::kSortedColumns, 1,
                                  &backend);
  expect(plain.serialize() == counted.serialize(),
         "counting backend leaves the table image unchanged");
  expect(backend.compares() > 0, "counting backend counts compares");

  Rng rng_a(11);
  Rng rng_b(11);
  const auto awards_plain = auction::greedy_allocate(plain, graph, rng_a);
  CountingTableView view(counted);
  const auto awards_counted = auction::greedy_allocate(view, graph, rng_b);
  expect(awards_plain == awards_counted,
         "counting table view leaves awards unchanged");
  expect(view.argmax_calls() > 0 && view.removes() > 0,
         "counting table view counts queries and removals");
}

void test_replay_matches_run() {
  const core::LppaConfig config = small_config();
  core::LppaAuction auction(config, 21);
  const PlainWorld world = uniform_world(
      250, config.num_channels, (1u << config.coord_width) - 2 * config.lambda,
      15, 22);
  Rng run_rng(23);
  Rng replay_rng(23);
  const core::LppaOutcome out = auction.run(world.locations, world.bids, run_rng);
  obs::MetricsRegistry trace;
  const ReplayOutcome replay =
      replay_round(auction, world, replay_rng, &trace);
  expect(replay.awards == out.outcome.awards,
         "traced replay reproduces run()'s awards and charges");
  expect(replay.layers.tail.awards == out.outcome.awards.size(),
         "replay counts every award");
  expect(check_awards(out.outcome.awards, world.locations, world.bids,
                      config.lambda)
             .empty(),
         "run()'s awards pass the output checks");
  expect(!trace.spans().empty() && trace.spans().back().name == "round.replay",
         "replay records its round span");

  // The checks catch a broken outcome.
  auto broken = out.outcome.awards;
  broken.front().charge += 1;
  expect(!check_awards(broken, world.locations, world.bids, config.lambda).empty(),
         "a wrong charge fails the checks");
}

void emit_sample() {
  Result r;
  r.workload = "selftest";
  r.attempted = 1;
  r.set("finite_metric", 1.25, "ms");
  r.set("nan_metric", std::nan(""), "ms");
  write_result_line(r, std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--emit-sample") == 0) {
    emit_sample();
    return 0;
  }
  test_percentile();
  test_tail_rule();
  test_slot_profile();
  test_counting_wrappers();
  test_replay_matches_run();
  if (failures > 0) {
    std::cerr << failures << " self-test check(s) failed\n";
    return 1;
  }
  std::cout << "lppa_bench self-test: all checks passed\n";
  return 0;
}
