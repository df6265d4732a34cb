// Micro-benchmarks backing the paper's §IV-C.4 claim that the scheme's
// hash-based machinery is cheap: HMAC, prefix conversion, masked
// comparisons, conflict-graph construction and full auction rounds,
// scaling in N and k.  The commit-phase rows (ct_equal, the digest-index
// bulk build and probe, the bid-table build) run on the n = 6400 city
// world of lppa_bench's city_sparse workload.
#include <benchmark/benchmark.h>

#include "core/conflict_index.h"
#include "core/encrypted_bid_table.h"
#include "core/lppa_auction.h"
#include "core/ppbs_location.h"
#include "crypto/hmac.h"
#include "oracles.h"
#include "prefix/hashed_set.h"
#include "sim/scenario.h"

namespace {

using namespace lppa;

crypto::SecretKey bench_key() {
  Rng rng(42);
  return crypto::SecretKey::generate(rng);
}

void BM_HmacSha256U64(benchmark::State& state) {
  const auto key = bench_key();
  std::uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256_u64(key, v++));
  }
}
BENCHMARK(BM_HmacSha256U64);

void BM_PrefixFamily(benchmark::State& state) {
  const int w = static_cast<int>(state.range(0));
  std::uint64_t v = 0;
  const std::uint64_t mask = (std::uint64_t{1} << w) - 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prefix::prefix_family(v++ & mask, w));
  }
}
BENCHMARK(BM_PrefixFamily)->Arg(7)->Arg(17)->Arg(32);

void BM_RangePrefixes(benchmark::State& state) {
  const int w = static_cast<int>(state.range(0));
  const std::uint64_t top = (std::uint64_t{1} << w) - 1;
  std::uint64_t a = 1;
  for (auto _ : state) {
    a = (a * 2862933555777941757ULL + 3037000493ULL) & (top >> 1);
    benchmark::DoNotOptimize(prefix::range_prefixes(a, top - 1, w));
  }
}
BENCHMARK(BM_RangePrefixes)->Arg(7)->Arg(17)->Arg(32);

void BM_MaskedValueFamily(benchmark::State& state) {
  const auto key = bench_key();
  const int w = static_cast<int>(state.range(0));
  std::uint64_t v = 0;
  const std::uint64_t mask = (std::uint64_t{1} << w) - 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        prefix::HashedPrefixSet::of_value(key, v++ & mask, w));
  }
}
BENCHMARK(BM_MaskedValueFamily)->Arg(7)->Arg(17);

void BM_MaskedIntersection(benchmark::State& state) {
  const auto key = bench_key();
  const int w = 17;
  Rng rng(7);
  const auto family = prefix::HashedPrefixSet::of_value(key, 12345, w);
  auto range = prefix::HashedPrefixSet::of_range(key, 1000, 60000, w);
  range.pad_to(prefix::max_range_prefixes(w), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(family.intersects(range));
  }
}
BENCHMARK(BM_MaskedIntersection);

void BM_CtEqualDigest(benchmark::State& state) {
  Rng rng(5);
  crypto::Digest a;
  for (auto& b : a.bytes) b = static_cast<std::uint8_t>(rng.below(256));
  crypto::Digest b = a;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a);
    benchmark::DoNotOptimize(b);
    benchmark::DoNotOptimize(ct_equal(a.bytes, b.bytes));
  }
}
BENCHMARK(BM_CtEqualDigest);

void BM_CtEqualFamily(benchmark::State& state) {
  // A value family of a 4-bit scaled bid: five digests, 160 bytes.
  Rng rng(5);
  Bytes a(5 * crypto::Digest::kSize);
  for (auto& b : a) b = static_cast<std::uint8_t>(rng.below(256));
  const Bytes b = a;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.data());
    benchmark::DoNotOptimize(ct_equal(a, b));
  }
}
BENCHMARK(BM_CtEqualFamily);

/// The masked submissions of lppa_bench's city_sparse world: n = 6400
/// SUs placed uniformly (coord_width 20, λ = 1000), 8 channels of bids
/// uniform in [0, 15] under the default bid config.
struct CityWorld {
  static constexpr std::size_t kUsers = 6400;
  static constexpr std::size_t kChannels = 8;
  std::vector<core::LocationSubmission> locations;
  std::vector<core::BidSubmission> bids;

  static const CityWorld& get() {
    static const CityWorld world;
    return world;
  }

 private:
  CityWorld() {
    Rng rng(19);
    const auto g0 = crypto::SecretKey::generate(rng);
    const auto gb = crypto::SecretKey::generate(rng);
    const auto gc = crypto::SecretKey::generate(rng);
    const int width = 20;
    const std::uint64_t lambda = 1000;
    const core::PpbsLocation protocol(g0, width, lambda);
    const core::BidSubmitter submitter(core::PpbsBidConfig{}, gb, gc);
    const std::uint64_t span = (std::uint64_t{1} << width) - 2 * lambda;
    for (std::size_t i = 0; i < kUsers; ++i) {
      locations.push_back(
          protocol.submit({rng.below(span), rng.below(span)}, rng));
      auction::BidVector bv(kChannels);
      for (auto& b : bv) b = rng.below(16);
      bids.push_back(submitter.submit(bv, rng));
    }
  }
};

void BM_DigestIndexBuildCity(benchmark::State& state) {
  const auto& world = CityWorld::get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_index_pair(
        world.locations, &core::LocationSubmission::x_range,
        &core::LocationSubmission::y_range, 1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(CityWorld::kUsers));
}
BENCHMARK(BM_DigestIndexBuildCity)->Unit(benchmark::kMillisecond);

void BM_DigestIndexProbeCity(benchmark::State& state) {
  const auto& world = CityWorld::get();
  const core::IndexPair ranges = core::build_index_pair(
      world.locations, &core::LocationSubmission::x_range,
      &core::LocationSubmission::y_range, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::probe_index_pair(world.locations, ranges, 1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(CityWorld::kUsers));
}
BENCHMARK(BM_DigestIndexProbeCity)->Unit(benchmark::kMillisecond);

void BM_BidTableBuildCity(benchmark::State& state) {
  const auto& world = CityWorld::get();
  for (auto _ : state) {
    const core::EncryptedBidTable table(world.bids, CityWorld::kChannels);
    benchmark::DoNotOptimize(table.order_tests());
  }
}
BENCHMARK(BM_BidTableBuildCity)->Unit(benchmark::kMillisecond);

void BM_EncryptBidVector(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  const auto gb = crypto::SecretKey::generate(rng);
  const auto gc = crypto::SecretKey::generate(rng);
  const auto cfg = core::PpbsBidConfig::advanced(
      15, 3, 4, core::ZeroDisguisePolicy::uniform(15, 0.5));
  const core::BidSubmitter submitter(cfg, gb, gc);
  auction::BidVector bids(k);
  for (auto& b : bids) b = rng.below(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(submitter.submit(bids, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k));
}
BENCHMARK(BM_EncryptBidVector)->Arg(10)->Arg(40)->Arg(129);

void BM_ConflictGraphFromSubmissions(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  const auto g0 = crypto::SecretKey::generate(rng);
  const core::PpbsLocation protocol(g0, 17, 1000);
  std::vector<core::LocationSubmission> subs;
  for (std::size_t i = 0; i < n; ++i) {
    subs.push_back(protocol.submit({rng.below(70000), rng.below(70000)}, rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::PpbsLocation::build_conflict_graph(subs));
  }
}
BENCHMARK(BM_ConflictGraphFromSubmissions)->Arg(25)->Arg(50)->Arg(100);

void BM_ConflictGraphPairwise(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  const auto g0 = crypto::SecretKey::generate(rng);
  const core::PpbsLocation protocol(g0, 17, 1000);
  std::vector<core::LocationSubmission> subs;
  for (std::size_t i = 0; i < n; ++i) {
    subs.push_back(protocol.submit({rng.below(70000), rng.below(70000)}, rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracles::conflict_graph_pairwise(subs));
  }
}
BENCHMARK(BM_ConflictGraphPairwise)->Arg(25)->Arg(50)->Arg(100);

void BM_ConflictGraphPlaintextSweep(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  std::vector<auction::SuLocation> locs;
  for (std::size_t i = 0; i < n; ++i) {
    locs.push_back({rng.below(70000), rng.below(70000)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        auction::ConflictGraph::from_locations_sweep(locs, 1000));
  }
}
BENCHMARK(BM_ConflictGraphPlaintextSweep)->Arg(25)->Arg(100)->Arg(400);

void BM_FullLppaRound(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t k = 20;
  Rng world(17);
  std::vector<auction::SuLocation> locs;
  std::vector<auction::BidVector> bids;
  for (std::size_t i = 0; i < n; ++i) {
    locs.push_back({world.below(70000), world.below(70000)});
    auction::BidVector bv(k);
    for (auto& b : bv) b = world.below(16);
    bids.push_back(bv);
  }
  core::LppaConfig cfg;
  cfg.num_channels = k;
  cfg.lambda = 1000;
  cfg.coord_width = 17;
  cfg.bid = core::PpbsBidConfig::advanced(
      15, 3, 4, core::ZeroDisguisePolicy::uniform(15, 0.5));
  for (auto _ : state) {
    core::LppaAuction engine(cfg, 5);
    Rng rng(23);
    benchmark::DoNotOptimize(engine.run(locs, bids, rng));
  }
}
BENCHMARK(BM_FullLppaRound)->Arg(25)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_PlainAuctionRound(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t k = 20;
  Rng world(17);
  std::vector<auction::SuLocation> locs;
  std::vector<auction::BidVector> bids;
  for (std::size_t i = 0; i < n; ++i) {
    locs.push_back({world.below(70000), world.below(70000)});
    auction::BidVector bv(k);
    for (auto& b : bv) b = world.below(16);
    bids.push_back(bv);
  }
  const auction::PlainAuction plain(k, 1000);
  for (auto _ : state) {
    Rng rng(23);
    benchmark::DoNotOptimize(plain.run(locs, bids, rng));
  }
}
BENCHMARK(BM_PlainAuctionRound)->Arg(25)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
