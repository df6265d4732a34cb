// Performance-scaling baseline for the PPBS hot paths.
//
// Sweeps n SUs × worker threads over the three server-relevant phases —
// SU-side submission generation (HMAC-bound), conflict-graph
// construction (indexed hash-join vs the all-pairs reference), and the
// masked greedy auction — and writes a machine-readable JSON trajectory
// (default BENCH_perf_scaling.json) so later scaling PRs have a baseline
// to regress against.
//
// Schema: [{"phase": str, "n": int, "threads": int, "wall_ms": float,
//           "throughput": float}, ...]   (throughput = SUs per second)
#include <algorithm>
#include <chrono>
#include <fstream>
#include <optional>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "core/encrypted_bid_table.h"
#include "core/conflict_index.h"
#include "core/lppa_auction.h"
#include "oracles.h"

namespace {

using namespace lppa;

struct Sample {
  std::string phase;
  std::size_t n = 0;
  std::size_t threads = 0;
  double wall_ms = 0.0;
  double throughput = 0.0;  // SUs processed per second
};

template <typename Fn>
double time_ms(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

Sample sample(std::string phase, std::size_t n, std::size_t threads,
              double wall_ms) {
  Sample s;
  s.phase = std::move(phase);
  s.n = n;
  s.threads = threads;
  s.wall_ms = wall_ms;
  s.throughput = bench::rate_per_sec(static_cast<double>(n), wall_ms);
  return s;
}

void write_json(const std::string& path, const std::vector<Sample>& samples) {
  std::ofstream out = bench::open_output_or_die(path);
  obs::JsonWriter w(out, /*indent=*/2);
  w.begin_array();
  for (const Sample& s : samples) {
    w.begin_object()
        .field("phase", std::string_view(s.phase))
        .field("n", s.n)
        .field("threads", s.threads)
        .field("wall_ms", s.wall_ms)
        .field("throughput", s.throughput)
        .end_object();
  }
  w.end_array();
  out << "\n";
  bench::close_output_or_die(out, path);
}

double wall_of(const std::vector<Sample>& samples, const std::string& phase,
               std::size_t n, std::size_t threads) {
  for (const Sample& s : samples) {
    if (s.phase == phase && s.n == n && s.threads == threads) return s.wall_ms;
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);

  // Workload: uniform SUs in a 2^20-wide field with λ = 1000m, i.e. a
  // sparse conflict graph (~0.4% x-window hit rate) like a city-scale
  // deployment; 8 channels keep the auction phase comparable across n.
  const int coord_width = 20;
  const std::uint64_t lambda = 1000;
  const std::size_t num_channels = 8;
  const auction::Money bmax = 15;

  std::vector<std::size_t> sizes = {100, 400, 1600, 6400};
  if (args.full) sizes.push_back(12800);
  // The perfsmoke ctest (tools/bench_compare.py) wants a run that
  // finishes in seconds; the small sizes still exercise every phase.
  if (args.smoke) sizes = {100, 400};
  // The all-pairs reference is quadratic; past this it stops being a
  // baseline and starts being a space heater.
  const std::size_t pairwise_cap = 6400;

  const std::size_t multi =
      args.threads != 0 ? args.threads
                        : std::max<std::size_t>(4, ThreadPool::hardware_threads());
  std::vector<std::size_t> thread_counts = {1};
  if (multi > 1) thread_counts.push_back(multi);

  Rng rng(20130708);
  const auto g0 = crypto::SecretKey::generate(rng);
  const auto gb = crypto::SecretKey::generate(rng);
  const auto gc = crypto::SecretKey::generate(rng);
  const auto bid_cfg = core::PpbsBidConfig::advanced(
      bmax, 3, 4, core::ZeroDisguisePolicy::linear(bmax, 0.3));
  const core::PpbsLocation protocol(g0, coord_width, lambda);
  const core::BidSubmitter submitter(bid_cfg, gb, gc);

  std::vector<Sample> samples;
  for (const std::size_t n : sizes) {
    const std::uint64_t hi =
        ((std::uint64_t{1} << coord_width) - 1) - 2 * lambda;
    std::vector<auction::SuLocation> locations(n);
    std::vector<auction::BidVector> bids(n);
    for (std::size_t i = 0; i < n; ++i) {
      locations[i] = {rng.below(hi + 1), rng.below(hi + 1)};
      bids[i].resize(num_channels);
      for (auto& b : bids[i]) b = rng.below(bmax + 1);
    }

    // Per-SU streams forked once and replayed for every thread count so
    // the submissions are identical across runs (checked below).
    Rng fork_master = rng.fork();
    std::vector<Rng> su_rngs;
    su_rngs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) su_rngs.push_back(fork_master.fork());

    std::vector<core::LocationSubmission> subs(n);
    std::vector<core::BidSubmission> bid_subs(n);
    for (const std::size_t t : thread_counts) {
      std::vector<core::LocationSubmission> run_subs(n);
      std::vector<core::BidSubmission> run_bids(n);
      std::vector<Rng> rngs = su_rngs;  // replay the same streams
      const double ms = time_ms([&] {
        parallel_for(n, t, [&](std::size_t i) {
          run_subs[i] = protocol.submit(locations[i], rngs[i]);
          run_bids[i] = submitter.submit(bids[i], rngs[i]);
        });
      });
      samples.push_back(sample("submit", n, t, ms));
      if (t == thread_counts.front()) {
        subs = std::move(run_subs);
        bid_subs = std::move(run_bids);
      } else if (!(run_subs == subs) || !(run_bids == bid_subs)) {
        std::cerr << "FATAL: submissions differ across thread counts\n";
        return 1;
      }
    }

    auction::ConflictGraph indexed(n);
    for (const std::size_t t : thread_counts) {
      double ms = time_ms([&] {
        indexed = core::PpbsLocation::build_conflict_graph(subs, t);
      });
      samples.push_back(sample("conflict_graph_indexed", n, t, ms));
    }
    if (n <= pairwise_cap) {
      auction::ConflictGraph pairwise(n);
      const double ms = time_ms([&] {
        pairwise = oracles::conflict_graph_pairwise(subs);
      });
      samples.push_back(sample("conflict_graph_pairwise", n, 1, ms));
      if (!(pairwise == indexed)) {
        std::cerr << "FATAL: indexed and pairwise conflict graphs differ\n";
        return 1;
      }
    }

    {
      // "auction" is the production path (sorted-column argmax; the
      // table construction, including the
      // one-off column sort, is inside the timed region).  "auction_scan"
      // is the seed per-query tournament (tests/oracles.h), kept as the
      // reference both for the speedup headline and for the in-bench
      // differential check: identical channel draws must yield identical
      // awards on both tables.
      const Rng alloc_rng = rng.fork();
      std::vector<auction::Award> sorted_awards;
      for (const std::size_t t : thread_counts) {
        Rng run_rng = alloc_rng;  // replay the same channel-draw stream
        std::vector<auction::Award> awards;
        const double ms = time_ms([&] {
          core::EncryptedBidTable table(bid_subs, num_channels,
                                        core::ArgmaxStrategy::kSortedColumns,
                                        t);
          awards = auction::greedy_allocate(table, indexed, run_rng);
        });
        samples.push_back(sample("auction", n, t, ms));
        if (t == thread_counts.front()) {
          sorted_awards = std::move(awards);
        } else if (!(awards == sorted_awards)) {
          std::cerr << "FATAL: auction awards differ across thread counts\n";
          return 1;
        }
      }
      {
        Rng run_rng = alloc_rng;
        std::vector<auction::Award> awards;
        const double ms = time_ms([&] {
          oracles::TournamentScanTable table(bid_subs, num_channels);
          awards = auction::greedy_allocate(table, indexed, run_rng);
        });
        samples.push_back(sample("auction_scan", n, 1, ms));
        if (!(awards == sorted_awards)) {
          std::cerr << "FATAL: sorted-column and tournament-scan awards differ\n";
          return 1;
        }
      }
    }
  }

  // Scale-out: the conflict discovery at n = 25600 and n >= 100k SUs.
  // The full-auction sweep stays at the sizes above (the all-pairs and
  // tournament references are super-linear); this block runs only the
  // linear-memory phases — location masking and the indexed build at
  // every thread count (so its per-SU cost extends the main sweep's
  // rows), whose graphs must agree and whose index footprint is printed.
  std::vector<std::size_t> scale_out_sizes;
  if (args.full) scale_out_sizes = {25600, 102400};
  for (const std::size_t n : scale_out_sizes) {
    const std::uint64_t hi =
        ((std::uint64_t{1} << coord_width) - 1) - 2 * lambda;
    std::vector<auction::SuLocation> locations(n);
    for (auto& loc : locations) loc = {rng.below(hi + 1), rng.below(hi + 1)};
    Rng fork_master = rng.fork();
    std::vector<Rng> su_rngs;
    su_rngs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) su_rngs.push_back(fork_master.fork());
    std::vector<core::LocationSubmission> subs(n);
    {
      const double ms = time_ms([&] {
        parallel_for(n, multi, [&](std::size_t i) {
          subs[i] = protocol.submit(locations[i], su_rngs[i]);
        });
      });
      samples.push_back(sample("submit_locations", n, multi, ms));
    }
    std::optional<auction::ConflictGraph> first_graph;
    for (const std::size_t t : thread_counts) {
      core::ConflictStats stats;
      auction::ConflictGraph indexed(n);
      const double ms = time_ms([&] {
        indexed = core::build_conflict_graph(subs, t, nullptr, &stats);
      });
      samples.push_back(sample("conflict_graph_indexed", n, t, ms));
      if (!first_graph) {
        first_graph = std::move(indexed);
        std::cout << "conflict_graph_indexed n=" << n << ": index pair "
                  << stats.index_bytes << " bytes, " << stats.join_edges
                  << " edges\n";
      } else if (!(indexed == *first_graph)) {
        std::cerr << "FATAL: conflict graphs differ across thread counts at n="
                  << n << "\n";
        return 1;
      }
    }
  }

  Table table({"phase", "n", "threads", "wall_ms", "throughput_su_per_s"});
  for (const Sample& s : samples) {
    table.add_row({s.phase, Table::cell(s.n), Table::cell(s.threads),
                   Table::cell(s.wall_ms, 3), Table::cell(s.throughput, 1)});
  }
  bench::emit(table, args, "PPBS hot-path scaling (submit / conflict graph / auction)");

  // Largest n that still has a pairwise baseline.
  std::size_t big = sizes.front();
  for (std::size_t s : sizes) {
    if (s <= pairwise_cap) big = std::max(big, s);
  }
  const double pair_ms = wall_of(samples, "conflict_graph_pairwise", big, 1);
  const double idx_ms = wall_of(samples, "conflict_graph_indexed", big, 1);
  if (idx_ms > 0.0 && pair_ms > 0.0) {
    std::cout << "indexed vs pairwise speedup at n=" << big << ": "
              << pair_ms / idx_ms << "x\n";
  }
  // A failed scaling gate still writes --json and --metrics first: the
  // sweep's samples are the evidence for the verdict, so they are never
  // thrown away.
  int gate_verdict = 0;
  if (thread_counts.size() > 1) {
    const double s1 = wall_of(samples, "submit", big, 1);
    const double st = wall_of(samples, "submit", big, multi);
    if (st > 0.0) {
      const double speedup = s1 / st;
      std::cout << "submit speedup at n=" << big << " with " << multi
                << " threads: " << speedup << "x\n";
      // Thread-scaling gate.  Submission is embarrassingly parallel
      // (per-SU RNG streams, per-slot writes, immutable shared HMAC key
      // contexts), so on real multicore hardware 4 workers must beat 1 by
      // a wide margin; <1.5x would mean contention crept back in.  The
      // gate only arms when the host actually HAS >=4 cores and the
      // workload is big enough to drown scheduling overhead: the seed
      // baseline's flat line (4 threads == 1 thread at n>=1600) was
      // recorded on a 1-core container, where a CPU-bound phase cannot
      // scale no matter how it is written — hardware, not contention
      // (docs/performance.md, "Thread scaling").
      const bool gate_armed =
          ThreadPool::hardware_threads() >= 4 && multi >= 4 && big >= 1600;
      if (gate_armed && speedup < 1.5) {
        std::cerr << "FATAL: submit speedup " << speedup << "x with " << multi
                  << " threads on " << ThreadPool::hardware_threads()
                  << " cores is below the 1.5x floor\n";
        gate_verdict = 1;
      }
      if (!gate_armed) {
        std::cout << "(scaling gate not armed: "
                  << ThreadPool::hardware_threads() << " hardware core(s), "
                  << multi << " workers, largest n=" << big
                  << " — a CPU-bound phase cannot beat the physical core "
                     "count; see docs/performance.md)\n";
      }
    }
  }
  const double auc_ms = wall_of(samples, "auction", big, 1);
  const double scan_ms = wall_of(samples, "auction_scan", big, 1);
  if (auc_ms > 0.0 && scan_ms > 0.0) {
    std::cout << "sorted-column vs tournament-scan auction speedup at n="
              << big << ": " << scan_ms / auc_ms << "x\n";
  }
  const std::string json_path =
      args.json_path.empty() ? "BENCH_perf_scaling.json" : args.json_path;
  write_json(json_path, samples);
  std::cout << "wrote " << json_path << " (" << samples.size() << " samples)\n";

  // Mirror the samples into an obs registry — one span per timed phase
  // run, fed after the timed regions so the instrumentation itself costs
  // the hot loops nothing — and honor --metrics.
  obs::MetricsRegistry registry;
  for (const Sample& s : samples) {
    registry.record_span("bench." + s.phase, registry.next_span_id(),
                         /*parent=*/0, s.wall_ms * 1000.0);
  }
  bench::dump_metrics(registry, args);
  return gate_verdict;
}
