// Socket load generator: one full auction round over the real epoll
// transport with a thousand-plus concurrent SU connections on loopback,
// admission control engaged (a pack of freeloading probe connections is
// admitted first and squeezed out by the read deadline), and end-to-end
// latency percentiles reported from the obs histograms.
//
//   loadgen            1000 concurrent SU connections
//   loadgen --full     2000
//   loadgen --smoke    48 (the tier-1 loopback smoke ctest)
//   loadgen --conns N  explicit override
//
// Exit status is the contract: nonzero unless the round completes, every
// SU collects the announcement, admission control actually rejected
// someone, and every SU produced exactly one submit latency sample.
// --json / --metrics dumps hold to the strict-JSON gate
// (tools/bench_compare.py --validate), and the JSON sample carries
// *_us percentile fields bench_compare.py diffs with its
// latency-specific noise floor.
#include <algorithm>
#include <chrono>
#include <thread>

#include "bench_util.h"
#include "net/session_port.h"
#include "proto/journal.h"

using namespace lppa;

namespace {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t idx = static_cast<std::size_t>(pos + 0.5);
  const double p = v[std::min(idx, v.size() - 1)];
  return std::isfinite(p) ? p : 0.0;
}

struct LoadgenResult {
  std::size_t conns = 0;
  double wall_ms = 0.0;
  double submit_p50_us = 0.0, submit_p90_us = 0.0, submit_p99_us = 0.0;
  double round_p50_us = 0.0, round_p90_us = 0.0, round_p99_us = 0.0;
  std::uint64_t frames_in = 0, frames_out = 0;
  std::uint64_t admission_rejected = 0;
  std::size_t reconnects = 0;
  std::size_t awards = 0;
  bool completed = false;
};

void write_json(const std::string& path, const LoadgenResult& r) {
  std::ofstream out = bench::open_output_or_die(path);
  obs::JsonWriter w(out, /*indent=*/2);
  w.begin_array();
  w.begin_object()
      .field("phase", std::string_view("loadgen"))
      .field("n", r.conns)
      .field("threads", std::size_t{1})
      .field("wall_ms", r.wall_ms)
      .field("submit_p50_us", r.submit_p50_us)
      .field("submit_p90_us", r.submit_p90_us)
      .field("submit_p99_us", r.submit_p99_us)
      .field("round_p50_us", r.round_p50_us)
      .field("round_p90_us", r.round_p90_us)
      .field("round_p99_us", r.round_p99_us)
      .field("frames_in", r.frames_in)
      .field("frames_out", r.frames_out)
      .field("frames_per_sec",
             bench::rate_per_sec(static_cast<double>(r.frames_in +
                                                     r.frames_out),
                                 r.wall_ms))
      .field("admission_rejected", r.admission_rejected)
      .field("reconnects", r.reconnects)
      .field("awards", r.awards)
      .field("completed", r.completed);
  w.end_object();
  w.end_array();
  out << "\n";
  bench::close_output_or_die(out, path);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  const std::size_t conns =
      args.conns != 0 ? args.conns : (args.smoke ? 48 : (args.full ? 2000 : 1000));
  constexpr std::size_t kProbes = 8;  // freeloaders beyond the SU fleet
  constexpr std::uint64_t kSeed = 5;

  // Small channel count keeps allocation cheap: this bench stresses the
  // transport, not the auction math.
  core::LppaConfig config;
  config.num_channels = 2;
  config.lambda = 100;
  config.coord_width = 14;
  config.bid = core::PpbsBidConfig::advanced(
      15, 3, 4, core::ZeroDisguisePolicy::none(15));
  config.ttp_batch_size = 64;

  Rng world_rng(20130809);
  std::vector<auction::SuLocation> locations;
  std::vector<auction::BidVector> bids;
  for (std::size_t i = 0; i < conns; ++i) {
    locations.push_back({world_rng.below(5000), world_rng.below(5000)});
    auction::BidVector bv(config.num_channels);
    for (auto& b : bv) b = world_rng.below(16);
    bids.push_back(bv);
  }
  core::TrustedThirdParty ttp(config.bid, 77);

  obs::MetricsRegistry registry;
  net::ServerConfig server_config;
  // Cap exactly at the SU fleet size: the probes steal slots up front, so
  // the tail of the fleet is rejected until the read deadline evicts the
  // silent probes — admission control and slow-loris eviction both fire
  // on every run.
  server_config.max_connections = conns;
  // Whole-fleet backlog: a SYN dropped past the backlog retries on
  // multi-second retransmission timers, which would serialise the
  // stampede this bench exists to create.
  server_config.listen_backlog = static_cast<int>(conns) + 16;
  server_config.ack_submissions = true;
  server_config.metrics = &registry;
  server_config.limits.read_deadline = std::chrono::milliseconds(400);

  net::SocketRoundOptions round;
  round.hardened.max_retries = 14;  // ride out the probe-eviction stall

  proto::RoundJournal journal;
  proto::RoundReport report;
  report.num_users = conns;

  const auto t0 = std::chrono::steady_clock::now();
  LoadgenResult result;
  result.conns = conns;
  {
    net::AuctioneerServer server(config, conns, server_config, round,
                                 std::vector<bool>(conns, true), ttp, kSeed,
                                 &journal, &report, /*crashes=*/nullptr,
                                 /*start_ticks=*/0);

    // The freeloaders connect first and never speak.
    std::vector<net::Fd> probes;
    for (std::size_t i = 0; i < kProbes; ++i) {
      probes.push_back(net::connect_to(server.endpoint()));
    }

    // SU envelopes, built exactly once under the canonical RNG
    // discipline (one boot fork, per-SU forks in index order).
    std::vector<proto::SuEnvelopes> sus = proto::mask_submissions(
        config, ttp.su_keys(), locations, bids, kSeed,
        std::vector<bool>(conns, true));

    net::ClientPoolConfig client_config;
    client_config.endpoint = server.endpoint();
    client_config.backoff = round.hardened;
    client_config.tick = server_config.tick;
    client_config.max_concurrent_connects = 256;
    client_config.metrics = &registry;
    net::ClientPool pool(std::move(client_config), std::move(sus));

    const auto wall_ceiling =
        std::chrono::steady_clock::now() + std::chrono::seconds(180);
    while (server.status() == net::AuctioneerServer::Status::kRunning) {
      pool.run(std::chrono::milliseconds(20));
      if (std::chrono::steady_clock::now() > wall_ceiling) {
        std::cerr << "FATAL: round wedged: wall ceiling reached\n";
        server.stop();
        return 1;
      }
    }
    if (server.await_terminal() != net::AuctioneerServer::Status::kPublished) {
      std::cerr << "FATAL: server did not publish\n";
      server.rethrow_failure();
      return 1;
    }
    while (!pool.run(std::chrono::milliseconds(50))) {
      if (std::chrono::steady_clock::now() > wall_ceiling) break;
    }
    const auto t1 = std::chrono::steady_clock::now();

    if (registry.counter("net.admission_rejected").value() == 0) {
      // Large fleets can finish connecting only after the probes were
      // evicted, so the cap never filled mid-round.  Engage admission
      // control deterministically: with the fleet drained, a burst one
      // past the cap must see at least one connection refused.
      std::vector<net::Fd> burst;
      for (std::size_t i = 0; i <= conns; ++i) {
        burst.push_back(net::connect_to(server.endpoint()));
      }
      const auto burst_deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (registry.counter("net.admission_rejected").value() == 0 &&
             std::chrono::steady_clock::now() < burst_deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    result.wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();

    // Percentiles twice over: exact order statistics into the JSON
    // sample, and the same samples through the obs histogram ladder for
    // the --metrics snapshot.
    const auto& submit = pool.submit_latencies_us();
    const auto& roundl = pool.round_latencies_us();
    auto& submit_hist = registry.histogram("net.submit.us");
    for (const double v : submit) submit_hist.observe(v);
    auto& round_hist = registry.histogram("net.round.us");
    for (const double v : roundl) round_hist.observe(v);
    result.submit_p50_us = percentile(submit, 0.50);
    result.submit_p90_us = percentile(submit, 0.90);
    result.submit_p99_us = percentile(submit, 0.99);
    result.round_p50_us = percentile(roundl, 0.50);
    result.round_p90_us = percentile(roundl, 0.90);
    result.round_p99_us = percentile(roundl, 0.99);
    result.frames_in = registry.counter("net.frames_in").value();
    result.frames_out = registry.counter("net.frames_out").value();
    result.admission_rejected =
        registry.counter("net.admission_rejected").value();
    result.reconnects = pool.reconnects();
    result.completed = report.completed && pool.all_done();

    const proto::Envelope env =
        proto::Envelope::deserialize(pool.announcement());
    result.awards =
        proto::WinnerAnnouncement::deserialize(env.payload).awards.size();

    // The contract the exit status enforces.
    bool ok = true;
    if (!result.completed) {
      std::cerr << "FATAL: round incomplete or SUs missing the announcement ("
                << pool.done_count() << "/" << conns << " done)\n";
      ok = false;
    }
    if (result.admission_rejected == 0) {
      std::cerr << "FATAL: admission control never engaged\n";
      ok = false;
    }
    if (submit.size() != conns) {
      std::cerr << "FATAL: expected " << conns << " submit samples, got "
                << submit.size() << "\n";
      ok = false;
    }
    if (roundl.size() != conns) {
      std::cerr << "FATAL: expected " << conns << " round samples, got "
                << roundl.size() << "\n";
      ok = false;
    }
    if (!ok) return 1;
  }

  write_json(args.json_path.empty() ? "BENCH_loadgen.json" : args.json_path,
             result);
  bench::dump_metrics(registry, args);

  Table table({"conns", "wall_ms", "submit_p50_us", "submit_p99_us",
               "round_p50_us", "round_p99_us", "frames", "rejected",
               "reconnects", "awards"});
  table.add_row({Table::cell(result.conns), Table::cell(result.wall_ms, 1),
                 Table::cell(result.submit_p50_us, 0),
                 Table::cell(result.submit_p99_us, 0),
                 Table::cell(result.round_p50_us, 0),
                 Table::cell(result.round_p99_us, 0),
                 Table::cell(result.frames_in + result.frames_out),
                 Table::cell(result.admission_rejected),
                 Table::cell(result.reconnects), Table::cell(result.awards)});
  bench::emit(table, args, "Socket transport load (one round, loopback)");
  std::cout << "Expected: the round completes with every SU holding the\n"
               "announcement; the freeloading probes are admitted, starve,\n"
               "and are evicted by the read deadline, briefly pushing the\n"
               "fleet over the admission cap (rejected > 0); p99 latencies\n"
               "stay tail-bounded by backpressure + per-connection budgets.\n";
  return 0;
}
