#include "driver/workloads.h"

#include <algorithm>
#include <optional>

#include "common/error.h"
#include "common/thread_pool.h"
#include "driver/churn.h"
#include "driver/layers.h"
#include "driver/wire.h"
#include "obs/metrics.h"

namespace lppa::bench_driver {

namespace {

// Stream purposes of stream_seed(); one per independent input.
constexpr std::uint64_t kTtpSeed = 1, kWorldSeed = 2, kProbeSeed = 3,
                        kWireSeed = 4, kRoundSeed = 100;

/// Set-up is repeated at least kMinSetups times and for at least
/// kMinSetupSeconds; setup_s is the median.  One city_sparse set-up takes
/// a few milliseconds, too short to time steadily on its own.
constexpr std::size_t kMinSetups = 3;
constexpr double kMinSetupSeconds = 1.0;
/// Layer probes run over at most this many SUs of the workload's world.
constexpr std::size_t kProbeUsers = 1000;

double elapsed_s(Clock::time_point t0) {
  return ms_between(t0, Clock::now()) / 1000.0;
}

/// peak_rss_mb is the smallest of the measured rounds' own peaks (the
/// peak counter restarts before every round): the resident peak of one
/// round, the set-up's data included.  The peak of a whole run is not
/// repeatable: freed memory the allocator keeps from earlier rounds (and
/// socket_ingest's per-round server threads) adds 10-20 MB at a round
/// that varies from run to run.  The distribution is in `info`.
void set_end_to_end_common(Result& r, double setup_s,
                           const std::vector<double>& round_rss_mb) {
  r.set("setup_s", setup_s, "s");
  r.set("peak_rss_mb",
        *std::min_element(round_rss_mb.begin(), round_rss_mb.end()), "MB");
  r.record_distribution("peak_rss_mb", round_rss_mb);
}

void set_submit_ack(Result& r, const std::vector<double>& samples) {
  r.set("submit_ack_us_p50", percentile(samples, 50.0), "us");
  r.set("submit_ack_us_p99", percentile(samples, 99.0), "us");
  r.record_distribution("submit_ack_us", samples);
}

void set_rounds(Result& r, const std::vector<double>& round_ms,
                const std::vector<double>& commit_ms) {
  r.set("round_ms_p50", percentile(round_ms, 50.0), "ms");
  r.set("round_ms_p90", percentile(round_ms, 90.0), "ms");
  r.set("commit_ms_p50", percentile(commit_ms, 50.0), "ms");
  r.record_distribution("round_ms", round_ms);
  r.record_distribution("commit_ms", commit_ms);
}

void set_overhead(Result& r, const std::vector<double>& untraced_ms,
                  const std::vector<double>& traced_ms) {
  const double base = median(untraced_ms);
  r.set("trace.overhead_pct",
        base > 0.0 ? 100.0 * (median(traced_ms) / base - 1.0) : 0.0, "%");
  r.info["trace.untraced_rounds"] = static_cast<double>(untraced_ms.size());
  r.info["trace.traced_rounds"] = static_cast<double>(traced_ms.size());
}

PlainWorld first_users(const PlainWorld& world, std::size_t n) {
  n = std::min(n, world.locations.size());
  PlainWorld out;
  out.locations.assign(world.locations.begin(), world.locations.begin() + n);
  out.bids.assign(world.bids.begin(), world.bids.begin() + n);
  return out;
}

/// From-scratch layer replay over `world` (one round) as a probe for a
/// workload whose own loop does not run those layers from scratch.
void replay_probe(const core::LppaConfig& config, const PlainWorld& world,
                  std::uint64_t seed, Result& r) {
  core::LppaConfig probe_config = config;
  probe_config.num_shards = 1;
  probe_config.backend = nullptr;
  probe_config.metrics = nullptr;
  core::LppaAuction auction(probe_config, stream_seed(seed, kTtpSeed));
  Rng rng(stream_seed(seed, kProbeSeed));
  const ReplayOutcome out = replay_round(auction, world, rng, &r.spans);
  const std::string bad = check_awards(out.awards, world.locations, world.bids,
                                       config.lambda);
  if (!bad.empty()) r.fail("layer probe: " + bad);
  report_layers({out.layers}, r);
  r.info["probe.replay_users"] = static_cast<double>(world.locations.size());
}

ChurnParams paper_churn_params(std::uint64_t seed) {
  ChurnParams p;
  // ~2000-slot roster, ~3/4 live; λ = 512 in a 2^14 field puts ~1500
  // live SUs at a mean conflict degree of ~25 (churn.live_mean_degree).
  p.capacity = 2000;
  p.initial_live = 1500;
  p.channels = 32;
  p.coord_width = 14;
  p.lambda = 512;
  // ~2% of the slots change per round: ~6 arrivals, ~6 departures,
  // ~20 moves and ~8 re-bids; arrivals balance departures at 3/4 live.
  // Arrivals and re-bids splice the bid table (~10 ms each at 32
  // channels), so they set the round time; moves only touch the graph.
  p.arrive_prob = 0.012;
  p.depart_prob = 0.004;
  p.move_prob = 0.0133;
  p.rebid_prob = 0.0053;
  p.num_shards = 4;
  p.seed = seed;
  return p;
}

/// Churn probe: paper_churn's event mix over the workload's placement
/// and channel count.
void churn_probe(const core::LppaConfig& config, std::size_t capacity,
                 std::uint64_t seed, Result& r) {
  ChurnParams p = paper_churn_params(stream_seed(seed, 50));
  p.capacity = capacity;
  p.initial_live = capacity * 3 / 4;
  p.channels = config.num_channels;
  p.coord_width = config.coord_width;
  p.lambda = config.lambda;
  ChurnRun run(p);
  std::vector<ChurnLayerSample> layers;
  for (std::size_t i = 0; i < 20; ++i) {
    ChurnLayerSample layer;
    TailSample tail;
    const auto out = run.round(i, &r.spans, &layer, &tail);
    if (!out.failure.empty()) r.fail("churn probe: " + out.failure);
    layers.push_back(layer);
  }
  report_churn_layers(layers, r);
  r.info["probe.churn_capacity"] = static_cast<double>(p.capacity);
}

/// Checks one socket round against the bus reference; returns the
/// number of SUs it failed.
std::size_t socket_failures(const SocketRound& s, const Bytes& reference,
                            std::size_t n, Result& r) {
  if (!s.failure.empty()) {
    r.fail("socket round: " + s.failure, std::max<std::size_t>(s.missed, 1));
    return std::max<std::size_t>(s.missed, 1);
  }
  if (s.announcement != reference) {
    r.fail("socket announcement differs from the bus replay", n);
    return n;
  }
  return 0;
}

/// The same round through the in-process bus and through the socket
/// transport with every SU released at once, three times each (medians).
struct TransportSplit {
  double bus_ms = 0.0;
  double burst_round_ms = 0.0;
  double burst_ingest_ms = 0.0;
  Bytes announcement;  ///< the bus replay's
};

TransportSplit measure_transport(WireWorld& w, Result& r) {
  std::vector<double> bus_ms, round_ms, ingest_ms;
  TransportSplit split;
  for (int k = 0; k < 3; ++k) {
    const BusRound bus = run_bus_round(w);
    if (bus.excluded != 0) r.fail("bus replay excluded SUs");
    split.announcement = bus.announcement;
    const SocketRound burst = run_socket_round(w, 0.0, nullptr, &r.spans);
    socket_failures(burst, bus.announcement, w.world.locations.size(), r);
    bus_ms.push_back(bus.ms);
    round_ms.push_back(burst.round_ms);
    ingest_ms.push_back(burst.ingest_ms);
  }
  split.bus_ms = median(bus_ms);
  split.burst_round_ms = median(round_ms);
  split.burst_ingest_ms = median(ingest_ms);
  return split;
}

/// Wire-layer metrics: the transport split and the traced paced rounds
/// of `paced`.
void report_wire_layers(const WireWorld& w, const TransportSplit& split,
                        const std::vector<SocketRound>& paced,
                        const std::vector<double>& frames_in,
                        const std::vector<double>& frames_out, Result& r) {
  const double n = static_cast<double>(w.world.locations.size());
  // The bus round masks the SU envelopes itself; the socket round replays
  // envelopes masked at set-up, so the masking time is taken out.
  r.set("proto.bus_round_ms", split.bus_ms, "ms");
  r.set("net.transport_overhead_ms",
        split.burst_round_ms - (split.bus_ms - w.mask_ms), "ms");
  std::vector<double> journal, nacks, late;
  for (const SocketRound& s : paced) {
    journal.push_back(static_cast<double>(s.journal_bytes) / n);
    nacks.push_back(static_cast<double>(s.nacks_journaled));
    late.insert(late.end(), s.late_us.begin(), s.late_us.end());
  }
  r.set("proto.journal_bytes_per_su", median(journal), "bytes");
  r.set("proto.nacks", median(nacks), "count");
  r.set("net.frames_in", median(frames_in), "count");
  r.set("net.frames_out", median(frames_out), "count");
  r.set("gen.late_us_p99", percentile(late, 99.0), "us");
  r.info["wire.bus_mask_ms"] = w.mask_ms;
  r.info["wire.burst_round_ms"] = split.burst_round_ms;
  // Single-core ingest capacity: every SU released at once, timed to
  // the last ack.  socket_ingest's --rate is about half of this.
  r.info["wire.burst_ingest_su_per_s"] =
      split.burst_ingest_ms > 0.0 ? 1000.0 * n / split.burst_ingest_ms : 0.0;
  r.info["wire.users"] = n;
}

/// The wire probe for the in-process workloads: the workload's world
/// through the bus, one burst and one traced paced socket round.
void wire_probe(const core::LppaConfig& config, PlainWorld world,
                const Args& args, Result& r) {
  core::LppaConfig wire_config = config;
  wire_config.backend = nullptr;
  wire_config.metrics = nullptr;
  WireWorld w = make_wire_world(wire_config, std::move(world),
                                stream_seed(args.seed, kTtpSeed),
                                stream_seed(args.seed, kWireSeed));
  const std::size_t n = w.world.locations.size();
  const TransportSplit split = measure_transport(w, r);
  obs::MetricsRegistry registry;
  std::vector<SocketRound> paced;
  paced.push_back(run_socket_round(w, args.rate, &registry, &r.spans));
  socket_failures(paced.back(), split.announcement, n, r);
  report_wire_layers(w, split, paced,
                     {static_cast<double>(registry.counter("net.frames_in").value())},
                     {static_cast<double>(registry.counter("net.frames_out").value())},
                     r);
}

}  // namespace

// --- city_sparse --------------------------------------------------------------

namespace {

constexpr std::size_t kCityUsers = 6400;

core::LppaConfig city_config() {
  core::LppaConfig c;
  c.num_channels = 8;
  c.lambda = 1000;
  c.coord_width = 20;
  c.num_threads = 1;
  return c;
}

}  // namespace

void run_city_sparse(const Args& args, Result& r) {
  r.attempt_unit = "round";
  const core::LppaConfig config = city_config();
  const std::uint64_t span =
      (std::uint64_t{1} << config.coord_width) - 2 * config.lambda;

  // run()'s own phase spans (a handful per round, from the program's
  // metrics sink) give the commit time without re-running the round.
  obs::MetricsRegistry phases;
  core::LppaConfig run_config = config;
  run_config.metrics = &phases;

  std::optional<core::LppaAuction> auction;
  PlainWorld world;
  std::optional<auction::ConflictGraph> reference;
  std::vector<double> setups;
  for (double spent = 0.0;
       setups.size() < kMinSetups || spent < kMinSetupSeconds;
       spent += setups.back()) {
    const auto t0 = Clock::now();
    auction.emplace(run_config, stream_seed(args.seed, kTtpSeed));
    world = uniform_world(kCityUsers, config.num_channels, span,
                          auction->ttp().config().enc.bmax,
                          stream_seed(args.seed, kWorldSeed));
    // The output checks' plaintext conflict graph.
    reference.emplace(auction::ConflictGraph::from_locations_sweep(
        world.locations, config.lambda));
    setups.push_back(elapsed_s(t0));
  }
  const double setup_s = median(setups);
  r.info["setup_s.repeats"] = static_cast<double>(setups.size());

  const auto check_round = [&](const core::LppaOutcome& out) {
    ++r.attempted;
    std::string bad = check_awards(out.outcome.awards, world.locations,
                                   world.bids, config.lambda);
    if (bad.empty() && !(out.view.conflicts == *reference)) {
      bad = "masked conflict graph differs from the plaintext graph";
    }
    if (bad.empty() && out.manipulations_detected != 0) {
      bad = "TTP detected manipulated bids";
    }
    if (!bad.empty()) r.fail(bad);
  };

  if (!args.trace) {
    std::vector<double> round_ms, commit_ms, submit_us, rss_mb;
    double wire_bytes_per_su = 0.0;
    std::size_t seen_spans = 0;
    Clock::time_point start;
    for (std::size_t idx = 0;; ++idx) {
      if (idx == 1) start = Clock::now();  // round 0 is the warm-up
      if (idx > 1 && elapsed_s(start) >= args.seconds) break;
      Rng rng(stream_seed(args.seed, kRoundSeed + idx));
      reset_peak_rss();
      const auto t0 = Clock::now();
      const core::LppaOutcome out = auction->run(world.locations, world.bids, rng);
      const auto t1 = Clock::now();
      const double round_rss_mb = peak_rss_mb();
      // The SU side of the round is its submit (PPBS masking of every SU)
      // and validate phases; commit is the rest: conflict graph, table,
      // allocation and charging.
      const std::vector<obs::SpanRecord> spans = phases.spans();
      double round_us = 0.0, su_side_us = 0.0;
      for (std::size_t i = seen_spans; i < spans.size(); ++i) {
        if (spans[i].name == "auction.round") round_us += spans[i].wall_us;
        if (spans[i].name == "auction.submit" ||
            spans[i].name == "auction.validate") {
          su_side_us += spans[i].wall_us;
        }
      }
      seen_spans = spans.size();
      check_round(out);
      wire_bytes_per_su =
          static_cast<double>(out.view.location_wire_bytes +
                              out.view.bid_wire_bytes) /
          static_cast<double>(kCityUsers);
      if (idx == 0) continue;
      round_ms.push_back(ms_between(t0, t1));
      commit_ms.push_back((round_us - su_side_us) / 1000.0);
      submit_us.push_back(su_side_us / static_cast<double>(kCityUsers));
      rss_mb.push_back(round_rss_mb);
    }
    set_rounds(r, round_ms, commit_ms);
    // One sample per round: the round's SU-side time per SU.
    set_submit_ack(r, submit_us);
    r.set("wire_bytes_per_su", wire_bytes_per_su, "bytes");
    set_end_to_end_common(r, setup_s, rss_mb);
    return;
  }

  // Traced: untraced run() and the traced replay alternate on the same
  // round seed; the replay must reproduce run()'s awards byte for byte.
  std::vector<double> untraced_ms, traced_ms;
  std::vector<LayerSample> layers;
  Clock::time_point start;
  for (std::size_t idx = 0;; ++idx) {
    if (idx == 1) start = Clock::now();
    if (idx > 1 && elapsed_s(start) >= args.seconds) break;
    Rng rng(stream_seed(args.seed, kRoundSeed + idx));
    Rng replay_rng = rng;
    const auto t0 = Clock::now();
    const core::LppaOutcome out = auction->run(world.locations, world.bids, rng);
    const double plain_ms = ms_between(t0, Clock::now());
    const ReplayOutcome replay =
        replay_round(*auction, world, replay_rng, &r.spans);
    check_round(out);
    if (!(replay.awards == out.outcome.awards) ||
        replay.manipulations != out.manipulations_detected) {
      r.fail("traced replay differs from the untraced round");
    }
    if (idx == 0) continue;
    untraced_ms.push_back(plain_ms);
    traced_ms.push_back(replay.round_ms);
    layers.push_back(replay.layers);
  }
  report_layers(layers, r);
  set_overhead(r, untraced_ms, traced_ms);
  const PlainWorld probe_world = first_users(world, kProbeUsers);
  churn_probe(config, kProbeUsers, args.seed, r);
  wire_probe(config, probe_world, args, r);
  r.set("setup_s", setup_s, "s");
}

// --- paper_churn --------------------------------------------------------------

namespace {

/// Rounds between the (untimed) maintained-vs-rebuild checks.
constexpr std::size_t kRebuildCheckEvery = 25;
constexpr std::size_t kChurnWarmup = 5;
constexpr std::size_t kChurnMinRounds = 100;

}  // namespace

void run_paper_churn(const Args& args, Result& r) {
  r.attempt_unit = "round";
  std::optional<ChurnRun> run;
  std::vector<double> setups;
  for (double spent = 0.0;
       setups.size() < kMinSetups || spent < kMinSetupSeconds;
       spent += setups.back()) {
    run.reset();
    const auto t0 = Clock::now();
    run.emplace(paper_churn_params(args.seed));
    setups.push_back(elapsed_s(t0));
  }
  const double setup_s = median(setups);
  r.info["setup_s.repeats"] = static_cast<double>(setups.size());

  std::vector<double> round_ms, commit_ms, submit_us, traced_ms, rss_mb;
  std::vector<ChurnLayerSample> layers;
  std::vector<TailSample> tails;
  Clock::time_point start;
  std::size_t measured = 0;
  for (std::size_t idx = 0;; ++idx) {
    if (idx == kChurnWarmup) start = Clock::now();
    if (idx > kChurnWarmup && measured >= kChurnMinRounds &&
        elapsed_s(start) >= args.seconds) {
      break;
    }
    // Traced runs alternate traced and untraced rounds.
    const bool traced = args.trace && idx % 2 == 1;
    ChurnLayerSample layer;
    TailSample tail;
    reset_peak_rss();
    const ChurnRun::RoundOut out =
        run->round(idx, traced ? &r.spans : nullptr, &layer, &tail);
    const double round_rss_mb = peak_rss_mb();
    ++r.attempted;
    if (!out.failure.empty()) r.fail(out.failure);
    if (idx % kRebuildCheckEvery == kRebuildCheckEvery - 1) {
      const std::string bad = run->check_against_rebuild();
      if (!bad.empty()) r.fail(bad);
    }
    if (idx < kChurnWarmup) continue;
    ++measured;
    if (traced) {
      traced_ms.push_back(out.round_ms);
      layers.push_back(layer);
      tails.push_back(tail);
      continue;
    }
    round_ms.push_back(out.round_ms);
    commit_ms.push_back(out.commit_ms);
    rss_mb.push_back(round_rss_mb);
    submit_us.insert(submit_us.end(), out.submit_us.begin(), out.submit_us.end());
  }

  if (!args.trace) {
    set_rounds(r, round_ms, commit_ms);
    set_submit_ack(r, submit_us);
    r.set("wire_bytes_per_su", run->wire_bytes_per_su(), "bytes");
    r.info["churn.live_mean_degree"] = run->mean_degree();
    set_end_to_end_common(r, setup_s, rss_mb);
    return;
  }
  // The from-scratch layers over the live roster, then the maintained
  // rounds' own allocation/charging split on top of the probe's.
  const PlainWorld live = first_users(run->live_world(), kProbeUsers);
  replay_probe(run->config(), live, args.seed, r);
  report_tail(tails, r);
  report_churn_layers(layers, r);
  set_overhead(r, round_ms, traced_ms);
  wire_probe(run->config(), live, args, r);
  r.set("setup_s", setup_s, "s");
}

// --- socket_ingest ------------------------------------------------------------

namespace {

constexpr std::size_t kSocketUsers = 1000;

core::LppaConfig socket_config() {
  core::LppaConfig c;
  c.num_channels = 2;
  c.lambda = 100;
  c.coord_width = 14;
  c.num_threads = 1;
  return c;
}

}  // namespace

void run_socket_ingest(const Args& args, Result& r) {
  LPPA_REQUIRE(args.rate > 0.0, "socket_ingest needs --rate");
  r.attempt_unit = "SU submission";
  const core::LppaConfig config = socket_config();

  std::optional<WireWorld> w;
  Bytes reference;
  std::vector<double> setups;
  for (double spent = 0.0;
       setups.size() < kMinSetups || spent < kMinSetupSeconds;
       spent += setups.back()) {
    w.reset();
    const auto t0 = Clock::now();
    // The loadgen world: placement in [0, 5000)², bids in [0, bmax].
    PlainWorld world =
        uniform_world(kSocketUsers, config.num_channels, 5000,
                      core::PpbsBidConfig{}.enc.bmax,
                      stream_seed(args.seed, kWorldSeed));
    w.emplace(make_wire_world(config, std::move(world),
                              stream_seed(args.seed, kTtpSeed),
                              stream_seed(args.seed, kWireSeed)));
    // The reference announcement the socket rounds must reproduce.
    const BusRound bus = run_bus_round(*w);
    if (bus.excluded != 0) r.fail("bus replay excluded SUs");
    reference = bus.announcement;
    setups.push_back(elapsed_s(t0));
  }
  const double setup_s = median(setups);
  r.info["setup_s.repeats"] = static_cast<double>(setups.size());

  std::vector<double> round_ms, commit_ms, submit_us, traced_ms, rss_mb;
  std::vector<double> round_p50;
  std::vector<double> frames_in, frames_out;
  std::vector<SocketRound> traced_rounds;
  Clock::time_point start;
  for (std::size_t idx = 0;; ++idx) {
    if (idx == 1) start = Clock::now();  // round 0 is the warm-up
    if (idx > 1 && elapsed_s(start) >= args.seconds) break;
    const bool traced = args.trace && idx % 2 == 1;
    obs::MetricsRegistry registry;
    reset_peak_rss();
    SocketRound s = run_socket_round(*w, args.rate,
                                     traced ? &registry : nullptr,
                                     traced ? &r.spans : nullptr);
    const double round_rss_mb = peak_rss_mb();
    r.attempted += kSocketUsers;
    socket_failures(s, reference, kSocketUsers, r);
    if (idx == 0) continue;
    if (traced) {
      traced_ms.push_back(s.round_ms);
      frames_in.push_back(
          static_cast<double>(registry.counter("net.frames_in").value()));
      frames_out.push_back(
          static_cast<double>(registry.counter("net.frames_out").value()));
      traced_rounds.push_back(std::move(s));
      continue;
    }
    round_ms.push_back(s.round_ms);
    commit_ms.push_back(s.commit_ms);
    rss_mb.push_back(round_rss_mb);
    round_p50.push_back(percentile(s.submit_ack_us, 50.0));
    submit_us.insert(submit_us.end(), s.submit_ack_us.begin(),
                     s.submit_ack_us.end());
  }

  if (!args.trace) {
    set_rounds(r, round_ms, commit_ms);
    // The pooled distribution goes to the result file.  p50 is that of a
    // typical round (median over rounds).  The tail is taken from the
    // latency profile of the schedule: SU i is released at the same offset
    // in every round, so each SU's median over rounds keeps what the
    // program does at that point of every round (the server's start-up
    // nack wave, the later waves, the last SU) and drops a preemption by
    // another tenant of the host, which hits one round at a random point.
    // A round's own p99 (its tenth-slowest SU) is mostly such a
    // preemption, so it measures the host.
    set_submit_ack(r, submit_us);
    r.set("submit_ack_us_p50", median(round_p50), "us");
    const std::vector<double> profile = slot_medians(submit_us, kSocketUsers);
    r.set("submit_ack_us_p99", tail_mean(profile, 99.0), "us");
    r.record_distribution("submit_ack_us.profile", profile);
    r.set("wire_bytes_per_su",
          static_cast<double>(w->wire_bytes) / static_cast<double>(kSocketUsers),
          "bytes");
    set_end_to_end_common(r, setup_s, rss_mb);
    r.info["socket.rate_su_per_s"] = args.rate;
    r.info["socket.conns"] =
        static_cast<double>(ThreadPool::hardware_threads());
    return;
  }
  set_overhead(r, round_ms, traced_ms);
  const TransportSplit split = measure_transport(*w, r);
  if (split.announcement != reference) r.fail("bus replay is not repeatable");
  report_wire_layers(*w, split, traced_rounds, frames_in, frames_out, r);
  replay_probe(config, w->world, args.seed, r);
  churn_probe(config, kSocketUsers, args.seed, r);
  r.set("setup_s", setup_s, "s");
}

}  // namespace lppa::bench_driver
