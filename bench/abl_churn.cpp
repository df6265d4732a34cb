// Churn soak: incremental maintenance vs from-scratch rebuild
// (docs/performance.md, "Churn"; docs/robustness.md, "Churn under
// crashes").
//
// Phase 1 (soak): a seeded sim::ChurnSchedule drives arrivals,
// departures, moves and re-bids over a fixed slot roster for hundreds of
// rounds per thread-count cell.  core::ChurnState applies each event as
// an O(Δ·w) delta; EVERY round the harness rebuilds the conflict graph
// and the encrypted bid table from scratch and asserts the maintained
// versions are identical — the graph by ==, the table by its serialized
// byte image — then runs allocation + TTP charging on both sides under
// the same Rng and asserts byte-identical awards and charges.  The first
// cell's awards double as the cross-cell reference: every other thread
// count must reproduce them byte for byte.
//
// Phase 2 (crash): an AuctioneerSession ingests a round and then applies
// a churn_depart/churn_return sequence with a CrashPoint::kMidChurn
// checkpoint after every op.  For each checkpoint the session is killed
// there, rebuilt from its write-ahead journal via
// proto::replay_session_journal, and its snapshot() must equal the
// crash-free twin's snapshot at the same op — then the run resumes to
// the end and the final snapshots must match too.
//
// Any violated invariant is a hard failure (nonzero exit).  JSON dump:
// BENCH_abl_churn.json (passes tools/bench_compare.py --validate).
#include <chrono>
#include <fstream>
#include <vector>

#include "bench_util.h"
#include "core/churn_state.h"
#include "proto/fault.h"
#include "proto/journal.h"
#include "proto/parties.h"
#include "proto/session.h"
#include "sim/churn.h"

using namespace lppa;

namespace {

struct SoakCell {
  std::size_t threads = 0;
  std::size_t rounds = 0;
  std::size_t capacity = 0;
  std::size_t live_final = 0;
  std::size_t arrivals = 0;
  std::size_t departures = 0;
  std::size_t moves = 0;
  std::size_t rebids = 0;
  double maintain_ms = 0.0;  ///< delta maintenance only (O(Δ·w)), summed
  double rebuild_ms = 0.0;   ///< from-scratch oracles only (O(n·w)), summed
  double alloc_ms = 0.0;     ///< allocation+charging (identical both sides)
  bool all_checks_passed = false;
};

struct CrashLeg {
  std::size_t checkpoints = 0;
  std::size_t recoveries = 0;
  std::size_t replayed_records = 0;
  bool snapshots_match = false;
};

[[noreturn]] void fail(const std::string& what) {
  std::cerr << "FAIL: " << what << "\n";
  std::exit(1);
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// ---------------------------------------------------------------------------
// Phase 1: the soak.

SoakCell run_soak_cell(const sim::ChurnScheduleConfig& schedule_config,
                       std::size_t rounds, std::size_t threads,
                       obs::MetricsRegistry* metrics,
                       std::vector<std::vector<auction::Award>>* reference) {
  SoakCell cell;
  cell.threads = threads;
  cell.rounds = rounds;
  cell.capacity = schedule_config.capacity;

  core::LppaConfig lcfg;
  lcfg.num_channels = schedule_config.num_channels;
  lcfg.lambda = schedule_config.lambda;
  lcfg.coord_width = schedule_config.coord_width;
  lcfg.bid = core::PpbsBidConfig::advanced(
      schedule_config.bmax, 3, 4,
      core::ZeroDisguisePolicy::none(schedule_config.bmax));
  lcfg.num_threads = threads;
  lcfg.metrics = metrics;

  // One auction (and so one TTP key set) per cell, but the same TTP seed
  // and the same masking-Rng fork order in every cell: identical
  // schedules then produce identical masked submissions, which is what
  // makes the cross-cell award comparison meaningful.
  core::LppaAuction auction(lcfg, /*ttp_seed=*/77);
  const core::SuKeyBundle keys = auction.ttp().su_keys();
  const core::PpbsLocation location_protocol(
      keys.g0, lcfg.coord_width, lcfg.lambda, lcfg.pad_location_ranges);
  const core::BidSubmitter submitter(auction.ttp().config(), keys.gb_master,
                                     keys.gc);
  Rng mask_master(20130708);

  // Initial roster straight from the schedule's round-zero population.
  sim::ChurnSchedule schedule(schedule_config);
  const std::size_t capacity = schedule_config.capacity;
  std::vector<auction::SuLocation> locations(capacity);
  std::vector<core::LocationSubmission> loc_subs(capacity);
  std::vector<core::BidSubmission> bid_subs(capacity);
  const auction::BidVector zero_bids(lcfg.num_channels, 0);
  for (std::size_t u = 0; u < capacity; ++u) {
    Rng su_rng = mask_master.fork();
    if (schedule.live()[u]) {
      locations[u] = schedule.locations()[u];
      loc_subs[u] = location_protocol.submit(locations[u], su_rng);
      bid_subs[u] = submitter.submit(schedule.bids()[u], su_rng);
    } else {
      // Dead slot: no location digests, masked all-zero placeholder bid
      // (shape-valid; tombstoned inside ChurnState).
      bid_subs[u] = submitter.submit(zero_bids, su_rng);
    }
  }

  core::ChurnState state(lcfg, locations, loc_subs, bid_subs,
                         schedule.live());

  const bool first_cell = reference->empty();
  if (first_cell) reference->reserve(rounds);

  for (std::size_t round = 0; round < rounds; ++round) {
    // --- Apply this round's churn as deltas --------------------------------
    const auto events = schedule.next_round();
    const auto t_delta = std::chrono::steady_clock::now();
    for (const auto& ev : events) {
      Rng su_rng = mask_master.fork();
      switch (ev.kind) {
        case sim::ChurnEvent::Kind::kArrive:
          state.add_su(ev.user, ev.loc,
                       location_protocol.submit(ev.loc, su_rng),
                       submitter.submit(ev.bids, su_rng));
          ++cell.arrivals;
          break;
        case sim::ChurnEvent::Kind::kDepart:
          state.remove_su(ev.user);
          ++cell.departures;
          break;
        case sim::ChurnEvent::Kind::kMove:
          state.move_su(ev.user, ev.loc,
                        location_protocol.submit(ev.loc, su_rng));
          ++cell.moves;
          break;
        case sim::ChurnEvent::Kind::kRebid:
          state.rebid_su(ev.user, submitter.submit(ev.bids, su_rng));
          ++cell.rebids;
          break;
      }
    }
    cell.maintain_ms += ms_since(t_delta);

    // --- Rebuild oracles + bit-equality ------------------------------------
    const auto t_rebuild = std::chrono::steady_clock::now();
    const auction::ConflictGraph rebuilt_graph = state.rebuild_conflicts();
    core::EncryptedBidTable rebuilt_table = state.rebuild_table();
    const Bytes rebuilt_image = rebuilt_table.serialize();
    cell.rebuild_ms += ms_since(t_rebuild);

    const std::string where = " (threads=" + std::to_string(threads) +
                              " round=" + std::to_string(round) + ")";
    if (!(state.graph() == rebuilt_graph)) {
      fail("maintained conflict graph != rebuilt graph" + where);
    }
    if (state.serialize_table() != rebuilt_image) {
      fail("maintained table image != rebuilt table image" + where);
    }

    // --- Allocation + charging on both sides, same Rng ---------------------
    const std::uint64_t round_seed = 5000 + 13 * round;
    core::EncryptedBidTable maintained_table = state.table();
    const auto t_alloc = std::chrono::steady_clock::now();
    Rng maintained_rng(round_seed);
    const auto maintained = auction.allocate_and_charge(
        state.bids(), state.graph(), maintained_table, state.live(),
        maintained_rng);
    Rng rebuilt_rng(round_seed);
    const auto rebuilt = auction.allocate_and_charge(
        state.bids(), rebuilt_graph, rebuilt_table, state.live(),
        rebuilt_rng);
    cell.alloc_ms += ms_since(t_alloc);

    if (!(maintained.awards == rebuilt.awards)) {
      fail("maintained awards/charges != rebuilt awards/charges" + where);
    }
    if (first_cell) {
      reference->push_back(maintained.awards);
    } else if (!(maintained.awards == (*reference)[round])) {
      fail("awards differ from the threads=1 reference" + where);
    }
  }

  cell.live_final = state.live_count();
  cell.all_checks_passed = true;
  return cell;
}

// ---------------------------------------------------------------------------
// Phase 2: crash recovery mid-churn.

struct ChurnOp {
  bool depart = true;  ///< false = churn_return
  std::size_t user = 0;
};

/// Runs the session flow: ingest everyone, then apply `ops` starting at
/// `first_op` on `session`, hitting a kMidChurn checkpoint after every
/// op.  Records the post-op snapshot into `snapshots` when non-null.
void drive_churn_ops(proto::AuctioneerSession& session,
                     const std::vector<ChurnOp>& ops, std::size_t first_op,
                     proto::CrashInjector& injector,
                     std::vector<Bytes>* snapshots) {
  for (std::size_t k = first_op; k < ops.size(); ++k) {
    if (ops[k].depart) {
      session.churn_depart(ops[k].user);
    } else {
      session.churn_return(ops[k].user);
    }
    if (snapshots != nullptr) snapshots->push_back(session.snapshot());
    injector.checkpoint(proto::CrashPoint::kMidChurn);
  }
}

CrashLeg run_crash_leg(obs::MetricsRegistry* metrics) {
  CrashLeg leg;
  const std::size_t n = 8;

  core::LppaConfig lcfg;
  lcfg.num_channels = 4;
  lcfg.lambda = 64;
  lcfg.coord_width = 12;
  lcfg.bid = core::PpbsBidConfig::advanced(
      15, 3, 4, core::ZeroDisguisePolicy::none(15));
  lcfg.metrics = metrics;

  core::TrustedThirdParty ttp(lcfg.bid, 123);
  const core::SuKeyBundle keys = ttp.su_keys();

  // Deterministic envelopes, identical in every run of the leg.
  std::vector<Bytes> loc_envelopes(n);
  std::vector<Bytes> bid_envelopes(n);
  Rng env_master(777);
  for (std::size_t u = 0; u < n; ++u) {
    Rng su_rng = env_master.fork();
    const proto::SuClient su(u, lcfg, keys);
    auction::SuLocation loc;
    loc.x = 100 + 231 * u;
    loc.y = 150 + 173 * u;
    auction::BidVector bids(lcfg.num_channels, 0);
    for (std::size_t r = 0; r < bids.size(); ++r) {
      bids[r] = static_cast<auction::Money>((3 * u + 2 * r) % 16);
    }
    loc_envelopes[u] = su.location_envelope(loc, su_rng);
    bid_envelopes[u] = su.bid_envelope(bids, su_rng);
  }

  const std::vector<ChurnOp> ops = {
      {true, 1}, {true, 4}, {false, 1}, {true, 2}, {false, 4}, {true, 1},
  };
  leg.checkpoints = ops.size();

  auto ingest_all = [&](proto::AuctioneerSession& session) {
    for (std::size_t u = 0; u < n; ++u) {
      std::string error;
      if (session.try_ingest(loc_envelopes[u], &error) !=
              proto::AuctioneerSession::IngestResult::kAccepted ||
          session.try_ingest(bid_envelopes[u], &error) !=
              proto::AuctioneerSession::IngestResult::kAccepted) {
        fail("crash leg: honest submission rejected: " + error);
      }
    }
  };

  // Crash-free twin: snapshot after every churn op is the recovery target.
  std::vector<Bytes> expected;
  {
    proto::AuctioneerSession session(lcfg, n);
    proto::RoundJournal journal;
    journal.append_round_start(n);
    session.attach_journal(&journal);
    ingest_all(session);
    proto::CrashInjector never;  // counts checkpoints, never fires
    drive_churn_ops(session, ops, 0, never, &expected);
    if (never.hits(proto::CrashPoint::kMidChurn) != ops.size()) {
      fail("crash leg: checkpoint census mismatch");
    }
  }

  // One crashed run per checkpoint: die there, replay the journal into a
  // fresh session, compare snapshots, then resume to the end.
  bool all_match = true;
  for (std::size_t nth = 0; nth < ops.size(); ++nth) {
    proto::RoundJournal journal;
    journal.append_round_start(n);
    proto::CrashInjector injector;
    injector.arm(proto::CrashPoint::kMidChurn, nth);
    bool crashed = false;
    {
      proto::AuctioneerSession session(lcfg, n);
      session.attach_journal(&journal);
      ingest_all(session);
      try {
        drive_churn_ops(session, ops, 0, injector, nullptr);
      } catch (const proto::CrashSignal&) {
        crashed = true;
      }
    }
    if (!crashed) fail("crash leg: armed kMidChurn checkpoint never fired");

    proto::AuctioneerSession recovered(lcfg, n);
    proto::RoundReport report;
    leg.replayed_records +=
        proto::replay_session_journal(journal, recovered, n, report);
    ++leg.recoveries;
    if (recovered.snapshot() != expected[nth]) {
      all_match = false;
      fail("crash leg: recovered snapshot differs at churn op " +
           std::to_string(nth));
    }
    // Resume: the journal picks back up where the dead process left it.
    recovered.attach_journal(&journal);
    proto::CrashInjector never;
    drive_churn_ops(recovered, ops, nth + 1, never, nullptr);
    if (recovered.snapshot() != expected.back()) {
      all_match = false;
      fail("crash leg: resumed final snapshot differs (crash at op " +
           std::to_string(nth) + ")");
    }
  }
  leg.snapshots_match = all_match;
  return leg;
}

// ---------------------------------------------------------------------------

void write_json(const std::string& path, const std::vector<SoakCell>& cells,
                const CrashLeg& leg) {
  std::ofstream out = bench::open_output_or_die(path);
  obs::JsonWriter w(out, /*indent=*/2);
  w.begin_object();
  w.key("soak").begin_array();
  for (const SoakCell& c : cells) {
    w.begin_object()
        .field("threads", c.threads)
        .field("rounds", c.rounds)
        .field("capacity", c.capacity)
        .field("live_final", c.live_final)
        .field("arrivals", c.arrivals)
        .field("departures", c.departures)
        .field("moves", c.moves)
        .field("rebids", c.rebids)
        .field("maintain_ms", c.maintain_ms)
        .field("rebuild_ms", c.rebuild_ms)
        .field("alloc_ms", c.alloc_ms)
        .field("rebuild_over_maintain",
               c.maintain_ms > 0.0 ? c.rebuild_ms / c.maintain_ms : 0.0)
        .field("all_checks_passed", c.all_checks_passed)
        .end_object();
  }
  w.end_array();
  w.key("crash").begin_object()
      .field("checkpoints", leg.checkpoints)
      .field("recoveries", leg.recoveries)
      .field("replayed_records", leg.replayed_records)
      .field("snapshots_match", leg.snapshots_match)
      .end_object();
  w.end_object();
  out << "\n";
  bench::close_output_or_die(out, path);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);

  // 4 cells x rounds: the --full soak clears 1000 churn rounds total.
  const std::size_t rounds = args.full ? 250 : (args.smoke ? 15 : 60);
  sim::ChurnScheduleConfig schedule_config;
  schedule_config.capacity = args.full ? 48 : (args.smoke ? 16 : 32);
  schedule_config.initial_live = schedule_config.capacity / 2;
  // Moderate churn: a handful of events per round, so the O(delta*w) vs
  // O(n*w) comparison reflects the regime the incremental path targets
  // (the correctness checks are churn-rate independent).
  schedule_config.arrive_prob = 0.15;
  schedule_config.depart_prob = 0.06;
  schedule_config.move_prob = 0.08;
  schedule_config.rebid_prob = 0.12;
  schedule_config.num_channels = args.full ? 8 : (args.smoke ? 4 : 6);
  schedule_config.bmax = 15;
  schedule_config.coord_width = 16;
  schedule_config.lambda = 512;
  schedule_config.seed = 20130708;

  obs::MetricsRegistry registry;
  std::vector<std::vector<auction::Award>> reference;
  std::vector<SoakCell> cells;
  Table table({"threads", "rounds", "events", "live_final", "maintain_ms",
               "rebuild_ms", "rebuild/maintain"});

  const std::vector<std::size_t> thread_counts =
      args.threads > 0 ? std::vector<std::size_t>{args.threads}
                       : std::vector<std::size_t>{1, 2, 3, 4};
  for (const std::size_t threads : thread_counts) {
    const SoakCell cell = run_soak_cell(schedule_config, rounds, threads,
                                        &registry, &reference);
    const std::size_t events =
        cell.arrivals + cell.departures + cell.moves + cell.rebids;
    table.add_row({Table::cell(cell.threads), Table::cell(cell.rounds),
                   Table::cell(events), Table::cell(cell.live_final),
                   Table::cell(cell.maintain_ms, 1),
                   Table::cell(cell.rebuild_ms, 1),
                   Table::cell(cell.maintain_ms > 0.0
                                   ? cell.rebuild_ms / cell.maintain_ms
                                   : 0.0,
                               2) +
                       "x"});
    cells.push_back(cell);
  }

  const CrashLeg leg = run_crash_leg(&registry);

  write_json(args.json_path.empty() ? "BENCH_abl_churn.json" : args.json_path,
             cells, leg);
  bench::dump_metrics(registry, args);
  bench::emit(table, args,
              "Churn soak: incremental maintenance vs from-scratch rebuild "
              "(bit-identical every round)");
  std::cout << "crash leg: " << leg.recoveries << "/" << leg.checkpoints
            << " mid-churn crashes recovered to byte-identical snapshots\n"
            << "Expected: every soak cell passes every per-round equality\n"
               "check (the binary aborts otherwise); delta maintenance\n"
               "costs O(delta*w) per round against the rebuild's O(n*w),\n"
               "so rebuild/maintain grows with capacity over churn rate.\n";
  return 0;
}
