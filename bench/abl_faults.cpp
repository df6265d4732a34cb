// Robustness ablation: the hardened wire round under escalating message
// faults (docs/robustness.md).
//
// Sweeps the per-link drop rate, then mixes in Byzantine SUs, and for
// every cell reports who survived, how many retry waves the round
// needed, and whether the survivors' awards are byte-identical to a
// fault-free round restricted to the same survivors — the determinism
// contract the fault tests pin.  The last column is the point of the
// layer: graceful degradation keeps every cell "yes" until the retry
// budget itself is exhausted.
#include <algorithm>
#include <fstream>

#include "bench_util.h"
#include "proto/fault.h"
#include "proto/session.h"

using namespace lppa;

namespace {

struct FaultCell {
  double drop = 0.0;
  std::size_t byzantine = 0;
  proto::RoundReport report;
  bool awards_match_restricted = false;
};

// Machine-readable dump: one object per sweep cell, the full RoundReport
// spliced in via its stable to_json() schema (the same obs::json emitter
// end to end).  Default path BENCH_abl_faults.json.
void write_json(const std::string& path, const std::vector<FaultCell>& cells) {
  std::ofstream out = bench::open_output_or_die(path);
  obs::JsonWriter w(out, /*indent=*/2);
  w.begin_array();
  for (const FaultCell& c : cells) {
    w.begin_object()
        .field("drop", c.drop)
        .field("byzantine", c.byzantine)
        .field("awards_match_restricted", c.awards_match_restricted);
    w.key("report").raw(c.report.to_json());
    w.end_object();
  }
  w.end_array();
  out << "\n";
  bench::close_output_or_die(out, path);
}

// One hardened round under `spec` with `byzantine` marked, compared
// against the fault-free round that excludes exactly the parties lost.
// `metrics` (nullable) observes the faulty run only: bus traffic, fault
// verdicts, TTP batches, session ingest verdicts, wire-phase spans.
FaultCell run_cell(const core::LppaConfig& config,
                   const std::vector<auction::SuLocation>& locations,
                   const std::vector<auction::BidVector>& bids,
                   const proto::FaultSpec& spec,
                   const std::vector<std::size_t>& byzantine,
                   std::uint64_t seed, obs::MetricsRegistry* metrics) {
  FaultCell cell;
  cell.drop = spec.drop;
  cell.byzantine = byzantine.size();

  core::TrustedThirdParty ttp(config.bid, 77 + seed);
  ttp.set_metrics(metrics);
  proto::MessageBus bus;
  bus.set_metrics(metrics);
  proto::FaultInjector injector(seed, spec);
  injector.set_metrics(metrics);
  for (std::size_t b : byzantine) {
    injector.mark_byzantine(proto::Address::su(b));
  }
  bus.set_fault_injector(&injector);
  core::LppaConfig observed = config;
  observed.metrics = metrics;
  const auto faulty = proto::run_recoverable_wire_auction(
      observed, ttp, locations, bids, bus, 5 + seed);
  cell.report = faulty.report;

  std::vector<std::size_t> lost;
  for (const auto& e : faulty.report.excluded) lost.push_back(e.user);
  std::sort(lost.begin(), lost.end());

  core::TrustedThirdParty clean_ttp(config.bid, 77 + seed);
  proto::MessageBus clean_bus;
  const auto clean = proto::run_recoverable_wire_auction(
      config, clean_ttp, locations, bids, clean_bus, 5 + seed, {},
      /*crashes=*/nullptr, lost);
  cell.awards_match_restricted =
      faulty.report.completed && clean.awards == faulty.awards;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  auto cfg = bench::scenario_config(args, /*area_id=*/3);
  cfg.fcc.num_channels = args.full ? 24 : 12;
  cfg.num_users = args.full ? 60 : 30;
  sim::Scenario scenario(cfg);

  core::LppaConfig lcfg;
  lcfg.num_channels = cfg.fcc.num_channels;
  lcfg.lambda = cfg.lambda_m;
  lcfg.coord_width = scenario.coord_width();
  lcfg.bid = core::PpbsBidConfig::advanced(
      cfg.bmax, 3, 4, core::ZeroDisguisePolicy::none(cfg.bmax));

  Table table({"drop", "byzantine", "survivors", "retry_waves", "rejected",
               "faults_injected", "completed", "awards_match_restricted"});
  std::vector<FaultCell> cells;
  obs::MetricsRegistry registry;  // aggregated across all faulty cells
  const std::vector<double> drop_rates{0.0, 0.05, 0.10, 0.20, 0.30};
  const std::vector<std::size_t> byzantine_counts{0, 2};
  for (std::size_t nb : byzantine_counts) {
    std::vector<std::size_t> byzantine;
    for (std::size_t b = 0; b < nb; ++b) {
      byzantine.push_back(3 + 4 * b);  // spread through the population
    }
    for (double drop : drop_rates) {
      proto::FaultSpec spec;
      spec.drop = drop;
      const FaultCell cell =
          run_cell(lcfg, scenario.locations(), scenario.bids(), spec,
                   byzantine, 4242, &registry);
      const auto& f = cell.report.faults;
      table.add_row(
          {Table::cell(drop, 2), Table::cell(nb),
           Table::cell(cell.report.survivors.size()),
           Table::cell(cell.report.retry_waves),
           Table::cell(cell.report.rejected_messages),
           Table::cell(f.drops + f.duplicates + f.reorders + f.corruptions +
                       f.delays),
           cell.report.completed ? "yes" : "NO",
           cell.awards_match_restricted ? "yes" : "NO"});
      cells.push_back(cell);
    }
  }
  write_json(args.json_path.empty() ? "BENCH_abl_faults.json" : args.json_path,
             cells);
  bench::dump_metrics(registry, args);
  bench::emit(table, args,
              "Hardened round under drop + Byzantine faults "
              "(awards vs fault-free run restricted to survivors)");
  std::cout
      << "Expected: every row completes; Byzantine SUs are excluded and\n"
         "drop-rate rows keep all survivors via nack/retransmit waves;\n"
         "awards always match the fault-free run restricted to the same\n"
         "survivors (the determinism contract of docs/robustness.md).\n";
  return 0;
}
