// §V-C.2: reducing the TTP's online time by batching charge queries.
//
// The auctioneer accumulates winners and flushes them to the TTP in
// batches; larger batches mean fewer TTP online windows but a longer
// wait before the last winner's charge is published.  This table
// quantifies that trade-off on real wire traffic (proto::MessageBus).
#include "bench_util.h"
#include "proto/session.h"

int main(int argc, char** argv) {
  using namespace lppa;
  const auto args = bench::BenchArgs::parse(argc, argv);

  auto cfg = bench::scenario_config(args, /*area_id=*/3);
  cfg.fcc.num_channels = args.full ? 40 : 24;
  cfg.num_users = args.full ? 100 : 60;
  sim::Scenario scenario(cfg);

  const std::vector<std::size_t> batch_sizes = {1, 4, 8, 16, 32, 64};

  Table table({"batch_size", "awards", "ttp_batches", "bytes_to_ttp",
               "bytes_from_ttp", "max_queue_latency"});
  for (std::size_t batch : batch_sizes) {
    core::LppaConfig lcfg;
    lcfg.num_channels = cfg.fcc.num_channels;
    lcfg.lambda = cfg.lambda_m;
    lcfg.coord_width = scenario.coord_width();
    lcfg.bid = core::PpbsBidConfig::advanced(
        cfg.bmax, 3, 4, core::ZeroDisguisePolicy::linear(cfg.bmax, 0.3));
    lcfg.ttp_batch_size = batch;

    core::TrustedThirdParty ttp(lcfg.bid, 21);
    proto::MessageBus bus;
    const auto result = proto::run_recoverable_wire_auction(
        lcfg, ttp, scenario.locations(), scenario.bids(), bus, /*seed=*/5);

    const auto to_ttp =
        bus.link(proto::Address::auctioneer(), proto::Address::ttp());
    const auto from_ttp =
        bus.link(proto::Address::ttp(), proto::Address::auctioneer());
    // Worst-case positions a winner can wait before its batch flushes.
    const std::size_t max_latency =
        std::min(batch, result.awards.size());
    table.add_row({Table::cell(batch), Table::cell(result.awards.size()),
                   Table::cell(ttp.batches_processed()), Table::cell(to_ttp.bytes),
                   Table::cell(from_ttp.bytes), Table::cell(max_latency)});
  }
  bench::emit(table, args,
              "TTP batching (§V-C.2) — online windows vs publication lag");
  std::cout << "Expected: batches (= TTP online windows) fall as 1/batch\n"
               "size while total bytes stay ~constant; the price is the\n"
               "queue latency before the final winner's charge publishes.\n";
  return 0;
}
