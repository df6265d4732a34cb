// wire_session: the LPPA auction as actual network traffic.
//
// Every protocol message — masked locations, masked bid vectors, charge
// query batches, charge results — travels through a MessageBus as
// serialized bytes, exactly as it would between real hosts.  The example
// prints the per-link traffic matrix and checks the Theorem 4 prediction
// against what was really shipped.
//
// Build & run:  cmake --build build && ./build/examples/wire_session
//               (add --metrics <path> for an obs snapshot; .prom suffix
//               selects the Prometheus text format)
#include <cstring>
#include <iomanip>
#include <iostream>
#include <string>

#include "core/theorems.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "proto/session.h"
#include "sim/scenario.h"

int main(int argc, char** argv) {
  using namespace lppa;

  std::string metrics_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::cout << "usage: " << argv[0] << " [--metrics <path>]\n"
                << "  --metrics <path> write an obs metrics snapshot"
                   " (.prom = Prometheus text)\n";
      return 0;
    } else {
      std::cerr << "unknown or incomplete flag: " << argv[i] << "\n";
      return 1;
    }
  }

  sim::ScenarioConfig world;
  world.area_id = 3;
  world.fcc.num_channels = 16;
  world.num_users = 20;
  world.seed = 515;
  sim::Scenario scenario(world);

  obs::MetricsRegistry registry;
  obs::MetricsRegistry* const metrics =
      metrics_path.empty() ? nullptr : &registry;

  core::LppaConfig cfg;
  cfg.num_channels = world.fcc.num_channels;
  cfg.lambda = world.lambda_m;
  cfg.coord_width = scenario.coord_width();
  cfg.bid = core::PpbsBidConfig::advanced(
      world.bmax, 3, 4, core::ZeroDisguisePolicy::linear(world.bmax, 0.4));
  cfg.ttp_batch_size = 6;
  cfg.metrics = metrics;

  core::TrustedThirdParty ttp(cfg.bid, 2026);
  ttp.set_metrics(metrics);
  proto::MessageBus bus;
  bus.set_metrics(metrics);
  const auto result = proto::run_recoverable_wire_auction(
      cfg, ttp, scenario.locations(), scenario.bids(), bus, /*seed=*/9);

  std::cout << "=== link traffic =============================================\n";
  proto::LinkStats su_to_auc;
  for (std::size_t u = 0; u < world.num_users; ++u) {
    const auto link = bus.link(proto::Address::su(u), proto::Address::auctioneer());
    su_to_auc.messages += link.messages;
    su_to_auc.bytes += link.bytes;
  }
  std::cout << "  SUs -> auctioneer : " << su_to_auc.messages
            << " messages, " << su_to_auc.bytes / 1024 << " KiB\n";
  const auto to_ttp =
      bus.link(proto::Address::auctioneer(), proto::Address::ttp());
  const auto from_ttp =
      bus.link(proto::Address::ttp(), proto::Address::auctioneer());
  std::cout << "  auctioneer -> TTP : " << to_ttp.messages << " batches, "
            << to_ttp.bytes << " bytes\n"
            << "  TTP -> auctioneer : " << from_ttp.messages << " batches, "
            << from_ttp.bytes << " bytes\n";

  std::cout << "\n=== Theorem 4 check ==========================================\n";
  const int w = cfg.bid.enc.scaled_width();
  const double predicted_bits = core::theorems::thm4_comm_bits(
      core::theorems::hmac_length_ratio(w), cfg.num_channels,
      world.num_users, w);
  std::cout << std::fixed << std::setprecision(1)
            << "  predicted bid-digest volume: " << predicted_bits / 8 / 1024
            << " KiB (h*k*N*(3w-1)(w+1), w=" << w << ")\n"
            << "  measured SU->auctioneer:     "
            << static_cast<double>(su_to_auc.bytes) / 1024
            << " KiB (adds locations, framing, sealed payloads)\n";

  std::cout << "\n=== outcome ==================================================\n";
  std::size_t valid = 0;
  for (const auto& a : result.awards) valid += a.valid ? 1 : 0;
  std::cout << "  " << result.awards.size() << " awards (" << valid
            << " validly charged) across " << ttp.batches_processed()
            << " TTP batches\n"
            << "  every byte of this auction crossed the bus as a\n"
               "  serialized message and was parsed back on arrival.\n";

  if (metrics != nullptr) {
    std::string error;
    if (!obs::write_metrics_file(registry, metrics_path, &error)) {
      std::cerr << "FATAL: " << error << "\n";
      return 1;
    }
    std::cout << "\nwrote " << metrics_path << " (metrics snapshot)\n";
  }
  return 0;
}
