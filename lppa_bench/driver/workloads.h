// The benchmark's three workloads (README.md says why each exists).
#pragma once

#include "driver/common.h"

namespace lppa::bench_driver {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double rate = 0.0;  ///< socket_ingest release rate, SUs per second
};

/// Closed loop of from-scratch LppaAuction::run rounds, n = 6400.
void run_city_sparse(const Args& args, Result& result);
/// Closed loop of maintained ChurnState rounds, 32 channels, dense.
void run_paper_churn(const Args& args, Result& result);
/// Open loop of socket rounds over TCP loopback, n = 1000.
void run_socket_ingest(const Args& args, Result& result);

}  // namespace lppa::bench_driver
