// Shared plumbing for the figure/table reproduction binaries.
//
// Every binary accepts "--full" to run at the paper's scale (100x100
// cells, 129 channels, 100+ users); the default profile shrinks the
// workload so the whole bench suite finishes in a couple of minutes while
// preserving every qualitative shape.  "--csv" switches the output to
// machine-readable CSV.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "common/table.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "sim/experiments.h"

namespace lppa::bench {

struct BenchArgs {
  bool full = false;
  bool smoke = false;        ///< --smoke: tiny workload for the perfsmoke ctest
  bool csv = false;
  std::string json_path;     ///< --json <path>: machine-readable dump target
  std::string metrics_path;  ///< --metrics <path>: obs snapshot target
  std::size_t threads = 0;   ///< --threads N: worker threads (0 = hardware)
  std::size_t conns = 0;     ///< --conns N: concurrent SU connections for
                             ///< loadgen (0 = profile default)

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--full") == 0) args.full = true;
      else if (std::strcmp(argv[i], "--smoke") == 0) args.smoke = true;
      else if (std::strcmp(argv[i], "--csv") == 0) args.csv = true;
      else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        args.json_path = argv[++i];
      } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
        args.metrics_path = argv[++i];
      } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
        args.threads = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
      } else if (std::strcmp(argv[i], "--conns") == 0 && i + 1 < argc) {
        args.conns = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
      } else if (std::strcmp(argv[i], "--help") == 0) {
        std::cout << "usage: " << argv[0]
                  << " [--full] [--smoke] [--csv] [--json <path>]"
                     " [--metrics <path>] [--threads N] [--conns N]\n"
                  << "  --full        paper-scale workload (slower)\n"
                  << "  --smoke       small-n workload (perfsmoke regression gate)\n"
                  << "  --csv         machine-readable output\n"
                  << "  --json <path> write results as JSON to <path>\n"
                  << "  --metrics <path> write an obs metrics snapshot"
                     " (.prom = Prometheus text)\n"
                  << "  --threads N   worker threads for parallel phases"
                     " (0 = hardware)\n"
                  << "  --conns N     concurrent SU connections for loadgen"
                     " (0 = profile default)\n";
        std::exit(0);
      } else {
        std::cerr << "FATAL: unknown or incomplete flag: " << argv[i] << "\n";
        std::exit(1);
      }
    }
    // Fail at parse time, not after minutes of sweep: every binary
    // accepts these flags, but not every binary reaches its dump site
    // (and a crashed sweep should not be the first writability check).
    probe_writable(args.json_path);
    probe_writable(args.metrics_path);
    return args;
  }

 private:
  /// Dies (nonzero exit) unless `path` can be opened for writing.  The
  /// probe opens in append mode so an existing file is not clobbered; a
  /// file the probe itself created is removed again.
  static void probe_writable(const std::string& path) {
    if (path.empty()) return;
    const bool existed = static_cast<bool>(std::ifstream(path));
    std::ofstream probe(path, std::ios::app);
    if (!probe) {
      std::cerr << "FATAL: cannot open '" << path << "' for writing\n";
      std::exit(1);
    }
    probe.close();
    if (!existed) std::remove(path.c_str());
  }
};

/// Opens `path` for writing.  An unwritable --json / --metrics target is
/// a hard error (nonzero exit), never a silently dropped artifact — a CI
/// sweep must not "pass" while producing nothing.
inline std::ofstream open_output_or_die(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "FATAL: cannot open '" << path << "' for writing\n";
    std::exit(1);
  }
  return out;
}

/// Flushes `out` and dies (nonzero exit) if any write failed — catches
/// disk-full and path-removed-mid-run, which leave a truncated document.
inline void close_output_or_die(std::ofstream& out, const std::string& path) {
  out.flush();
  if (!out.good()) {
    std::cerr << "FATAL: write to '" << path << "' failed\n";
    std::exit(1);
  }
}

/// `count` per second given `wall_ms` milliseconds, clamped to 0.0 when
/// the timer read zero or the division overflows: bench JSON must never
/// carry inf/nan (strict parsers — and tools/bench_compare.py — reject
/// them).
inline double rate_per_sec(double count, double wall_ms) {
  if (!(wall_ms > 0.0)) return 0.0;
  const double rate = 1000.0 * count / wall_ms;
  return std::isfinite(rate) ? rate : 0.0;
}

/// Honors --metrics: writes the registry snapshot and exits nonzero when
/// the target cannot be written.  A no-op without the flag.
inline void dump_metrics(const obs::MetricsRegistry& registry,
                         const BenchArgs& args) {
  if (args.metrics_path.empty()) return;
  std::string error;
  if (!obs::write_metrics_file(registry, args.metrics_path, &error)) {
    std::cerr << "FATAL: " << error << "\n";
    std::exit(1);
  }
  std::cout << "wrote " << args.metrics_path << " (metrics snapshot)\n";
}

/// The paper's experimental world scaled by the profile.
inline sim::ScenarioConfig scenario_config(const BenchArgs& args, int area_id,
                                           std::uint64_t seed = 20130708) {
  sim::ScenarioConfig cfg;
  cfg.area_id = area_id;
  cfg.seed = seed;
  if (args.full) {
    cfg.fcc.rows = 100;
    cfg.fcc.cols = 100;
    cfg.fcc.num_channels = 129;
    cfg.num_users = 100;
  } else {
    cfg.fcc.rows = 100;
    cfg.fcc.cols = 100;
    cfg.fcc.num_channels = 60;
    cfg.num_users = 60;
  }
  return cfg;
}

inline void emit(const Table& table, const BenchArgs& args,
                 const std::string& title) {
  std::cout << "== " << title << " ==\n";
  if (args.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "\n";
}

}  // namespace lppa::bench
