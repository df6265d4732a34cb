// Shared plumbing of the LPPA round benchmark: clocks, percentiles, the
// result record every workload fills (with the traced run's spans), host
// context, and the output checks the closed-loop workloads share.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "auction/bid.h"
#include "auction/conflict.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace lppa::bench_driver {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Independent, reproducible stream seed for one named purpose of a run.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t purpose);

// --- Percentiles ------------------------------------------------------------

/// Nearest-rank percentile: the smallest sample such that at least
/// `pct` percent of the samples are at or below it.  `pct` in (0, 100];
/// an empty input yields 0.
double percentile(std::vector<double> samples, double pct);

/// The highest percentile of the ladder 50, 75, 90, 95, 99, 99.9 whose
/// nearest rank leaves at least ten samples strictly beyond it; 0 when
/// even the median has fewer than ten samples beyond it.
double tail_percentile(std::size_t num_samples);

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// The mean of the samples ranked strictly beyond the nearest-rank
/// percentile `pct` (the slowest 1% for 99); the maximum when no sample
/// is beyond it, 0 for an empty input.
double tail_mean(std::vector<double> samples, double pct);

/// Per-slot medians of rounds stored back to back: sample k * slots + i
/// is slot i of round k.  A cost the program pays at the same slot of
/// every round stays in that slot's median; a stall that hits one round
/// at a random slot does not.  `samples.size()` must be a multiple of
/// `slots`.
std::vector<double> slot_medians(const std::vector<double>& samples,
                                 std::size_t slots);

// --- Result record -----------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports.  `metrics` holds every metric the run
/// measured; run.py picks the contract's set for the run's mode.  `info`
/// carries context that is recorded, not gated: sample counts, tail
/// percentiles, host figures, probe sizes.  `spans` collects the traced
/// run's obs::Span records, opened from the benchmark's own code around
/// calls into the program's public API.
struct Result {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string attempt_unit;  ///< what one attempt is (the fail_ratio base)
  std::vector<std::string> failures;  ///< first few failure messages
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> info;
  obs::MetricsRegistry spans;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records `count` failed attempts with their reason.
  void fail(const std::string& why, std::size_t count = 1);

  /// Sample count, median and the rule-chosen tail of `samples` into
  /// `info` under `name`.
  void record_distribution(const std::string& name,
                           const std::vector<double>& samples);
};

/// Writes the result as one line of strict JSON (non-finite numbers are
/// written as null, which run.py rejects).  The trace's spans are folded
/// per name into count, total and self time (a span's duration minus the
/// part of it its children cover).
void write_result_line(const Result& result, std::ostream& out);

// --- Host context ------------------------------------------------------------

/// Restarts the process's peak resident set count (Linux clear_refs), so
/// peak_rss_mb() covers only what runs after this call.  False when the
/// kernel does not allow it; the peak then covers the whole process (the
/// result file's peak_rss_mb.per_round is 0).
bool reset_peak_rss();

/// Peak resident set size since the last reset_peak_rss(), in MiB.
double peak_rss_mb();

/// SHA-256 throughput of one core over a 1 MiB buffer, MB/s.
double sha256_mb_s();

/// Fixed pure-compute work split into nproc chunks: wall time on one
/// thread divided by wall time on nproc threads.
double effective_parallelism();

// --- Worlds and output checks -------------------------------------------------

struct PlainWorld {
  std::vector<auction::SuLocation> locations;
  std::vector<auction::BidVector> bids;
};

/// n SUs placed uniformly in [0, span)² with bids uniform in [0, bmax] on
/// every channel.
PlainWorld uniform_world(std::size_t n, std::size_t channels,
                         std::uint64_t span, auction::Money bmax,
                         std::uint64_t seed);

/// The round invariants on a published award list: every awarded user is
/// live (when `live` is given) and holds at most one channel, no two
/// winners of one channel conflict under the plaintext predicate, and
/// charging is first-price: a valid award charges exactly its true bid
/// (> 0), an invalid one is a true zero bid charged 0.  Returns the first
/// violation, or an empty string.
std::string check_awards(const std::vector<auction::Award>& awards,
                         const std::vector<auction::SuLocation>& locations,
                         const std::vector<auction::BidVector>& true_bids,
                         std::uint64_t lambda,
                         const std::vector<bool>* live = nullptr);

}  // namespace lppa::bench_driver
