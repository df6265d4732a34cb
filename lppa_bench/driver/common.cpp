#include "driver/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "crypto/sha256.h"
#include "obs/json.h"

namespace lppa::bench_driver {

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t purpose) {
  return derive_stream_seed(seed, purpose);
}

namespace {

/// 1-based nearest rank of percentile `pct` among n samples.
std::size_t nearest_rank(double pct, std::size_t n) {
  const double exact = pct / 100.0 * static_cast<double>(n);
  // The epsilon keeps exact products (0.5 * 8 = 4) from rounding up.
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  const std::size_t k = nearest_rank(pct, samples.size()) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

double tail_mean(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = nearest_rank(pct, samples.size());
  if (rank == samples.size()) return samples.back();
  double sum = 0.0;
  for (std::size_t i = rank; i < samples.size(); ++i) sum += samples[i];
  return sum / static_cast<double>(samples.size() - rank);
}

std::vector<double> slot_medians(const std::vector<double>& samples,
                                 std::size_t slots) {
  LPPA_REQUIRE(slots > 0 && samples.size() % slots == 0,
               "samples must hold whole rounds of `slots` each");
  const std::size_t rounds = samples.size() / slots;
  std::vector<double> out(slots), column(rounds);
  for (std::size_t i = 0; i < slots; ++i) {
    for (std::size_t k = 0; k < rounds; ++k) column[k] = samples[k * slots + i];
    out[i] = median(column);
  }
  return out;
}

double tail_percentile(std::size_t num_samples) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  if (num_samples == 0) return 0.0;
  for (const double pct : kLadder) {
    if (num_samples - nearest_rank(pct, num_samples) >= 10) return pct;
  }
  return 0.0;
}

// --- Result -------------------------------------------------------------------

void Result::fail(const std::string& why, std::size_t count) {
  failed += count;
  if (failures.size() < 8) failures.push_back(why);
}

void Result::record_distribution(const std::string& name,
                                 const std::vector<double>& samples) {
  info[name + ".samples"] = static_cast<double>(samples.size());
  info[name + ".p50"] = percentile(samples, 50.0);
  const double tail = tail_percentile(samples.size());
  info[name + ".tail_pct"] = tail;
  if (tail > 0.0) info[name + ".tail"] = percentile(samples, tail);
}

void write_result_line(const Result& result, std::ostream& out) {
  obs::JsonWriter w(out);
  w.begin_object()
      .field("workload", std::string_view(result.workload))
      .field("seed", result.seed)
      .field("trace", result.trace)
      .field("correct", result.failed == 0 && result.attempted > 0)
      .field("attempted", result.attempted)
      .field("failed", result.failed)
      .field("attempt_unit", std::string_view(result.attempt_unit));
  w.key("failures").begin_array();
  for (const std::string& f : result.failures) w.value(std::string_view(f));
  w.end_array();
  w.key("metrics").begin_object();
  for (const auto& [name, metric] : result.metrics) {
    w.key(name)
        .begin_object()
        .field("value", metric.value)
        .field("unit", std::string_view(metric.unit))
        .end_object();
  }
  w.end_object();
  w.key("info").begin_object();
  for (const auto& [name, value] : result.info) w.field(name, value);
  w.end_object();
  struct Summary {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  const std::vector<obs::SpanRecord> spans = result.spans.spans();
  std::map<std::uint64_t, double> child_us;
  for (const obs::SpanRecord& s : spans) {
    if (s.parent != 0) child_us[s.parent] += s.wall_us;
  }
  std::map<std::string, Summary> summary;
  for (const obs::SpanRecord& s : spans) {
    Summary& sum = summary[s.name];
    ++sum.count;
    sum.total_ms += s.wall_us / 1000.0;
    const auto children = child_us.find(s.id);
    sum.self_ms += (s.wall_us - (children != child_us.end() ? children->second
                                                            : 0.0)) /
                   1000.0;
  }
  w.key("spans").begin_object();
  for (const auto& [name, s] : summary) {
    w.key(name)
        .begin_object()
        .field("count", s.count)
        .field("total_ms", s.total_ms)
        .field("self_ms", s.self_ms)
        .end_object();
  }
  w.end_object();
  w.field("spans_dropped", result.spans.spans_dropped());
  w.end_object();
  out << "\n";
}

// --- Host context -------------------------------------------------------------

bool reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // 5: reset the peak resident set size
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double sha256_mb_s() {
  std::vector<std::uint8_t> buffer(1u << 20);
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<std::uint8_t>(i * 131u + 7u);
  }
  std::uint64_t sink = 0;
  std::size_t bytes = 0;
  const auto t0 = Clock::now();
  auto t1 = t0;
  while (ms_between(t0, t1) < 100.0) {
    sink ^= crypto::Sha256::hash(buffer).fingerprint();
    bytes += buffer.size();
    buffer[sink % buffer.size()] ^= 1;  // each pass hashes fresh bytes
    t1 = Clock::now();
  }
  return static_cast<double>(bytes) / 1e6 / (ms_between(t0, t1) / 1000.0);
}

double effective_parallelism() {
  const std::size_t chunks = ThreadPool::hardware_threads();
  std::vector<std::uint64_t> sinks(chunks, 0);
  const auto body = [&](std::size_t c) {
    SplitMix64 mix(c + 1);
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < 20'000'000; ++i) acc ^= mix.next();
    sinks[c] = acc;
  };
  auto t0 = Clock::now();
  parallel_for(chunks, 1, body);
  const double one = ms_between(t0, Clock::now());
  t0 = Clock::now();
  parallel_for(chunks, chunks, body);
  const double many = ms_between(t0, Clock::now());
  return many > 0.0 ? one / many : 0.0;
}

// --- Worlds and output checks -------------------------------------------------

PlainWorld uniform_world(std::size_t n, std::size_t channels,
                         std::uint64_t span, auction::Money bmax,
                         std::uint64_t seed) {
  Rng rng(seed);
  PlainWorld world;
  world.locations.resize(n);
  world.bids.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    world.locations[i] = {rng.below(span), rng.below(span)};
    world.bids[i].resize(channels);
    for (auto& b : world.bids[i]) b = rng.below(bmax + 1);
  }
  return world;
}

std::string check_awards(const std::vector<auction::Award>& awards,
                         const std::vector<auction::SuLocation>& locations,
                         const std::vector<auction::BidVector>& true_bids,
                         std::uint64_t lambda, const std::vector<bool>* live) {
  std::vector<bool> holds(locations.size(), false);
  std::vector<std::vector<std::size_t>> by_channel;
  for (const auction::Award& a : awards) {
    const std::string who = "user " + std::to_string(a.user) + " channel " +
                            std::to_string(a.channel);
    if (a.user >= locations.size() || a.channel >= true_bids[a.user].size()) {
      return "award out of range: " + who;
    }
    if (live != nullptr && !(*live)[a.user]) return "dead slot won: " + who;
    if (holds[a.user]) return "user holds two channels: " + who;
    holds[a.user] = true;
    const auction::Money bid = true_bids[a.user][a.channel];
    if (a.valid ? (bid == 0 || a.charge != bid) : (bid != 0 || a.charge != 0)) {
      return "charge is not first-price: " + who + " bid " +
             std::to_string(bid) + " charge " + std::to_string(a.charge) +
             (a.valid ? " valid" : " invalid");
    }
    if (by_channel.size() <= a.channel) by_channel.resize(a.channel + 1);
    by_channel[a.channel].push_back(a.user);
  }
  for (std::size_t r = 0; r < by_channel.size(); ++r) {
    const auto& winners = by_channel[r];
    for (std::size_t i = 0; i < winners.size(); ++i) {
      for (std::size_t j = i + 1; j < winners.size(); ++j) {
        if (auction::locations_conflict(locations[winners[i]],
                                        locations[winners[j]], lambda)) {
          return "conflicting winners on channel " + std::to_string(r) +
                 ": users " + std::to_string(winners[i]) + " and " +
                 std::to_string(winners[j]);
        }
      }
    }
  }
  return {};
}

}  // namespace lppa::bench_driver
