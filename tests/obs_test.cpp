// obs layer tests: registry semantics, histogram bucket properties,
// counter monotonicity under ThreadPool contention (clean under tsan —
// the registry promises lock-free updates after creation), span trees,
// and both exporters' output shapes.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/thread_pool.h"
#include "net/session_port.h"
#include "obs/export.h"
#include "obs/span.h"
#include "proto/session.h"
#include "strict_json.h"

namespace lppa {
namespace {

using testjson::parse_strict;

TEST(Counter, StartsAtZeroAndAccumulates) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  obs::Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.set(0.0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, LeInclusiveBucketing) {
  obs::Histogram h({1.0, 10.0, 100.0});
  h.observe(1.0);    // le=1 (inclusive upper bound)
  h.observe(1.5);    // le=10
  h.observe(10.0);   // le=10
  h.observe(100.5);  // +Inf
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 0u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // the implicit +Inf bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 113.0);
}

TEST(Histogram, BucketBoundaryProperty) {
  // Property: for every bound b, observations of b land at (or below)
  // b's bucket and observations of nextafter(b, +inf) land above it.
  const std::vector<double> bounds = {0.5, 1.0, 2.0, 8.0, 64.0};
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    obs::Histogram h(bounds);
    h.observe(bounds[i]);
    h.observe(std::nextafter(bounds[i], std::numeric_limits<double>::max()));
    std::uint64_t at_or_below = 0;
    for (std::size_t b = 0; b <= i; ++b) at_or_below += h.bucket_count(b);
    std::uint64_t above = 0;
    for (std::size_t b = i + 1; b <= bounds.size(); ++b) {
      above += h.bucket_count(b);
    }
    EXPECT_EQ(at_or_below, 1u) << "bound " << bounds[i];
    EXPECT_EQ(above, 1u) << "just above " << bounds[i];
  }
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(obs::Histogram({}), LppaError);
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), LppaError);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), LppaError);
  EXPECT_THROW(
      obs::Histogram({1.0, std::numeric_limits<double>::infinity()}),
      LppaError);
}

TEST(MetricsRegistry, SameNameSameMetric) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("x.events");
  obs::Counter& b = reg.counter("x.events");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(&reg.gauge("g"), &reg.gauge("g"));
  EXPECT_EQ(&reg.histogram("h"), &reg.histogram("h"));
}

TEST(MetricsRegistry, HistogramBoundsFixedAtCreation) {
  obs::MetricsRegistry reg;
  const std::vector<double> bounds = {1.0, 2.0};
  obs::Histogram& h = reg.histogram("h", bounds);
  const std::vector<double> other = {5.0};
  EXPECT_EQ(&reg.histogram("h", other), &h);
  EXPECT_EQ(h.upper_bounds(), bounds);
}

TEST(MetricsRegistry, CounterMonotonicUnderThreadPoolContention) {
  // Many workers hammer the same counters through parallel_for; the
  // final totals must be exact (relaxed atomics still guarantee
  // modification-order totality per object).  Run under tsan this also
  // proves the hot path takes no lock and has no race.
  obs::MetricsRegistry reg;
  obs::Counter& events = reg.counter("contended.events");
  obs::Counter& bytes = reg.counter("contended.bytes");
  constexpr std::size_t kIters = 20000;
  parallel_for(kIters, 0, [&](std::size_t i) {
    events.inc();
    bytes.inc(i % 7);
    // Same-name resolution from inside workers must also be safe.
    reg.counter("contended.resolved").inc();
  });
  EXPECT_EQ(events.value(), kIters);
  EXPECT_EQ(reg.counter("contended.resolved").value(), kIters);
  std::uint64_t expect_bytes = 0;
  for (std::size_t i = 0; i < kIters; ++i) expect_bytes += i % 7;
  EXPECT_EQ(bytes.value(), expect_bytes);
}

TEST(MetricsRegistry, HistogramExactUnderContention) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("contended.h", std::vector<double>{10.0, 100.0});
  constexpr std::size_t kIters = 9000;
  parallel_for(kIters, 0, [&](std::size_t i) {
    h.observe(static_cast<double>(i % 3 == 0 ? 5 : 50));
  });
  EXPECT_EQ(h.count(), kIters);
  EXPECT_EQ(h.bucket_count(0) + h.bucket_count(1) + h.bucket_count(2), kIters);
  EXPECT_EQ(h.bucket_count(0), (kIters + 2) / 3);
  EXPECT_EQ(h.bucket_count(2), 0u);
}

TEST(Span, InertOnNullRegistry) {
  obs::Span root(nullptr, "root");
  EXPECT_EQ(root.id(), 0u);
  obs::Span child(nullptr, "child", &root);
  child.end();
  child.end();  // idempotent on inert spans too
}

TEST(Span, RecordsParentEdges) {
  obs::MetricsRegistry reg;
  {
    obs::Span round(&reg, "round");
    obs::Span submit(&reg, "submit", &round);
    submit.end();
    obs::Span allocate(&reg, "allocate", &round);
  }
  const auto spans = reg.spans();
  ASSERT_EQ(spans.size(), 3u);
  // Destruction order records children first, then the root.
  std::uint64_t round_id = 0;
  for (const auto& s : spans) {
    if (s.name == "round") round_id = s.id;
  }
  ASSERT_NE(round_id, 0u);
  for (const auto& s : spans) {
    if (s.name == "round") {
      EXPECT_EQ(s.parent, 0u);
    } else {
      EXPECT_EQ(s.parent, round_id);
      EXPECT_GE(s.wall_us, 0.0);
    }
  }
  // Each span also feeds its latency histogram.
  EXPECT_EQ(reg.histogram("span.round.us").count(), 1u);
  EXPECT_EQ(reg.histogram("span.submit.us").count(), 1u);
}

TEST(Span, ExplicitEndPinsTheRegion) {
  obs::MetricsRegistry reg;
  obs::Span s(&reg, "pinned");
  s.end();
  s.end();  // second end() is a no-op
  EXPECT_EQ(reg.spans().size(), 1u);
  EXPECT_EQ(reg.histogram("span.pinned.us").count(), 1u);
}

TEST(MetricsRegistry, SpanTraceBoundedButHistogramsKeepCounting) {
  obs::MetricsRegistry reg;
  const std::size_t total = obs::MetricsRegistry::kMaxSpans + 100;
  for (std::size_t i = 0; i < total; ++i) {
    reg.record_span("tick", reg.next_span_id(), 0, 1.0);
  }
  EXPECT_EQ(reg.spans().size(), obs::MetricsRegistry::kMaxSpans);
  EXPECT_EQ(reg.spans_dropped(), 100u);
  EXPECT_EQ(reg.histogram("span.tick.us").count(), total);
}

TEST(MetricsRegistry, JsonSnapshotParsesStrict) {
  obs::MetricsRegistry reg;
  reg.counter("a.events").inc(3);
  reg.gauge("a.depth").set(1.25);
  reg.histogram("a.lat", std::vector<double>{1.0, 2.0}).observe(1.5);
  reg.record_span("phase", reg.next_span_id(), 0, 42.0);

  const auto doc = parse_strict(reg.json());
  EXPECT_EQ(doc.at("counters").at("a.events").number, 3.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("a.depth").number, 1.25);
  const auto& hist = doc.at("histograms").at("a.lat");
  EXPECT_EQ(hist.at("count").number, 1.0);
  EXPECT_DOUBLE_EQ(hist.at("sum").number, 1.5);
  ASSERT_EQ(doc.at("spans").size(), 1u);
  EXPECT_EQ(doc.at("spans")[0].at("name").string, "phase");
  EXPECT_EQ(doc.at("spans")[0].at("parent").number, 0.0);
  EXPECT_EQ(doc.at("spans_dropped").number, 0.0);
  // Compact mode must parse too.
  parse_strict(reg.json(/*indent=*/0));
}

TEST(MetricsRegistry, PrometheusShape) {
  obs::MetricsRegistry reg;
  reg.counter("bus.messages").inc(7);
  reg.gauge("wire.journal_bytes").set(512.0);
  reg.histogram("ttp.batch_size", std::vector<double>{1.0, 8.0}).observe(4.0);
  const std::string page = reg.prometheus();
  EXPECT_NE(page.find("# TYPE bus_messages counter"), std::string::npos);
  EXPECT_NE(page.find("bus_messages 7"), std::string::npos);
  EXPECT_NE(page.find("# TYPE wire_journal_bytes gauge"), std::string::npos);
  EXPECT_NE(page.find("wire_journal_bytes 512"), std::string::npos);
  EXPECT_NE(page.find("# TYPE ttp_batch_size histogram"), std::string::npos);
  EXPECT_NE(page.find("ttp_batch_size_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(page.find("ttp_batch_size_count 1"), std::string::npos);
  // Cumulative le semantics: the 8.0 bucket already includes the 4.0
  // observation even though it landed in the le="8" bucket.
  EXPECT_NE(page.find("ttp_batch_size_bucket{le=\"8\"} 1"), std::string::npos);
}

TEST(WriteMetricsFile, ReportsUnwritablePath) {
  obs::MetricsRegistry reg;
  std::string error;
  EXPECT_FALSE(obs::write_metrics_file(
      reg, "/nonexistent-dir-for-obs-test/x.json", &error));
  EXPECT_FALSE(error.empty());
}

TEST(WriteMetricsFile, FormatFollowsExtension) {
  obs::MetricsRegistry reg;
  reg.counter("fmt.events").inc();
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(obs::write_metrics_file(reg, dir + "/obs_snapshot.json"));
  ASSERT_TRUE(obs::write_metrics_file(reg, dir + "/obs_snapshot.prom"));
  std::ifstream json_in(dir + "/obs_snapshot.json");
  std::stringstream json_buf;
  json_buf << json_in.rdbuf();
  const auto doc = parse_strict(json_buf.str());
  EXPECT_EQ(doc.at("counters").at("fmt.events").number, 1.0);
  std::ifstream prom_in(dir + "/obs_snapshot.prom");
  std::stringstream prom_buf;
  prom_buf << prom_in.rdbuf();
  EXPECT_NE(prom_buf.str().find("fmt_events 1"), std::string::npos);
}

/// Span names of the `wire.*` tree in `reg`, after checking that it is
/// one connected tree: a single `wire.round` root, and every other
/// `wire.*` span's parent recorded in the same tree.
std::set<std::string> wire_span_tree(const obs::MetricsRegistry& reg) {
  std::set<std::uint64_t> ids;
  std::vector<obs::SpanRecord> wire;
  for (const obs::SpanRecord& span : reg.spans()) {
    if (span.name.rfind("wire.", 0) != 0) continue;
    ids.insert(span.id);
    wire.push_back(span);
  }
  std::size_t roots = 0;
  std::set<std::string> names;
  for (const obs::SpanRecord& span : wire) {
    names.insert(span.name);
    if (span.parent == 0) {
      ++roots;
      EXPECT_EQ(span.name, "wire.round");
    } else {
      EXPECT_TRUE(ids.count(span.parent)) << span.name << " is detached";
    }
  }
  EXPECT_EQ(roots, 1u);
  return names;
}

/// Every span of the session's builds (the conflict build's index and
/// probe, the bid table's build) hangs under a span whose name is a key
/// of `per_parent`, and each name occurs exactly that many times under
/// each such parent name — no other, and no orphan.
void expect_session_builds(const obs::MetricsRegistry& reg,
                           const std::map<std::string, std::size_t>& per_parent) {
  std::map<std::uint64_t, std::string> name_of;
  for (const auto& span : reg.spans()) name_of[span.id] = span.name;
  for (const char* name :
       {"conflict.index_build", "conflict.probe", "table.build"}) {
    std::map<std::string, std::size_t> hung;
    for (const auto& span : reg.spans()) {
      if (span.name != name) continue;
      const auto parent = name_of.find(span.parent);
      ++hung[parent == name_of.end() ? "(no parent)" : parent->second];
    }
    EXPECT_EQ(hung, per_parent) << name;
  }
}

// The socket round records the same `wire.*` counters and span tree as
// the bus round, because both run the one proto::RoundDriver; `net.*`
// keeps only transport counters.
TEST(SocketSpanTree, MatchesTheBusRoundTree) {
  core::LppaConfig config;
  config.num_channels = 2;
  config.lambda = 100;
  config.coord_width = 14;
  config.bid = core::PpbsBidConfig::advanced(
      15, 3, 4, core::ZeroDisguisePolicy::none(15));
  config.ttp_batch_size = 4;
  Rng rng(91);
  std::vector<auction::SuLocation> locations;
  std::vector<auction::BidVector> bids;
  for (std::size_t i = 0; i < 6; ++i) {
    locations.push_back({rng.below(5000), rng.below(5000)});
    bids.push_back({rng.below(16), rng.below(16)});
  }
  // SU 3 stays silent on both transports, so both rounds send nacks.
  constexpr std::size_t kSilent = 3;
  proto::RecoverableSessionConfig policy;
  policy.hardened.max_retries = 3;

  obs::MetricsRegistry bus_reg;
  {
    core::LppaConfig observed = config;
    observed.metrics = &bus_reg;
    core::TrustedThirdParty ttp(config.bid, 77);
    proto::FaultSpec mute;
    mute.drop = 1.0;
    proto::FaultInjector faults(/*seed=*/1);
    faults.set_party_spec(proto::Address::su(kSilent), mute);
    proto::MessageBus bus;
    bus.set_fault_injector(&faults);
    const auto result = proto::run_recoverable_wire_auction(
        observed, ttp, locations, bids, bus, /*seed=*/5, policy);
    ASSERT_TRUE(result.report.completed);
  }

  obs::MetricsRegistry socket_reg;
  core::LppaConfig socket_config = config;
  socket_config.metrics = &socket_reg;
  net::ServerConfig server_config;
  server_config.metrics = &socket_reg;
  net::SocketFaultSpec mute;
  mute.mute_su = kSilent;
  net::SocketFaultInjector faults(/*seed=*/1, mute);
  core::TrustedThirdParty ttp(config.bid, 77);
  const auto socket = net::run_recoverable_socket_auction(
      socket_config, ttp, locations, bids, /*seed=*/5, server_config, policy,
      /*crashes=*/nullptr, &faults);
  ASSERT_TRUE(socket.report.completed);

  const std::set<std::string> expected = {"wire.round", "wire.attempt",
                                          "wire.admission", "wire.allocation",
                                          "wire.charging"};
  EXPECT_EQ(wire_span_tree(bus_reg), expected);
  EXPECT_EQ(wire_span_tree(socket_reg), expected);

  // On both transports the session's conflict build and bid-table build
  // hang under wire.allocation.
  expect_session_builds(bus_reg, {{"wire.allocation", 1}});
  expect_session_builds(socket_reg, {{"wire.allocation", 1}});

  std::size_t journaled_nacks = 0;
  for (const auto& rec : proto::RoundJournal::read(socket.journal)) {
    if (rec.type == proto::JournalRecordType::kNackSent) ++journaled_nacks;
  }
  EXPECT_GT(journaled_nacks, 0u);
  EXPECT_EQ(socket_reg.counter("wire.nacks").value(), journaled_nacks);
  EXPECT_EQ(socket_reg.counter("wire.rounds").value(), 1u);
  EXPECT_EQ(socket_reg.counter("wire.completed_rounds").value(), 1u);
  EXPECT_EQ(socket_reg.counter("wire.retry_waves").value(),
            bus_reg.counter("wire.retry_waves").value());
  // The per-record-type journal gauges attribute every journal byte.
  EXPECT_EQ(socket_reg.gauge("wire.journal_bytes.nack_sent").value(),
            static_cast<double>(journaled_nacks *
                                proto::RoundJournal::kNackRecordBytes));
  double by_type = 0.0;
  for (const char* type :
       {"round_start", "accepted", "strike", "equivocation", "nack_sent",
        "finalized", "allocated", "charge_commit", "committed",
        "churn_departure", "churn_arrival"}) {
    by_type += socket_reg.gauge(std::string("wire.journal_bytes.") + type)
                   .value();
  }
  EXPECT_EQ(by_type, static_cast<double>(socket.journal.size()));
  EXPECT_EQ(socket_reg.gauge("wire.journal_bytes").value(), by_type);
  const std::string snapshot = socket_reg.json();
  EXPECT_EQ(snapshot.find("net.nacks"), std::string::npos);
  EXPECT_EQ(snapshot.find("net.published_rounds"), std::string::npos);
  EXPECT_NE(snapshot.find("net.frames_in"), std::string::npos);
}

// A socket round observed through ServerConfig::metrics alone: the
// session takes the driver's registry, so its conflict and table builds
// still hang under wire.allocation.
TEST(SocketSpanTree, SessionBuildsUseTheServerRegistryWhenConfigHasNone) {
  core::LppaConfig config;  // no registry of its own
  config.num_channels = 2;
  config.lambda = 100;
  config.coord_width = 14;
  config.bid = core::PpbsBidConfig::advanced(
      15, 3, 4, core::ZeroDisguisePolicy::none(15));
  Rng rng(92);
  std::vector<auction::SuLocation> locations;
  std::vector<auction::BidVector> bids;
  for (std::size_t i = 0; i < 6; ++i) {
    locations.push_back({rng.below(5000), rng.below(5000)});
    bids.push_back({rng.below(16), rng.below(16)});
  }
  obs::MetricsRegistry reg;
  net::ServerConfig server_config;
  server_config.metrics = &reg;
  core::TrustedThirdParty ttp(config.bid, 77);
  const auto socket = net::run_recoverable_socket_auction(
      config, ttp, locations, bids, /*seed=*/5, server_config);
  ASSERT_TRUE(socket.report.completed);

  const std::set<std::string> expected = {"wire.round", "wire.attempt",
                                          "wire.admission", "wire.allocation",
                                          "wire.charging"};
  EXPECT_EQ(wire_span_tree(reg), expected);
  expect_session_builds(reg, {{"wire.allocation", 1}});
  const std::string snapshot = reg.json();
  for (const char* counter : {"conflict.x_hits", "conflict.y_hits",
                              "conflict.join_edges", "conflict.index_bytes"}) {
    EXPECT_NE(snapshot.find(counter), std::string::npos) << counter;
  }
}

// A session restored from the allocation commit rebuilds its conflict
// graph and bid table under the recovering wire.attempt.
TEST(WireSpanTree, RestoredBuildsHangUnderTheAttempt) {
  core::LppaConfig config;
  config.num_channels = 2;
  config.lambda = 100;
  config.coord_width = 14;
  config.bid = core::PpbsBidConfig::advanced(
      15, 3, 4, core::ZeroDisguisePolicy::none(15));
  obs::MetricsRegistry reg;
  config.metrics = &reg;
  Rng rng(93);
  std::vector<auction::SuLocation> locations;
  std::vector<auction::BidVector> bids;
  for (std::size_t i = 0; i < 6; ++i) {
    locations.push_back({rng.below(5000), rng.below(5000)});
    bids.push_back({rng.below(16), rng.below(16)});
  }
  proto::CrashInjector crashes;
  crashes.arm(proto::CrashPoint::kAfterAllocation, 0);
  core::TrustedThirdParty ttp(config.bid, 77);
  proto::MessageBus bus;
  const auto result = proto::run_recoverable_wire_auction(
      config, ttp, locations, bids, bus, /*seed=*/5, {}, &crashes);
  ASSERT_TRUE(result.report.completed);
  ASSERT_EQ(result.report.crash_recoveries, 1u);

  // The first attempt built under its wire.allocation; only the
  // recovering one restored, so it carries one copy of each directly.
  expect_session_builds(reg, {{"wire.allocation", 1}, {"wire.attempt", 1}});
}

}  // namespace
}  // namespace lppa
