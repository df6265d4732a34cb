// Churn differential suite: incrementally maintained round state
// (core::ChurnState — ConflictGraph deltas from the two-axis join in both
// directions, EncryptedBidTable insert_user/remove_user over tombstones)
// must stay IDENTICAL to a from-scratch rebuild after every event of
// randomized arrival/departure/move/rebid sequences, for every thread
// count and both crypto backends — graphs by ==, tables by their
// serialized byte image and their drained column orders, and allocation
// outcomes award-for-award.  A Byzantine re-bid must leave
// every column a permutation of the live slots.
#include "core/churn_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>

#include "counting_backend.h"
#include "obs/metrics.h"
#include "sim/churn.h"

namespace lppa {
namespace {

struct MaskedWorld {
  core::LppaConfig config;
  std::unique_ptr<core::LppaAuction> auction;
  std::unique_ptr<core::PpbsLocation> location_protocol;
  std::unique_ptr<core::BidSubmitter> submitter;

  /// `bid` overrides the default advanced encoding (rd 3, cr 4); a
  /// non-HMAC bid config gets the TTP's backend in config.backend, as a
  /// ChurnState over that roster requires.
  explicit MaskedWorld(const sim::ChurnScheduleConfig& sc, std::size_t threads,
                       std::optional<core::PpbsBidConfig> bid = std::nullopt) {
    config.num_channels = sc.num_channels;
    config.lambda = sc.lambda;
    config.coord_width = sc.coord_width;
    config.bid = bid.value_or(core::PpbsBidConfig::advanced(
        sc.bmax, 3, 4, core::ZeroDisguisePolicy::none(sc.bmax)));
    config.num_threads = threads;
    auction = std::make_unique<core::LppaAuction>(config, /*ttp_seed=*/7);
    if (config.bid.backend != crypto::BidBackendId::kHmacPrefix) {
      config.backend = &auction->ttp().bid_backend();
    }
    const core::SuKeyBundle keys = auction->ttp().su_keys();
    location_protocol = std::make_unique<core::PpbsLocation>(
        keys.g0, config.coord_width, config.lambda,
        config.pad_location_ranges);
    submitter = std::make_unique<core::BidSubmitter>(
        auction->ttp().config(), keys.gb_master, keys.gc, keys.paillier);
  }
};

/// Every column's full order, read by popping argmax and removing the
/// winner until the column is empty.  Works on a copy: the maintained
/// and rebuilt tables stay untouched.
std::vector<std::vector<auction::UserId>> drain_columns(
    core::EncryptedBidTable t) {
  std::vector<std::vector<auction::UserId>> columns(t.num_channels());
  for (std::size_t r = 0; r < t.num_channels(); ++r) {
    while (const auto top = t.argmax_in_column(r)) {
      columns[r].push_back(*top);
      t.remove(*top, r);
    }
  }
  return columns;
}

/// The maintained state equals a from-scratch rebuild: table image, every
/// column's drained order, and the awards of one allocation pass under
/// the same Rng.
void expect_matches_rebuild(const core::ChurnState& state,
                            const MaskedWorld& w, std::uint64_t alloc_seed,
                            const std::string& where) {
  const core::EncryptedBidTable rebuilt = state.rebuild_table();
  ASSERT_EQ(state.serialize_table(), rebuilt.serialize()) << where;
  ASSERT_EQ(drain_columns(state.table()), drain_columns(rebuilt)) << where;
  core::ShardedBidTable maintained_copy = state.table_for_allocation();
  core::EncryptedBidTable rebuilt_copy = rebuilt;
  Rng rng_a(alloc_seed), rng_b(alloc_seed);
  const auto a = w.auction->allocate_and_charge(
      state.bids(), state.graph(), maintained_copy, state.live(), rng_a);
  const auto b = w.auction->allocate_and_charge(
      state.bids(), state.rebuild_conflicts(), rebuilt_copy, state.live(),
      rng_b);
  ASSERT_EQ(a.awards, b.awards) << where;
  ASSERT_EQ(a.manipulations_detected, b.manipulations_detected) << where;
}

/// Builds the initial ChurnState for the schedule's round-zero roster.
core::ChurnState make_state(const MaskedWorld& w,
                            const sim::ChurnSchedule& schedule, Rng& mask) {
  const std::size_t capacity = schedule.config().capacity;
  std::vector<auction::SuLocation> locations(capacity);
  std::vector<core::LocationSubmission> loc_subs(capacity);
  std::vector<core::BidSubmission> bid_subs(capacity);
  const auction::BidVector zeros(w.config.num_channels, 0);
  for (std::size_t u = 0; u < capacity; ++u) {
    Rng su_rng = mask.fork();
    if (schedule.live()[u]) {
      locations[u] = schedule.locations()[u];
      loc_subs[u] = w.location_protocol->submit(locations[u], su_rng);
      bid_subs[u] = w.submitter->submit(schedule.bids()[u], su_rng);
    } else {
      bid_subs[u] = w.submitter->submit(zeros, su_rng);
    }
  }
  return core::ChurnState(w.config, std::move(locations),
                          std::move(loc_subs), std::move(bid_subs),
                          schedule.live());
}

void apply_event(core::ChurnState& state, const MaskedWorld& w,
                 const sim::ChurnEvent& ev, Rng& mask) {
  Rng su_rng = mask.fork();
  switch (ev.kind) {
    case sim::ChurnEvent::Kind::kArrive:
      state.add_su(ev.user, ev.loc,
                   w.location_protocol->submit(ev.loc, su_rng),
                   w.submitter->submit(ev.bids, su_rng));
      break;
    case sim::ChurnEvent::Kind::kDepart:
      state.remove_su(ev.user);
      break;
    case sim::ChurnEvent::Kind::kMove:
      state.move_su(ev.user, ev.loc,
                    w.location_protocol->submit(ev.loc, su_rng));
      break;
    case sim::ChurnEvent::Kind::kRebid:
      state.rebid_su(ev.user, w.submitter->submit(ev.bids, su_rng));
      break;
  }
}

TEST(ChurnSchedule, IsAPureFunctionOfItsConfig) {
  sim::ChurnScheduleConfig sc;
  sc.capacity = 12;
  sc.initial_live = 6;
  sc.num_channels = 3;
  sc.seed = 99;
  sim::ChurnSchedule a(sc);
  sim::ChurnSchedule b(sc);
  EXPECT_EQ(a.live(), b.live());
  EXPECT_EQ(a.locations(), b.locations());
  for (int round = 0; round < 5; ++round) {
    const auto ea = a.next_round();
    const auto eb = b.next_round();
    ASSERT_EQ(ea.size(), eb.size()) << "round " << round;
    for (std::size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].kind, eb[i].kind);
      EXPECT_EQ(ea[i].user, eb[i].user);
      EXPECT_TRUE(ea[i].loc == eb[i].loc);
      EXPECT_EQ(ea[i].bids, eb[i].bids);
    }
    EXPECT_EQ(a.live(), b.live());
    EXPECT_EQ(a.live_count(), b.live_count());
  }
}

TEST(ChurnSchedule, RespectsCapacityAndLiveness) {
  sim::ChurnScheduleConfig sc;
  sc.capacity = 10;
  sc.initial_live = 4;
  sc.num_channels = 2;
  sc.arrive_prob = 0.5;
  sc.depart_prob = 0.4;
  sc.seed = 3;
  sim::ChurnSchedule schedule(sc);
  std::vector<bool> live(schedule.live());
  for (int round = 0; round < 30; ++round) {
    for (const auto& ev : schedule.next_round()) {
      ASSERT_LT(ev.user, sc.capacity);
      switch (ev.kind) {
        case sim::ChurnEvent::Kind::kArrive:
          ASSERT_FALSE(live[ev.user]) << "arrival into a live slot";
          live[ev.user] = true;
          break;
        case sim::ChurnEvent::Kind::kDepart:
          ASSERT_TRUE(live[ev.user]) << "departure from a dead slot";
          live[ev.user] = false;
          break;
        case sim::ChurnEvent::Kind::kMove:
        case sim::ChurnEvent::Kind::kRebid:
          ASSERT_TRUE(live[ev.user]) << "move/rebid of a dead slot";
          break;
      }
    }
    EXPECT_EQ(live, schedule.live());
    EXPECT_GE(schedule.live_count(), 1u) << "schedule emptied the auction";
  }
}

TEST(ChurnDifferential, IncrementalEqualsRebuildAcrossShardAndThreadCounts) {
  sim::ChurnScheduleConfig sc;
  sc.capacity = 14;
  sc.initial_live = 7;
  sc.num_channels = 3;
  sc.coord_width = 12;
  sc.lambda = 96;
  sc.seed = 20130708;

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    const MaskedWorld w(sc, threads);
    sim::ChurnSchedule schedule(sc);
    Rng mask(4242);
    core::ChurnState state = make_state(w, schedule, mask);

    for (int round = 0; round < 8; ++round) {
      // Check after EVERY event, not just every round: a stale digest or
      // a mis-spliced column order must be caught at the op that
      // introduced it, not masked by a later one.
      for (const auto& ev : schedule.next_round()) {
        apply_event(state, w, ev, mask);
        ASSERT_TRUE(state.graph() == state.rebuild_conflicts())
            << "threads=" << threads << " round=" << round
            << " after event on user " << ev.user;
        ASSERT_EQ(state.serialize_table(), state.rebuild_table().serialize())
            << "threads=" << threads << " round=" << round;
      }

      // Allocation parity on the round's final state.
      core::ShardedBidTable maintained_table = state.table_for_allocation();
      core::EncryptedBidTable rebuilt_table = state.rebuild_table();
      Rng rng_a(900 + round), rng_b(900 + round);
      const auto a = w.auction->allocate_and_charge(
          state.bids(), state.graph(), maintained_table, state.live(), rng_a);
      const auto b = w.auction->allocate_and_charge(
          state.bids(), state.rebuild_conflicts(), rebuilt_table, state.live(),
          rng_b);
      ASSERT_EQ(a.awards, b.awards)
          << "threads=" << threads << " round=" << round;
      EXPECT_EQ(a.manipulations_detected, b.manipulations_detected);
    }
  }
}

TEST(ChurnDifferential, SlotReuseCyclesStayExact) {
  // The same slot repeatedly dies and is reborn elsewhere (the tombstone
  // resurrection path of EncryptedBidTable::insert_user and the
  // dead-chain recycling of DigestIndex::erase) — the tightest loop on
  // the removal-path machinery this PR audits.
  sim::ChurnScheduleConfig sc;
  sc.capacity = 6;
  sc.initial_live = 6;
  sc.num_channels = 2;
  sc.coord_width = 12;
  sc.lambda = 200;
  const MaskedWorld w(sc, /*threads=*/1);

  sim::ChurnSchedule seed_roster(sc);
  Rng mask(777);
  core::ChurnState state = make_state(w, seed_roster, mask);
  Rng scenario(31);
  for (int cycle = 0; cycle < 25; ++cycle) {
    const std::size_t u = scenario.below(sc.capacity);
    if (state.live()[u]) {
      if (state.live_count() == 1) continue;
      state.remove_su(u);
    } else {
      Rng su_rng = mask.fork();
      const auction::SuLocation loc = {scenario.below(3696),
                                       scenario.below(3696)};
      auction::BidVector bids(sc.num_channels);
      for (auto& b : bids) b = scenario.below(16);
      state.add_su(u, loc, w.location_protocol->submit(loc, su_rng),
                   w.submitter->submit(bids, su_rng));
    }
    ASSERT_TRUE(state.graph() == state.rebuild_conflicts()) << "cycle "
                                                            << cycle;
    ASSERT_EQ(state.serialize_table(), state.rebuild_table().serialize())
        << "cycle " << cycle;
  }
}

TEST(ChurnDifferential, ChurnCountersTrackEvents) {
  sim::ChurnScheduleConfig sc;
  sc.capacity = 10;
  sc.initial_live = 5;
  sc.num_channels = 2;
  sc.coord_width = 12;
  sc.lambda = 100;
  sc.seed = 8;
  obs::MetricsRegistry metrics;
  MaskedWorld w(sc, /*threads=*/1);
  w.config.metrics = &metrics;
  // Event application issues masked tests only in the table splice, so
  // every test the counting backend sees during an event is one
  // churn.splice_compares must have counted.
  const testing_support::CountingBackend counting(crypto::hmac_backend());
  w.config.backend = &counting;
  sim::ChurnSchedule schedule(sc);
  Rng mask(99);
  core::ChurnState state = make_state(w, schedule, mask);

  // Every link publishes, and every unlink erases, an SU's x-range,
  // y-range, x-family and y-family digests.
  const auto linked_digests = [&](std::size_t u) {
    const core::LocationSubmission& sub = state.locations()[u];
    return sub.x_range.size() + sub.y_range.size() + sub.x_family.size() +
           sub.y_family.size();
  };
  std::size_t arrivals = 0, departures = 0, moves = 0, rebids = 0;
  std::size_t event_ges = 0;
  std::size_t digests_inserted = 0, digests_erased = 0;
  for (int round = 0; round < 6; ++round) {
    for (const auto& ev : schedule.next_round()) {
      const bool unlinks = ev.kind == sim::ChurnEvent::Kind::kDepart ||
                           ev.kind == sim::ChurnEvent::Kind::kMove;
      const bool links = ev.kind == sim::ChurnEvent::Kind::kArrive ||
                         ev.kind == sim::ChurnEvent::Kind::kMove;
      if (unlinks) digests_erased += linked_digests(ev.user);
      const std::size_t before = counting.ges();
      apply_event(state, w, ev, mask);
      event_ges += counting.ges() - before;
      if (links) digests_inserted += linked_digests(ev.user);
      switch (ev.kind) {
        case sim::ChurnEvent::Kind::kArrive: ++arrivals; break;
        case sim::ChurnEvent::Kind::kDepart: ++departures; break;
        case sim::ChurnEvent::Kind::kMove: ++moves; break;
        case sim::ChurnEvent::Kind::kRebid: ++rebids; break;
      }
    }
  }
  EXPECT_EQ(metrics.counter("churn.arrivals").value(), arrivals);
  EXPECT_EQ(metrics.counter("churn.departures").value(), departures);
  EXPECT_EQ(metrics.counter("churn.moves").value(), moves);
  EXPECT_EQ(metrics.counter("churn.rebids").value(), rebids);
  // Digest bookkeeping is exact over all four digest sets.
  ASSERT_GT(arrivals, 0u);
  ASSERT_GT(departures + moves, 0u);
  EXPECT_EQ(metrics.counter("churn.digests_inserted").value(),
            digests_inserted);
  EXPECT_EQ(metrics.counter("churn.digests_erased").value(), digests_erased);
  // Splices: one per arrival or re-bid, each a binary search of at most
  // 2·(⌈log₂ n⌉ + 1) masked tests per column (n ≤ capacity).
  const std::size_t splices = arrivals + rebids;
  ASSERT_GT(splices, 0u);
  const std::size_t compares =
      metrics.counter("churn.splice_compares").value();
  EXPECT_EQ(compares, event_ges);
  EXPECT_GE(compares, splices * sc.num_channels);
  EXPECT_LE(compares, splices * 2 * sc.num_channels *
                          (std::bit_width(sc.capacity - 1) + 1));
}

TEST(ChurnDifferential, TieHeavyColumnOrdersEqualRebuildAfterEveryEvent) {
  // bmax 3 with no offset or scaling: every masked column is mostly
  // ties, broken by slot id, and departed slots keep their stale bids in
  // the order.  After every event the maintained table must drain to
  // the same full column orders as a rebuild — a stricter check than
  // awards, which only see each column's head.
  sim::ChurnScheduleConfig sc;
  sc.capacity = 24;
  sc.initial_live = 14;
  sc.num_channels = 3;
  sc.bmax = 3;
  sc.coord_width = 12;
  sc.lambda = 96;
  sc.arrive_prob = 0.4;
  sc.depart_prob = 0.2;
  sc.seed = 4711;
  const auto ties = core::PpbsBidConfig::advanced(
      sc.bmax, /*rd=*/0, /*cr=*/1, core::ZeroDisguisePolicy::none(sc.bmax));
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const MaskedWorld w(sc, threads, ties);
    sim::ChurnSchedule schedule(sc);
    Rng mask(515);
    core::ChurnState state = make_state(w, schedule, mask);
    for (int round = 0; round < 6; ++round) {
      std::size_t event = 0;
      for (const auto& ev : schedule.next_round()) {
        apply_event(state, w, ev, mask);
        expect_matches_rebuild(state, w, 300 + round,
                               "threads=" + std::to_string(threads) +
                                   " round=" + std::to_string(round) +
                                   " event=" + std::to_string(event++));
      }
    }
  }
}

TEST(ChurnDifferential, PaillierMaintainedEqualsRebuildAfterEveryEvent) {
  // The maintained roster must be ordered by the configured backend: a
  // Paillier table spliced with the HMAC test (empty digest sets) would
  // drift from its rebuild at the first arrival.
  sim::ChurnScheduleConfig sc;
  sc.capacity = 12;
  sc.initial_live = 7;
  sc.num_channels = 2;
  sc.coord_width = 12;
  sc.lambda = 96;
  sc.seed = 1307;
  auto paillier = core::PpbsBidConfig::advanced(
      sc.bmax, 3, 4, core::ZeroDisguisePolicy::none(sc.bmax));
  paillier.backend = crypto::BidBackendId::kPaillier;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const MaskedWorld w(sc, threads, paillier);
    sim::ChurnSchedule schedule(sc);
    Rng mask(88);
    core::ChurnState state = make_state(w, schedule, mask);
    for (int round = 0; round < 5; ++round) {
      std::size_t event = 0;
      for (const auto& ev : schedule.next_round()) {
        apply_event(state, w, ev, mask);
        expect_matches_rebuild(state, w, 700 + round,
                               "threads=" + std::to_string(threads) +
                                   " round=" + std::to_string(round) +
                                   " event=" + std::to_string(event++));
      }
    }
  }
  // A Paillier roster without the TTP's backend is a configuration error,
  // not a silently HMAC-ordered table.
  MaskedWorld unset(sc, /*threads=*/1, paillier);
  unset.config.backend = nullptr;
  sim::ChurnSchedule schedule(sc);
  Rng mask(88);
  EXPECT_THROW(make_state(unset, schedule, mask), LppaError);
}

TEST(ByzantineSplice, InconsistentRebidKeepsEveryColumnAPermutation) {
  // A re-bid whose cells carry the value family of the lowest bid and the
  // range cover of the highest: it is neither >= nor <= any middle bid,
  // so the masked relation stops being a preorder.  The splice's binary
  // search must still insert each id exactly once — every column drains
  // to a permutation of the live slots — and allocation must terminate.
  sim::ChurnScheduleConfig sc;
  sc.capacity = 20;
  sc.initial_live = 12;
  sc.num_channels = 3;
  sc.coord_width = 12;
  sc.lambda = 96;
  sc.seed = 666;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const MaskedWorld w(sc, threads);
    sim::ChurnSchedule schedule(sc);
    Rng mask(13);
    core::ChurnState state = make_state(w, schedule, mask);
    const auto forged = [&] {
      Rng su_rng = mask.fork();
      core::BidSubmission bid = w.submitter->submit(
          auction::BidVector(sc.num_channels, 0), su_rng);
      const core::BidSubmission high = w.submitter->submit(
          auction::BidVector(sc.num_channels, sc.bmax), su_rng);
      for (std::size_t r = 0; r < sc.num_channels; ++r) {
        bid.channels[r].range_set = high.channels[r].range_set;
      }
      return bid;
    };
    for (int round = 0; round < 6; ++round) {
      for (const auto& ev : schedule.next_round()) {
        apply_event(state, w, ev, mask);
      }
      // One more forged re-bid per round, on the lowest live slot.
      std::size_t victim = 0;
      while (!state.live()[victim]) ++victim;
      state.rebid_su(victim, forged());

      std::vector<auction::UserId> live_ids;
      for (std::size_t u = 0; u < state.capacity(); ++u) {
        if (state.live()[u]) live_ids.push_back(u);
      }
      for (auto column : drain_columns(state.table())) {
        std::sort(column.begin(), column.end());
        ASSERT_EQ(column, live_ids)
            << "threads=" << threads << " round=" << round;
      }
      core::ShardedBidTable table = state.table_for_allocation();
      Rng rng(50 + round);
      const auto out = w.auction->allocate_and_charge(
          state.bids(), state.graph(), table, state.live(), rng);
      EXPECT_TRUE(table.empty());
      std::vector<auction::UserId> winners;
      for (const auto& award : out.awards) winners.push_back(award.user);
      std::sort(winners.begin(), winners.end());
      EXPECT_EQ(std::adjacent_find(winners.begin(), winners.end()),
                winners.end())
          << "an SU won twice";
    }
  }
}

}  // namespace
}  // namespace lppa
