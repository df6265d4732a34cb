// Hostile element counts: every decoder that sizes a container from a
// wire u32 count must check the count against the bytes that are left
// before it allocates.  Each case feeds a maximal count with no element
// bytes behind it; the decoder must throw a typed LppaError(kProtocol),
// never std::bad_alloc (which an accept loop's catch-all would turn into
// a failed round).
#include <gtest/gtest.h>

#include "common/bytes.h"
#include "core/encrypted_bid_table.h"
#include "core/ppbs_location.h"
#include "proto/messages.h"
#include "proto/parties.h"

namespace lppa {
namespace {

constexpr std::uint32_t kMaxCount = 0xFFFFFFFFu;

template <typename Decode>
void expect_protocol_error(const Decode& decode) {
  try {
    decode();
    FAIL() << "hostile count accepted";
  } catch (const LppaError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocol) << e.what();
  }
}

Bytes count_only(std::uint32_t count) {
  ByteWriter w;
  w.u32(count);
  return w.take();
}

TEST(HostileCount, ReaderCountAdmitsExactlyWhatFits) {
  ByteWriter w;
  w.u32(3);
  for (int i = 0; i < 3; ++i) w.u64(i);
  ByteReader fits(w.data());
  EXPECT_EQ(fits.count(8), 3u);
  ByteReader short_by_one(w.data());
  expect_protocol_error([&] { short_by_one.count(9); });
  ByteReader unchecked(w.data());
  EXPECT_THROW(unchecked.count(0), LppaError);  // a caller bug, not hostile
}

TEST(HostileCount, HashedPrefixSet) {
  const Bytes wire = count_only(kMaxCount);
  expect_protocol_error([&] {
    ByteReader r(wire);
    prefix::HashedPrefixSet::deserialize(r);
  });
  // The same count as the first field of a 4-byte location submission.
  expect_protocol_error(
      [&] { core::LocationSubmission::deserialize(count_only(0x10000000u)); });
}

TEST(HostileCount, BidSubmission) {
  expect_protocol_error(
      [&] { core::BidSubmission::deserialize(count_only(kMaxCount)); });
}

TEST(HostileCount, WinnerAnnouncement) {
  expect_protocol_error(
      [&] { proto::WinnerAnnouncement::deserialize(count_only(kMaxCount)); });
}

TEST(HostileCount, ChargeQueryBatch) {
  expect_protocol_error(
      [&] { proto::deserialize_charge_queries(count_only(kMaxCount)); });
}

TEST(HostileCount, ChargeResultBatch) {
  expect_protocol_error(
      [&] { proto::deserialize_charge_results(count_only(kMaxCount)); });
}

TEST(HostileCount, BidTableImage) {
  // Untagged (HMAC) image: user count, channel count, no users.
  ByteWriter w;
  w.u32(0x7FFFFFFFu);  // the largest count without the tag bit
  w.u32(1);
  expect_protocol_error(
      [&] { core::EncryptedBidTable::deserialize(w.data()); });
}

/// A real allocated session snapshot over 4 SUs and 2 channels, and the
/// offset of its award list (the u32 award count, then 26 bytes per
/// award: user, channel, charge, valid, done).
struct AllocatedSnapshot {
  static constexpr std::size_t n = 4;
  static constexpr std::size_t kAwardBytes = 8 + 8 + 8 + 1 + 1;
  core::LppaConfig config;
  Bytes image;
  std::size_t award_list = 0;

  AllocatedSnapshot() {
    config.num_channels = 2;
    config.lambda = 100;
    config.coord_width = 14;
    core::TrustedThirdParty ttp(config.bid, 3);
    proto::AuctioneerSession session(config, n);
    Rng rng(17);
    for (std::size_t u = 0; u < n; ++u) {
      const proto::SuClient client(u, config, ttp.su_keys());
      EXPECT_EQ(session.try_ingest(client.location_envelope(
                    {rng.below(5000), rng.below(5000)}, rng)),
                proto::AuctioneerSession::IngestResult::kAccepted);
      EXPECT_EQ(session.try_ingest(client.bid_envelope(
                    {rng.below(16), rng.below(16)}, rng)),
                proto::AuctioneerSession::IngestResult::kAccepted);
    }
    proto::RoundReport report;
    session.finalize_participants(report);
    session.run_allocation(rng);
    image = session.snapshot();
    award_list = image.size() - 4 - kAwardBytes * session.awards().size();
  }
};

TEST(HostileCount, SessionSnapshotAwards) {
  // The award list replaced by a maximal count and nothing after it.
  const AllocatedSnapshot snap;
  const auto list = snap.image.begin() +
                    static_cast<std::ptrdiff_t>(snap.award_list);
  Bytes hostile(snap.image.begin(), list);
  ByteWriter count;
  count.u32(kMaxCount);
  hostile.insert(hostile.end(), count.data().begin(), count.data().end());

  proto::AuctioneerSession intact(snap.config, snap.n);
  intact.restore_from(snap.image);  // the cut point is the award count
  EXPECT_EQ(intact.snapshot(), snap.image);
  proto::AuctioneerSession restored(snap.config, snap.n);
  expect_protocol_error([&] { restored.restore_from(hostile); });
}

TEST(HostileCount, SessionSnapshotNamesOneSuInTwoAwards) {
  // The award list with its first record appended once more: one SU
  // holding two channels breaks the one-channel-per-SU invariant that
  // charging indexes results by.
  const AllocatedSnapshot snap;
  const auto list = snap.image.begin() +
                    static_cast<std::ptrdiff_t>(snap.award_list);
  const std::size_t awards =
      (snap.image.size() - snap.award_list - 4) / snap.kAwardBytes;
  ASSERT_GE(awards, 1u);
  Bytes hostile(snap.image.begin(), list);
  ByteWriter count;
  count.u32(static_cast<std::uint32_t>(awards + 1));
  hostile.insert(hostile.end(), count.data().begin(), count.data().end());
  hostile.insert(hostile.end(), list + 4, snap.image.end());
  hostile.insert(hostile.end(), list + 4,
                 list + 4 + static_cast<std::ptrdiff_t>(snap.kAwardBytes));

  proto::AuctioneerSession restored(snap.config, snap.n);
  expect_protocol_error([&] { restored.restore_from(hostile); });
}

TEST(HostileCount, SessionSnapshotShortBid) {
  // SU 0's stored bid envelope swapped for a well-formed one that bids on
  // one channel of the two: restore must refuse it as ingest would,
  // never hand the charge planner a bid too short to index.
  const AllocatedSnapshot snap;
  core::LppaConfig one_channel = snap.config;
  one_channel.num_channels = 1;
  core::TrustedThirdParty ttp(snap.config.bid, 3);
  Rng rng(5);
  const Bytes short_bid =
      proto::SuClient(0, one_channel, ttp.su_keys()).bid_envelope({9}, rng);

  ByteReader r(snap.image);
  ByteWriter w;
  w.u64(r.u64());
  for (std::size_t u = 0; u < snap.n; ++u) {
    w.u8(r.u8());
    w.bytes(r.bytes());
    const Bytes bid = r.bytes();
    w.bytes(u == 0 ? short_bid : bid);
    w.u64(r.u64());
    w.bytes(r.bytes());
  }
  w.raw(r.raw(r.remaining()));

  for (const auto rule :
       {core::ChargingRule::kFirstPrice, core::ChargingRule::kSecondPrice}) {
    core::LppaConfig config = snap.config;
    config.charging_rule = rule;
    proto::AuctioneerSession restored(config, snap.n);
    expect_protocol_error([&] { restored.restore_from(w.data()); });
  }
}

TEST(HostileCount, SessionSnapshotTableOfAnotherPopulation) {
  // The bid table image swapped for a well-formed one over one SU fewer
  // than the snapshot's participants: the restored table would answer
  // for a population the session does not have.
  const AllocatedSnapshot snap;
  ByteReader r(snap.image);
  ByteWriter w;
  w.u64(r.u64());
  for (std::size_t u = 0; u < snap.n; ++u) {
    w.u8(r.u8());
    w.bytes(r.bytes());
    w.bytes(r.bytes());
    w.u64(r.u64());
    w.bytes(r.bytes());
  }
  const std::uint8_t finalized = r.u8();
  ASSERT_EQ(finalized, 1u);
  w.u8(finalized);
  const std::uint32_t participants = r.u32();
  ASSERT_EQ(participants, snap.n);
  w.u32(participants);
  for (std::uint32_t k = 0; k < participants; ++k) w.u64(r.u64());
  w.u8(r.u8());  // allocated
  const core::EncryptedBidTable table =
      core::EncryptedBidTable::deserialize(r.bytes());
  std::vector<core::BidSubmission> fewer(snap.n - 1);
  for (std::size_t u = 0; u + 1 < snap.n; ++u) {
    for (std::size_t c = 0; c < table.num_channels(); ++c) {
      fewer[u].channels.push_back(table.entry(u, c));
    }
  }
  const std::size_t cells = fewer.size() * table.num_channels();
  w.bytes(core::EncryptedBidTable::serialize_image(
      fewer, table.num_channels(), std::vector<bool>(cells, true), cells));
  w.raw(r.raw(r.remaining()));

  proto::AuctioneerSession restored(snap.config, snap.n);
  expect_protocol_error([&] { restored.restore_from(w.data()); });
}

}  // namespace
}  // namespace lppa
