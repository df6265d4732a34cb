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

TEST(HostileCount, SessionSnapshotAwards) {
  // A real allocated snapshot with its award list replaced by a maximal
  // count and nothing after it.
  core::LppaConfig config;
  config.num_channels = 2;
  config.lambda = 100;
  config.coord_width = 14;
  constexpr std::size_t n = 4;
  core::TrustedThirdParty ttp(config.bid, 3);
  proto::AuctioneerSession session(config, n);
  Rng rng(17);
  for (std::size_t u = 0; u < n; ++u) {
    const proto::SuClient client(u, config, ttp.su_keys());
    session.ingest(client.location_envelope({rng.below(5000), rng.below(5000)},
                                            rng));
    session.ingest(client.bid_envelope({rng.below(16), rng.below(16)}, rng));
  }
  session.run_allocation(rng);
  const Bytes snapshot = session.snapshot();
  constexpr std::size_t kAwardBytes = 8 + 8 + 8 + 1 + 1;
  const std::size_t award_list =
      snapshot.size() - 4 - kAwardBytes * session.awards().size();
  Bytes hostile(snapshot.begin(),
                snapshot.begin() + static_cast<std::ptrdiff_t>(award_list));
  ByteWriter count;
  count.u32(kMaxCount);
  hostile.insert(hostile.end(), count.data().begin(), count.data().end());

  proto::AuctioneerSession intact(config, n);
  intact.restore_from(snapshot);  // the cut point is the award count
  EXPECT_EQ(intact.snapshot(), snapshot);
  proto::AuctioneerSession restored(config, n);
  expect_protocol_error([&] { restored.restore_from(hostile); });
}

}  // namespace
}  // namespace lppa
