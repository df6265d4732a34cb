// RoundJournal framing and the truncation/corruption corpus.
//
// The recovery guarantee rests on one property of the log and of the
// envelopes it stores: damage is always DETECTED.  The corpus tests
// sweep it bit by bit — every prefix truncation and every single-bit
// flip of a valid journal image (and of a valid Envelope) must surface
// as LppaError(kProtocol), never as a crash, never as silently accepted
// different state.  The only prefixes that parse are the exact record
// boundaries, which is the write-ahead contract itself: a crash between
// appends leaves a shorter but valid log.
#include <gtest/gtest.h>

#include <set>

#include "proto/journal.h"
#include "proto/messages.h"

namespace lppa::proto {
namespace {

RoundJournal sample_journal() {
  RoundJournal journal;
  journal.append_round_start(12);
  journal.append(JournalRecordType::kAccepted, Bytes{1, 2, 3, 4, 5});
  journal.append_user_note(JournalRecordType::kStrike, 3,
                           "bad digest length");
  journal.append_user_note(JournalRecordType::kEquivocation, 7,
                           "conflicting bid submissions");
  journal.append_nack(5, 0x3, 2);
  journal.append(JournalRecordType::kFinalized);
  journal.append(JournalRecordType::kAllocated, Bytes{9, 9, 9});
  journal.append(JournalRecordType::kChargeCommit, Bytes{0xAB});
  journal.append(JournalRecordType::kCommitted);
  return journal;
}

TEST(Journal, RecordsRoundTripWithTypedPayloads) {
  const RoundJournal journal = sample_journal();
  EXPECT_EQ(journal.num_records(), 9u);
  EXPECT_FALSE(journal.empty());

  const auto records = RoundJournal::read(journal.data());
  ASSERT_EQ(records.size(), 9u);
  EXPECT_EQ(records[0].type, JournalRecordType::kRoundStart);
  EXPECT_EQ(records[0].round_start_users(), 12u);
  EXPECT_EQ(records[1].type, JournalRecordType::kAccepted);
  EXPECT_EQ(records[1].payload, (Bytes{1, 2, 3, 4, 5}));

  const auto strike = records[2].user_note();
  EXPECT_EQ(strike.user, 3u);
  EXPECT_EQ(strike.detail, "bad digest length");
  const auto equivocation = records[3].user_note();
  EXPECT_EQ(equivocation.user, 7u);
  EXPECT_EQ(equivocation.detail, "conflicting bid submissions");

  const auto nack = records[4].nack();
  EXPECT_EQ(nack.user, 5u);
  EXPECT_EQ(nack.mask, 0x3u);
  EXPECT_EQ(nack.wave, 2u);

  EXPECT_EQ(records[5].type, JournalRecordType::kFinalized);
  EXPECT_TRUE(records[5].payload.empty());
  EXPECT_EQ(records[6].type, JournalRecordType::kAllocated);
  EXPECT_EQ(records[8].type, JournalRecordType::kCommitted);

  EXPECT_TRUE(RoundJournal::read({}).empty());
}

TEST(Journal, PerTypeByteCountsSumToTheLog) {
  const RoundJournal journal = sample_journal();
  std::size_t total = 0;
  for (std::size_t t = 1; t <= kNumJournalRecordTypes; ++t) {
    total += journal.bytes_of(static_cast<JournalRecordType>(t));
  }
  EXPECT_EQ(total, journal.data().size());
  // Each record is charged to its own type, framing included.
  EXPECT_EQ(journal.bytes_of(JournalRecordType::kAccepted),
            5 + RoundJournal::kFrameBytes);
  EXPECT_EQ(journal.bytes_of(JournalRecordType::kNackSent),
            RoundJournal::kNackRecordBytes);
  EXPECT_EQ(journal.bytes_of(JournalRecordType::kChurnArrival), 0u);
}

/// Offsets at which a truncation leaves a valid (shorter) journal: the
/// record boundaries, i.e. exactly the states a crash between appends
/// can leave on disk.
std::set<std::size_t> record_boundaries() {
  RoundJournal journal;
  std::set<std::size_t> boundaries{0};
  const RoundJournal full = sample_journal();
  const auto records = RoundJournal::read(full.data());
  for (const auto& rec : records) {
    journal.append(rec.type, rec.payload);
    boundaries.insert(journal.data().size());
  }
  // Re-appending record by record reproduces the image byte for byte
  // (the framing has no hidden cross-record state).
  EXPECT_EQ(journal.data(), full.data());
  return boundaries;
}

TEST(Journal, PlannedRecordsAppendWithoutMovingTheLog) {
  // plan() sizes the log for records still to come: they append in place
  // (no realloc-copy of the log), and the bytes are those of an unplanned
  // journal.
  const Bytes envelope(100, 0x5c);
  RoundJournal planned;
  RoundJournal unplanned;
  for (RoundJournal* j : {&planned, &unplanned}) j->append_round_start(3);
  planned.plan(3 * RoundJournal::kNackRecordBytes +
               2 * (envelope.size() + RoundJournal::kFrameBytes));
  const std::uint8_t* const base = planned.data().data();
  for (RoundJournal* j : {&planned, &unplanned}) {
    for (std::uint64_t u = 0; u < 3; ++u) j->append_nack(u, 0x1, 0);
    j->append(JournalRecordType::kAccepted, envelope);
    j->append(JournalRecordType::kAccepted, envelope);
  }
  EXPECT_EQ(planned.data().data(), base);
  EXPECT_EQ(planned.data(), unplanned.data());
}

TEST(JournalCorpus, EveryTruncationIsBoundaryValidOrTypedError) {
  const RoundJournal journal = sample_journal();
  const Bytes& image = journal.data();
  const std::set<std::size_t> boundaries = record_boundaries();

  for (std::size_t len = 0; len < image.size(); ++len) {
    const std::span<const std::uint8_t> prefix(image.data(), len);
    if (boundaries.count(len)) {
      // A crash-consistent prefix: parses to the records before the cut.
      EXPECT_NO_THROW(RoundJournal::read(prefix)) << "boundary " << len;
      continue;
    }
    try {
      RoundJournal::read(prefix);
      FAIL() << "truncation at " << len << " accepted";
    } catch (const LppaError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kProtocol) << "truncation at " << len;
    }
  }
}

TEST(JournalCorpus, EverySingleBitFlipIsATypedError) {
  const RoundJournal journal = sample_journal();
  const Bytes image = journal.data();

  for (std::size_t byte = 0; byte < image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = image;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      try {
        RoundJournal::read(flipped);
        FAIL() << "flip at byte " << byte << " bit " << bit << " accepted";
      } catch (const LppaError& e) {
        EXPECT_EQ(e.kind(), ErrorKind::kProtocol)
            << "flip at byte " << byte << " bit " << bit;
      }
    }
  }
}

Bytes sample_envelope() {
  Envelope e;
  e.type = MessageType::kBidSubmission;
  e.sender = 7;
  e.payload = Bytes{10, 20, 30, 40, 50, 60};
  return e.serialize();
}

TEST(EnvelopeCorpus, EveryTruncationIsATypedError) {
  const Bytes wire = sample_envelope();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    try {
      Envelope::deserialize(std::span<const std::uint8_t>(wire.data(), len));
      FAIL() << "truncation at " << len << " accepted";
    } catch (const LppaError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kProtocol) << "truncation at " << len;
    }
  }
}

TEST(EnvelopeCorpus, EverySingleBitFlipIsATypedError) {
  const Bytes wire = sample_envelope();
  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = wire;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      try {
        Envelope::deserialize(flipped);
        FAIL() << "flip at byte " << byte << " bit " << bit << " accepted";
      } catch (const LppaError& e) {
        EXPECT_EQ(e.kind(), ErrorKind::kProtocol)
            << "flip at byte " << byte << " bit " << bit;
      }
    }
  }
}

TEST(Journal, DecodersRejectMistypedRecords) {
  RoundJournal journal;
  journal.append_round_start(4);
  const auto records = RoundJournal::read(journal.data());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_THROW(records[0].user_note(), LppaError);
  EXPECT_THROW(records[0].nack(), LppaError);
}

}  // namespace
}  // namespace lppa::proto
