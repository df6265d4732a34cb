#include "core/submission_validator.h"

#include <gtest/gtest.h>

#include "core/ppbs_bid.h"
#include "core/ppbs_location.h"
#include "core/ttp.h"
#include "prefix/prefix.h"

namespace lppa::core {
namespace {

LppaConfig make_config() {
  LppaConfig config;
  config.num_channels = 3;
  config.lambda = 100;
  config.coord_width = 14;
  config.bid = PpbsBidConfig::advanced(15, 3, 4, ZeroDisguisePolicy::none(15));
  return config;
}

struct Corpus {
  LppaConfig config = make_config();
  TrustedThirdParty ttp{config.bid, 7};
  SubmissionValidator validator{config};
  Rng rng{11};

  LocationSubmission honest_location() {
    const PpbsLocation protocol(ttp.su_keys().g0, config.coord_width,
                                config.lambda, config.pad_location_ranges);
    return protocol.submit({1200, 3400}, rng);
  }

  BidSubmission honest_bid() {
    const BidSubmitter submitter(config.bid, ttp.su_keys().gb_master,
                                 ttp.su_keys().gc);
    return submitter.submit({0, 7, 15}, rng);
  }
};

/// Rebuilds a HashedPrefixSet with the digest at `drop` removed.
prefix::HashedPrefixSet truncated(const prefix::HashedPrefixSet& set,
                                  std::size_t drop) {
  std::vector<crypto::Digest> digests(set.digests().begin(),
                                      set.digests().end());
  digests.erase(digests.begin() + static_cast<std::ptrdiff_t>(drop));
  return prefix::HashedPrefixSet::from_digests(std::move(digests));
}

/// Rebuilds a HashedPrefixSet with the first digest appearing twice.
prefix::HashedPrefixSet with_duplicate(const prefix::HashedPrefixSet& set) {
  std::vector<crypto::Digest> digests(set.digests().begin(),
                                      set.digests().end());
  digests.push_back(digests.front());
  return prefix::HashedPrefixSet::from_digests(std::move(digests));
}

TEST(SubmissionValidator, AcceptsHonestSubmissions) {
  Corpus c;
  EXPECT_EQ(c.validator.validate_location(c.honest_location()), std::nullopt);
  EXPECT_EQ(c.validator.validate_bid(c.honest_bid()), std::nullopt);
  EXPECT_NO_THROW(c.validator.check_location(c.honest_location()));
  EXPECT_NO_THROW(c.validator.check_bid(c.honest_bid()));
}

TEST(SubmissionValidator, FamilySizeIsWidthPlusOne) {
  EXPECT_EQ(SubmissionValidator::family_size(14), 15u);
  Corpus c;
  const auto s = c.honest_location();
  EXPECT_EQ(s.x_family.size(), SubmissionValidator::family_size(14));
}

TEST(SubmissionValidator, RejectsTruncatedDigestFamily) {
  Corpus c;
  auto s = c.honest_location();
  s.x_family = truncated(s.x_family, 0);
  const auto error = c.validator.validate_location(s);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("x_family"), std::string::npos);
  try {
    c.validator.check_location(s);
    FAIL() << "expected LppaError";
  } catch (const LppaError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocol);
  }
}

TEST(SubmissionValidator, RejectsDuplicateDigestInFamily) {
  Corpus c;
  auto s = c.honest_location();
  s.y_family = with_duplicate(truncated(s.y_family, 0));  // size stays w+1
  const auto error = c.validator.validate_location(s);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("duplicate digest"), std::string::npos);
}

TEST(SubmissionValidator, RejectsUnpaddedRangeCoverWhenPaddingIsOn) {
  Corpus c;
  ASSERT_TRUE(c.config.pad_location_ranges);
  auto s = c.honest_location();
  ASSERT_EQ(s.x_range.size(),
            prefix::max_range_prefixes(c.config.coord_width));
  s.x_range = truncated(s.x_range, 0);
  const auto error = c.validator.validate_location(s);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("x_range"), std::string::npos);
}

TEST(SubmissionValidator, RejectsOversizedRangeCover) {
  Corpus c;
  auto s = c.honest_location();
  std::vector<crypto::Digest> digests(s.y_range.digests().begin(),
                                      s.y_range.digests().end());
  crypto::Digest extra{};
  extra.bytes[0] = 0xAB;
  digests.push_back(extra);
  s.y_range = prefix::HashedPrefixSet::from_digests(std::move(digests));
  EXPECT_TRUE(c.validator.validate_location(s).has_value());
}

TEST(SubmissionValidator, RejectsWrongChannelCount) {
  Corpus c;
  auto s = c.honest_bid();
  s.channels.pop_back();
  const auto error = c.validator.validate_bid(s);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("channels"), std::string::npos);
  try {
    c.validator.check_bid(s);
    FAIL() << "expected LppaError";
  } catch (const LppaError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kProtocol);
  }
}

TEST(SubmissionValidator, RejectsOversizedBidEncoding) {
  Corpus c;
  auto s = c.honest_bid();
  // A bid value beyond scaled_max needs a wider prefix family; its w'+1
  // digests (w' > w) exceed the configured family size and are rejected —
  // this is the structural [0, bmax] bound of the issue.
  const int width = c.config.bid.enc.scaled_width();
  const std::uint64_t beyond = c.config.bid.enc.scaled_max() + 1;
  s.channels[1].value_family = prefix::HashedPrefixSet::of_value(
      c.ttp.su_keys().gb_master, beyond, width + 1);
  const auto error = c.validator.validate_bid(s);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("value_family"), std::string::npos);
}

TEST(SubmissionValidator, RejectsWrongSealedPayloadSize) {
  Corpus c;
  auto s = c.honest_bid();
  s.channels[0].sealed.ciphertext.pop_back();
  const auto error = c.validator.validate_bid(s);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("sealed payload"), std::string::npos);
}

// A rejection's text names the channel and the set; the validator only
// builds that text when it rejects, so pin it byte for byte.
TEST(SubmissionValidator, ChannelRangeSetErrorTextIsExact) {
  LppaConfig config = make_config();
  config.num_channels = 4;
  const TrustedThirdParty ttp(config.bid, 7);
  const SubmissionValidator validator(config);
  const BidSubmitter submitter(config.bid, ttp.su_keys().gb_master,
                               ttp.su_keys().gc);
  Rng rng(13);
  auto s = submitter.submit({3, 0, 9, 15}, rng);
  ASSERT_EQ(validator.validate_bid(s), std::nullopt);
  const std::size_t padded = s.channels[3].range_set.size();
  s.channels[3].range_set = truncated(s.channels[3].range_set, 1);
  const auto error = validator.validate_bid(s);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(*error, "channel 3 range_set: padded range cover has " +
                        std::to_string(padded - 1) +
                        " digests, expected exactly " +
                        std::to_string(padded));
  try {
    validator.check_bid(s);
    FAIL() << "expected LppaError";
  } catch (const LppaError& e) {
    EXPECT_EQ(std::string(e.what()), "invalid bid submission: " + *error);
  }
}

TEST(SubmissionValidator, InProcessEngineRunsWithValidationOn) {
  // The validator is wired into LppaAuction::run (defence in depth: the
  // in-process SUs are honest by construction).  Validation must accept
  // every honest round and leave the outcome untouched.
  Corpus c;
  const std::vector<auction::SuLocation> locations{{10, 10}, {5000, 5000}};
  const std::vector<BidVector> bids{{1, 2, 3}, {4, 5, 6}};

  ASSERT_TRUE(c.config.validate_submissions);
  LppaAuction engine(c.config, 7);
  Rng rng(3);
  const auto validated = engine.run(locations, bids, rng);

  auto unchecked_config = c.config;
  unchecked_config.validate_submissions = false;
  LppaAuction unchecked(unchecked_config, 7);
  Rng rng2(3);
  const auto baseline = unchecked.run(locations, bids, rng2);
  EXPECT_EQ(validated.outcome.awards, baseline.outcome.awards);
}

}  // namespace
}  // namespace lppa::core
