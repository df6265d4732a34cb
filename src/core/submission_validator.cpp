#include "core/submission_validator.h"

namespace lppa::core {

namespace {

/// Sorted digest vectors must be strictly increasing: an honest family
/// hashes w+1 distinct numericalised prefixes and padding digests are
/// uniform random, so a repeated digest only ever arises from a
/// malformed (or replayed-within-itself) submission.
bool has_duplicate(std::span<const crypto::Digest> digests) {
  for (std::size_t i = 1; i < digests.size(); ++i) {
    if (!(digests[i - 1] < digests[i])) return true;
  }
  return false;
}

std::string channel_name(std::size_t r) {
  return "channel " + std::to_string(r);
}

}  // namespace

std::string SubmissionValidator::SetName::str() const {
  if (!channel) return what;
  return channel_name(*channel) + " " + what;
}

SubmissionValidator::SubmissionValidator(const LppaConfig& config)
    : coord_width_(config.coord_width),
      pad_location_ranges_(config.pad_location_ranges),
      num_channels_(config.num_channels),
      bid_width_(config.bid.enc.scaled_width()),
      pad_bid_ranges_(config.bid.pad_range_sets),
      sealed_payload_size_(SealedBidPayload{}.serialize().size()),
      backend_(&crypto::resolve_backend(config.backend)) {
  config.bid.enc.validate();
  LPPA_REQUIRE(coord_width_ >= 1 && coord_width_ <= prefix::kMaxWidth,
               "coordinate width out of range");
  LPPA_REQUIRE(num_channels_ > 0, "auction requires channels");
  LPPA_REQUIRE(backend_->id() == config.bid.backend,
               "validator backend does not match the bid-config backend id");
}

std::optional<std::string> SubmissionValidator::validate_family(
    const prefix::HashedPrefixSet& set, int width, const SetName& name) const {
  const std::size_t expected = family_size(width);
  if (set.size() != expected) {
    return name.str() + ": prefix family has " +
           std::to_string(set.size()) + " digests, expected " +
           std::to_string(expected) + " for width " + std::to_string(width);
  }
  if (has_duplicate(set.digests())) {
    return name.str() + ": duplicate digest in prefix family";
  }
  return std::nullopt;
}

std::optional<std::string> SubmissionValidator::validate_range(
    const prefix::HashedPrefixSet& set, int width, bool padded,
    const SetName& name) const {
  const std::size_t max = prefix::max_range_prefixes(width);
  if (padded) {
    if (set.size() != max) {
      return name.str() + ": padded range cover has " +
             std::to_string(set.size()) + " digests, expected exactly " +
             std::to_string(max);
    }
  } else {
    if (set.size() < 1 || set.size() > max) {
      return name.str() + ": range cover has " +
             std::to_string(set.size()) + " digests, expected 1.." +
             std::to_string(max);
    }
  }
  if (has_duplicate(set.digests())) {
    return name.str() + ": duplicate digest in range cover";
  }
  return std::nullopt;
}

std::optional<std::string> SubmissionValidator::validate_location(
    const LocationSubmission& s) const {
  if (auto e = validate_family(s.x_family, coord_width_, {"x_family", {}})) {
    return e;
  }
  if (auto e = validate_family(s.y_family, coord_width_, {"y_family", {}})) {
    return e;
  }
  if (auto e = validate_range(s.x_range, coord_width_, pad_location_ranges_,
                              {"x_range", {}})) {
    return e;
  }
  if (auto e = validate_range(s.y_range, coord_width_, pad_location_ranges_,
                              {"y_range", {}})) {
    return e;
  }
  return std::nullopt;
}

std::optional<std::string> SubmissionValidator::validate_bid(
    const BidSubmission& s) const {
  if (s.channels.size() != num_channels_) {
    return "bid submission covers " + std::to_string(s.channels.size()) +
           " channels, auction has " + std::to_string(num_channels_);
  }
  for (std::size_t r = 0; r < s.channels.size(); ++r) {
    const ChannelBidSubmission& c = s.channels[r];
    if (backend_->id() != crypto::BidBackendId::kHmacPrefix) {
      // Non-HMAC cells carry no prefix structure; the backend owns the
      // per-cell shape test (empty families, ciphertext range).
      if (auto e = backend_->validate_cell(c)) {
        return channel_name(r) + ": " + *e;
      }
    } else {
      // Digest counts bound the encoded value to the [0, bmax] scaled
      // encoding: a family over any wider width (i.e. a value beyond
      // scaled_max) has more than bid_width_+1 digests and is rejected.
      if (auto e = validate_family(c.value_family, bid_width_,
                                   {"value_family", r})) {
        return e;
      }
      if (auto e = validate_range(c.range_set, bid_width_, pad_bid_ranges_,
                                  {"range_set", r})) {
        return e;
      }
    }
    // The stream cipher preserves length, so a well-formed sealed payload
    // has exactly the SealedBidPayload wire size as ciphertext.
    if (c.sealed.ciphertext.size() != sealed_payload_size_) {
      return channel_name(r) + " sealed payload has " +
             std::to_string(c.sealed.ciphertext.size()) +
             " ciphertext bytes, expected " +
             std::to_string(sealed_payload_size_);
    }
  }
  return std::nullopt;
}

void SubmissionValidator::check_location(const LocationSubmission& s) const {
  if (auto e = validate_location(s)) {
    detail::raise(ErrorKind::kProtocol, "invalid location submission: " + *e);
  }
}

void SubmissionValidator::check_bid(const BidSubmission& s) const {
  if (auto e = validate_bid(s)) {
    detail::raise(ErrorKind::kProtocol, "invalid bid submission: " + *e);
  }
}

}  // namespace lppa::core
