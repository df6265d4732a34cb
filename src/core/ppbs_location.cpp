#include "core/ppbs_location.h"

#include "core/conflict_index.h"

namespace lppa::core {

Bytes LocationSubmission::serialize() const {
  ByteWriter w;
  x_family.serialize(w);
  y_family.serialize(w);
  x_range.serialize(w);
  y_range.serialize(w);
  return w.take();
}

LocationSubmission LocationSubmission::deserialize(
    std::span<const std::uint8_t> wire) {
  ByteReader r(wire);
  LocationSubmission s;
  s.x_family = prefix::HashedPrefixSet::deserialize(r);
  s.y_family = prefix::HashedPrefixSet::deserialize(r);
  s.x_range = prefix::HashedPrefixSet::deserialize(r);
  s.y_range = prefix::HashedPrefixSet::deserialize(r);
  LPPA_PROTOCOL_CHECK(r.at_end(), "trailing bytes after LocationSubmission");
  return s;
}

PpbsLocation::PpbsLocation(const crypto::SecretKey& g0, int coord_width,
                           std::uint64_t lambda, bool pad_ranges)
    : g0_ctx_(g0), coord_width_(coord_width), lambda_(lambda),
      pad_ranges_(pad_ranges) {
  LPPA_REQUIRE(coord_width >= 1 && coord_width <= prefix::kMaxWidth,
               "coordinate width out of range");
  // The whole interference box must be representable.
  const std::uint64_t max_coord =
      (coord_width >= 64) ? ~0ULL : ((std::uint64_t{1} << coord_width) - 1);
  LPPA_REQUIRE(2 * lambda <= max_coord,
               "interference diameter exceeds the coordinate space");
}

LocationSubmission PpbsLocation::submit(const auction::SuLocation& loc,
                                        Rng& rng) const {
  const std::uint64_t max_coord = (std::uint64_t{1} << coord_width_) - 1;
  LPPA_REQUIRE(loc.x <= max_coord - 2 * lambda_ &&
                   loc.y <= max_coord - 2 * lambda_,
               "location (plus interference radius) does not fit coord_width");

  auto clamp_lo = [this](std::uint64_t v) {
    return v >= 2 * lambda_ ? v - 2 * lambda_ : 0;
  };

  // One pass: the four sets are sized and the x padding is drawn before
  // the y padding, then all of them hash as one batch under g0.
  const std::size_t pad_target =
      pad_ranges_ ? prefix::max_range_prefixes(coord_width_) : 0;
  LocationSubmission s;
  prefix::HashedSetBatch batch;
  batch.add_value(s.x_family, g0_ctx_, loc.x, coord_width_);
  batch.add_value(s.y_family, g0_ctx_, loc.y, coord_width_);
  batch.add_range(s.x_range, g0_ctx_, clamp_lo(loc.x), loc.x + 2 * lambda_,
                  coord_width_, pad_target, &rng);
  batch.add_range(s.y_range, g0_ctx_, clamp_lo(loc.y), loc.y + 2 * lambda_,
                  coord_width_, pad_target, &rng);
  batch.run();
  return s;
}

bool PpbsLocation::conflicts(const LocationSubmission& a,
                             const LocationSubmission& b) noexcept {
  // x_i in [x_j - 2λ, x_j + 2λ] and same for y.  The predicate is
  // symmetric in the plaintext, so one direction suffices.
  return prefix::box_match(a.x_family, a.y_family, b.x_range, b.y_range);
}

auction::ConflictGraph PpbsLocation::build_conflict_graph(
    const std::vector<LocationSubmission>& submissions,
    std::size_t num_threads) {
  return core::build_conflict_graph(submissions, num_threads);
}

}  // namespace lppa::core
