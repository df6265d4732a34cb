#include "prefix/prefix.h"

#include <algorithm>
#include <bit>

namespace lppa::prefix {

void check_value_width(std::uint64_t v, int width) {
  LPPA_REQUIRE(width >= 1 && width <= kMaxWidth,
               "prefix width must be in [1, 62]");
  LPPA_REQUIRE(width == 64 || (v >> width) == 0,
               "value does not fit the declared bit width");
}

std::string Prefix::pattern() const {
  std::string out;
  out.reserve(static_cast<std::size_t>(width));
  for (int i = len - 1; i >= 0; --i) {
    out.push_back(((bits >> i) & 1) ? '1' : '0');
  }
  out.append(static_cast<std::size_t>(width - len), '*');
  return out;
}

std::vector<Prefix> prefix_family(std::uint64_t x, int width) {
  check_value_width(x, width);
  std::vector<Prefix> family;
  family.reserve(static_cast<std::size_t>(width) + 1);
  for (int len = width; len >= 0; --len) {
    family.push_back(Prefix{x >> (width - len), len, width});
  }
  return family;
}

namespace {

// The one cover walker, behind range_prefixes and cover_numbers: calls
// visit(p) for each prefix of Q([a,b]) in ascending range order.  From
// each start point it emits the largest aligned block that fits, which
// is the cover's prefix there.  Callers check a <= b and the widths.
template <class Visit>
void for_each_cover_prefix(std::uint64_t a, std::uint64_t b, int width,
                           Visit&& visit) {
  std::uint64_t lo = a;
  for (;;) {
    // A block of 2^k values starting at lo: lo must be a multiple of 2^k
    // and the block must end by b.  b - lo + 1 <= 2^62, no overflow.
    const int aligned = lo == 0 ? width : std::countr_zero(lo);
    const int fits = 63 - std::countl_zero(b - lo + 1);
    const int k = aligned < fits ? aligned : fits;
    visit(Prefix{lo >> k, width - k, width});
    const std::uint64_t hi = lo + ((std::uint64_t{1} << k) - 1);
    if (hi >= b) return;
    lo = hi + 1;
  }
}

}  // namespace

std::vector<Prefix> range_prefixes(std::uint64_t a, std::uint64_t b, int width) {
  check_value_width(a, width);
  check_value_width(b, width);
  LPPA_REQUIRE(a <= b, "range_prefixes requires a <= b");
  std::vector<Prefix> out;
  for_each_cover_prefix(a, b, width, [&](const Prefix& p) { out.push_back(p); });
  return out;
}

std::uint64_t numericalize(const Prefix& p) {
  // t1..ts followed by wildcards -> (w+1)-bit t1..ts 1 0..0.
  const int tail = p.width - p.len;
  return (p.bits << (tail + 1)) | (std::uint64_t{1} << tail);
}

PrefixNumbers family_numbers(std::uint64_t x, int width) {
  check_value_width(x, width);
  PrefixNumbers out;
  for (int len = width; len >= 0; --len) {
    out.values[out.size++] = numericalize(Prefix{x >> (width - len), len, width});
  }
  return out;
}

PrefixNumbers cover_numbers(std::uint64_t a, std::uint64_t b, int width) {
  check_value_width(a, width);
  check_value_width(b, width);
  LPPA_REQUIRE(a <= b, "range_prefixes requires a <= b");
  PrefixNumbers out;
  for_each_cover_prefix(a, b, width, [&](const Prefix& p) {
    out.values[out.size++] = numericalize(p);
  });
  return out;
}

bool member_of_range(std::uint64_t x, std::uint64_t a, std::uint64_t b,
                     int width) {
  const auto family = prefix_family(x, width);
  const auto cover_set = range_prefixes(a, b, width);
  std::vector<std::uint64_t> fam_nums;
  fam_nums.reserve(family.size());
  for (const auto& p : family) fam_nums.push_back(numericalize(p));
  std::sort(fam_nums.begin(), fam_nums.end());
  for (const auto& p : cover_set) {
    if (std::binary_search(fam_nums.begin(), fam_nums.end(), numericalize(p))) {
      return true;
    }
  }
  return false;
}

std::size_t max_range_prefixes(int width) {
  LPPA_REQUIRE(width >= 1, "width must be positive");
  return static_cast<std::size_t>(std::max(1, 2 * width - 2));
}

}  // namespace lppa::prefix
