#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "common/rng.h"
#include "crypto/sha256_kernel.h"

namespace lppa::crypto {
namespace {

// FIPS 180-4 / NIST CAVP reference vectors.
TEST(Sha256, EmptyMessage) {
  EXPECT_EQ(Sha256::hash("").hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(Sha256::hash("abc").hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      Sha256::hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
          .hex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(h.finalize().hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// NIST CAVP SHA256ShortMsg samples (byte-oriented).
TEST(Sha256, CavpShortMessages) {
  struct Vector {
    const char* msg_hex;
    const char* digest_hex;
  };
  const Vector vectors[] = {
      {"d3", "28969cdfa74a12c82f3bad960b0b000aca2ac329deea5c2328ebc6f2ba9802c1"},
      {"11af", "5ca7133fa735326081558ac312c620eeca9970d1e70a4b95533d956f072d1f98"},
      {"b4190e", "dff2e73091f6c05e528896c4c831b9448653dc2ff043528f6769437bc7b975c2"},
      {"74ba2521", "b16aa56be3880d18cd41e68384cf1ec8c17680c45a02b1575dc1518923ae8b0e"},
  };
  for (const auto& v : vectors) {
    const Bytes msg = from_hex(v.msg_hex);
    EXPECT_EQ(Sha256::hash(msg).hex(), v.digest_hex) << v.msg_hex;
  }
}

TEST(Sha256, ExactBlockBoundary) {
  // 64-byte message forces the padding into a second block.
  const std::string msg(64, 'x');
  const Digest one_shot = Sha256::hash(msg);
  Sha256 h;
  h.update(msg);
  EXPECT_EQ(h.finalize(), one_shot);
}

TEST(Sha256, FiftyFiveAndFiftySixBytePadEdges) {
  // 55 bytes: length fits the same block; 56 bytes: spills into the next.
  const Digest d55 = Sha256::hash(std::string(55, 'y'));
  const Digest d56 = Sha256::hash(std::string(56, 'y'));
  EXPECT_NE(d55, d56);
  // Regression pin for the 56-byte edge (verified against coreutils
  // sha256sum).
  EXPECT_EQ(Sha256::hash(std::string(56, 'a')).hex(),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
}

TEST(Sha256, IncrementalMatchesOneShotForAllSplitPoints) {
  const std::string msg =
      "The quick brown fox jumps over the lazy dog and keeps going for a "
      "while to cross several SHA-256 block boundaries in this test string.";
  const Digest expected = Sha256::hash(msg);
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(std::string_view(msg).substr(0, split));
    h.update(std::string_view(msg).substr(split));
    EXPECT_EQ(h.finalize(), expected) << "split at " << split;
  }
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 h;
  h.update("abc");
  const Digest first = h.finalize();
  h.reset();
  h.update("abc");
  EXPECT_EQ(h.finalize(), first);
}

TEST(Digest, OrderingIsLexicographic) {
  Digest a, b;
  a.bytes[0] = 1;
  b.bytes[0] = 2;
  EXPECT_LT(a, b);
  b.bytes[0] = 1;
  EXPECT_EQ(a, b);
  b.bytes[31] = 1;
  EXPECT_LT(a, b);
}

// operator<=> compares four big-endian words; it must be exactly the
// byte-lexicographic order every sorted set and the wire rely on.
TEST(Digest, WordOrderMatchesByteLexicographic) {
  auto byte_less = [](const Digest& a, const Digest& b) {
    return std::lexicographical_compare(a.bytes.begin(), a.bytes.end(),
                                        b.bytes.begin(), b.bytes.end());
  };
  auto expect_order = [&](const Digest& a, const Digest& b) {
    EXPECT_EQ(a < b, byte_less(a, b)) << a.hex() << " vs " << b.hex();
    EXPECT_EQ(b < a, byte_less(b, a)) << a.hex() << " vs " << b.hex();
    EXPECT_EQ(a == b, !byte_less(a, b) && !byte_less(b, a));
  };
  lppa::Rng rng(21);
  auto random_digest = [&] {
    Digest d;
    for (auto& byte : d.bytes) byte = static_cast<std::uint8_t>(rng.below(256));
    return d;
  };
  for (int trial = 0; trial < 2000; ++trial) {
    expect_order(random_digest(), random_digest());
  }
  // One differing byte at each position, both ways round, with bytes
  // whose top bit differs (a signed compare would get these wrong).
  for (std::size_t pos = 0; pos < Digest::kSize; ++pos) {
    for (const auto& [lo, hi] : {std::pair<int, int>{0x00, 0x01},
                                 {0x7f, 0x80}, {0x01, 0xff}}) {
      Digest a = random_digest();
      Digest b = a;
      a.bytes[pos] = static_cast<std::uint8_t>(lo);
      b.bytes[pos] = static_cast<std::uint8_t>(hi);
      expect_order(a, b);
      EXPECT_LT(a, b) << "position " << pos;
      expect_order(b, a);
    }
  }
  const Digest d = random_digest();
  Digest same = d;
  expect_order(d, same);
  EXPECT_EQ(d <=> same, std::strong_ordering::equal);
}

TEST(Digest, FingerprintUsesLeadingBytes) {
  Digest d;
  for (int i = 0; i < 8; ++i) d.bytes[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i + 1);
  EXPECT_EQ(d.fingerprint(), 0x0807060504030201ULL);
}

TEST(Digest, StdHashIsUsable) {
  const Digest a = Sha256::hash("x");
  const Digest b = Sha256::hash("y");
  const std::hash<Digest> hasher;
  EXPECT_NE(hasher(a), hasher(b));
}

// The portable and SHA-NI compressions are one function: random chaining
// values, one to four blocks per call.  The vector tests above only run
// the kernel CPUID picks; this pins the other one against it.
TEST(Sha256Kernel, ScalarAndShaNiCompressionsAgree) {
#ifdef LPPA_SHA_NI_DISPATCH
  if (!kernel::sha_ni()) GTEST_SKIP() << "CPU lacks the SHA extensions";
  lppa::Rng rng(2026);
  for (int trial = 0; trial < 200; ++trial) {
    kernel::State state;
    for (auto& word : state) word = static_cast<std::uint32_t>(rng.next());
    const std::size_t blocks = 1 + trial % 4;
    Bytes data(64 * blocks);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
    kernel::State scalar = state, shani = state;
    kernel::compress_scalar(scalar, data.data(), blocks);
    kernel::compress_shani(shani, data.data(), blocks);
    EXPECT_EQ(scalar, shani) << "trial " << trial;
  }
#else
  GTEST_SKIP() << "no SHA-NI kernel on this target";
#endif
}

TEST(Sha256Kernel, ResumeContinuesFromAMidstate) {
  lppa::Rng rng(2027);
  Bytes msg(64 * 3 + 17);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
  kernel::State mid = kernel::kInitialState;
  kernel::compress(mid, msg.data(), 2);
  Sha256 resumed = Sha256::resume(mid, 2);
  resumed.update(std::span<const std::uint8_t>(msg).subspan(128));
  EXPECT_EQ(resumed.finalize(), Sha256::hash(msg));
}

// Avalanche-style property sweep: flipping any single input byte changes
// the digest.
class Sha256Avalanche : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha256Avalanche, SingleByteFlipChangesDigest) {
  const std::size_t len = GetParam();
  lppa::Rng rng(len + 17);
  Bytes msg(len);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
  const Digest base = Sha256::hash(msg);
  for (std::size_t i = 0; i < len; i += std::max<std::size_t>(1, len / 8)) {
    Bytes mutated = msg;
    mutated[i] ^= 0x01;
    EXPECT_NE(Sha256::hash(mutated), base) << "flip at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, Sha256Avalanche,
                         ::testing::Values(1, 31, 32, 63, 64, 65, 127, 128,
                                           1000));

}  // namespace
}  // namespace lppa::crypto
