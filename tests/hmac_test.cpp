#include "crypto/hmac.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "crypto/sha256_kernel.h"

namespace lppa::crypto {
namespace {

Bytes str_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

// RFC 4231 test case 1: 20-byte 0x0b key, "Hi There".
TEST(HmacRawKey, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Bytes msg = str_bytes("Hi There");
  EXPECT_EQ(hmac_sha256_raw_key(key, msg).hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2: key "Jefe", msg "what do ya want for nothing?".
TEST(HmacRawKey, Rfc4231Case2) {
  EXPECT_EQ(hmac_sha256_raw_key(str_bytes("Jefe"),
                                str_bytes("what do ya want for nothing?"))
                .hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3: 20-byte 0xaa key, 50 bytes of 0xdd.
TEST(HmacRawKey, Rfc4231Case3) {
  EXPECT_EQ(hmac_sha256_raw_key(Bytes(20, 0xaa), Bytes(50, 0xdd)).hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 4: 25-byte incrementing key, 50 bytes of 0xcd.
TEST(HmacRawKey, Rfc4231Case4) {
  Bytes key(25);
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i + 1);
  EXPECT_EQ(hmac_sha256_raw_key(key, Bytes(50, 0xcd)).hex(),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

// RFC 4231 test case 6: 131-byte 0xaa key (forces key pre-hashing).
TEST(HmacRawKey, Rfc4231Case6OversizedKey) {
  EXPECT_EQ(
      hmac_sha256_raw_key(
          Bytes(131, 0xaa),
          str_bytes("Test Using Larger Than Block-Size Key - Hash Key First"))
          .hex(),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// RFC 4231 test case 7: oversized key AND long message.
TEST(HmacRawKey, Rfc4231Case7) {
  EXPECT_EQ(hmac_sha256_raw_key(
                Bytes(131, 0xaa),
                str_bytes("This is a test using a larger than block-size key "
                          "and a larger than block-size data. The key needs "
                          "to be hashed before being used by the HMAC "
                          "algorithm."))
                .hex(),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(HmacSecretKey, MatchesRawKeyPath) {
  lppa::Rng rng(1);
  const SecretKey key = SecretKey::generate(rng);
  const Bytes msg = str_bytes("some message");
  const Bytes raw_key(key.bytes().begin(), key.bytes().end());
  EXPECT_EQ(hmac_sha256(key, msg), hmac_sha256_raw_key(raw_key, msg));
}

TEST(HmacSecretKey, StringOverloadMatchesByteOverload) {
  lppa::Rng rng(2);
  const SecretKey key = SecretKey::generate(rng);
  EXPECT_EQ(hmac_sha256(key, "payload"),
            hmac_sha256(key, str_bytes("payload")));
}

TEST(HmacSecretKey, DifferentKeysDifferentMacs) {
  lppa::Rng rng(3);
  const SecretKey k1 = SecretKey::generate(rng);
  const SecretKey k2 = SecretKey::generate(rng);
  EXPECT_NE(hmac_sha256(k1, "m"), hmac_sha256(k2, "m"));
}

TEST(HmacSecretKey, DifferentMessagesDifferentMacs) {
  lppa::Rng rng(4);
  const SecretKey key = SecretKey::generate(rng);
  EXPECT_NE(hmac_sha256(key, "m1"), hmac_sha256(key, "m2"));
}

TEST(HmacU64, EncodesLittleEndian) {
  lppa::Rng rng(5);
  const SecretKey key = SecretKey::generate(rng);
  const std::uint64_t v = 0x0123456789abcdefULL;
  Bytes le(8);
  for (int i = 0; i < 8; ++i) le[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
  EXPECT_EQ(hmac_sha256_u64(key, v), hmac_sha256(key, le));
}

TEST(HmacU64, DistinctValuesDistinctDigests) {
  lppa::Rng rng(6);
  const SecretKey key = SecretKey::generate(rng);
  // The protocol relies on HMAC being injective in practice over the
  // numericalised prefixes; spot-check a dense range.
  std::set<Digest> seen;
  for (std::uint64_t v = 0; v < 2000; ++v) {
    EXPECT_TRUE(seen.insert(hmac_sha256_u64(key, v)).second) << v;
  }
}

TEST(HmacIncremental, ChunkSizeNeverMatters) {
  // Property: any partition of the message into update() calls yields
  // the same MAC.
  lppa::Rng rng(8);
  const SecretKey key = SecretKey::generate(rng);
  Bytes msg(257);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
  const Digest expected = hmac_sha256(key, msg);
  for (std::size_t chunk : {1u, 3u, 16u, 63u, 64u, 65u, 256u}) {
    HmacSha256 mac(key);
    for (std::size_t off = 0; off < msg.size(); off += chunk) {
      const std::size_t take = std::min(chunk, msg.size() - off);
      mac.update(std::span<const std::uint8_t>(msg.data() + off, take));
    }
    EXPECT_EQ(mac.finalize(), expected) << "chunk " << chunk;
  }
}

TEST(HmacIncremental, MatchesOneShot) {
  lppa::Rng rng(7);
  const SecretKey key = SecretKey::generate(rng);
  const Bytes msg = str_bytes("split me into pieces");
  HmacSha256 mac(key);
  mac.update(std::span<const std::uint8_t>(msg.data(), 6));
  mac.update(std::span<const std::uint8_t>(msg.data() + 6, msg.size() - 6));
  EXPECT_EQ(mac.finalize(), hmac_sha256(key, msg));
}

TEST(HmacIncremental, HeldContextMatchesKeyConstructor) {
  lppa::Rng rng(16);
  const SecretKey key = SecretKey::generate(rng);
  const HmacKeyCtx ctx(key);
  const Bytes msg = str_bytes("nonce||ciphertext");
  HmacSha256 from_key(key);
  HmacSha256 from_ctx(ctx);
  from_key.update(msg);
  from_ctx.update(msg);
  EXPECT_EQ(from_ctx.finalize(), from_key.finalize());
}

// ------------------------------------------------------------------ ctx

// Every RFC 4231 case, driven explicitly through HmacKeyCtx::from_raw_key
// so the midstate-cached path (not just the convenience wrappers built on
// it) is pinned against the published vectors.  Covers short keys
// (zero-padding), an oversized key (pre-hashing), and messages shorter
// and longer than one compression block.
TEST(HmacKeyCtxRfc4231, AllCasesThroughMidstatePath) {
  struct Case {
    Bytes key;
    Bytes msg;
    const char* hex;
  };
  Bytes case4_key(25);
  for (std::size_t i = 0; i < case4_key.size(); ++i) {
    case4_key[i] = static_cast<std::uint8_t>(i + 1);
  }
  const Case cases[] = {
      {Bytes(20, 0x0b), str_bytes("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {str_bytes("Jefe"), str_bytes("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Bytes(20, 0xaa), Bytes(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {case4_key, Bytes(50, 0xcd),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {Bytes(131, 0xaa),
       str_bytes("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {Bytes(131, 0xaa),
       str_bytes("This is a test using a larger than block-size key "
                 "and a larger than block-size data. The key needs "
                 "to be hashed before being used by the HMAC "
                 "algorithm."),
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  for (const Case& c : cases) {
    const HmacKeyCtx ctx = HmacKeyCtx::from_raw_key(c.key);
    EXPECT_EQ(ctx.mac(c.msg).hex(), c.hex);
    // The context is reusable: a second mac() from the same midstates
    // must not be perturbed by the first.
    EXPECT_EQ(ctx.mac(c.msg).hex(), c.hex);
  }
}

TEST(HmacKeyCtx, SecretKeyCtorMatchesRawKeyCtor) {
  lppa::Rng rng(9);
  const SecretKey key = SecretKey::generate(rng);
  const HmacKeyCtx a(key);
  const HmacKeyCtx b = HmacKeyCtx::from_raw_key(key.bytes());
  const Bytes msg = str_bytes("midstate");
  EXPECT_EQ(a.mac(msg), b.mac(msg));
}

TEST(HmacKeyCtx, MacU64MatchesOneShot) {
  lppa::Rng rng(10);
  const SecretKey key = SecretKey::generate(rng);
  const HmacKeyCtx ctx(key);
  for (std::uint64_t v : {0ull, 1ull, 0xffull, 0x0123456789abcdefull, ~0ull}) {
    EXPECT_EQ(ctx.mac_u64(v), hmac_sha256_u64(key, v)) << v;
  }
}

// Property: the batch API is digest-for-digest identical to per-call
// hmac_sha256_u64 for random keys and values — this is what lets
// prefix/hashed_set switch to the batched path without any behavioural
// review of its callers.
TEST(HmacBatch, EquivalentToPerCallForRandomKeysAndValues) {
  lppa::Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const SecretKey key = SecretKey::generate(rng);
    const std::size_t count = static_cast<std::size_t>(rng.below(65));
    std::vector<std::uint64_t> values(count);
    for (auto& v : values) v = rng.next();
    std::vector<Digest> batch(count);
    hmac_sha256_u64_batch(key, values, batch);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(batch[i], hmac_sha256_u64(key, values[i]))
          << "trial " << trial << " index " << i;
    }
  }
}

// mac_u64 and mac_u64_batch run the fixed two-block kernel; mac() over
// the same 8 little-endian bytes runs the generic Sha256 update/finalize
// path.  Batch sizes 0..17, 21, 38 and 64 cover every lane remainder and
// several full lane groups; the raw-key contexts (short, block-sized and
// oversized keys) cover from_raw_key's midstates.
TEST(HmacBatch, FixedTwoBlockKernelMatchesGenericMac) {
  lppa::Rng rng(14);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 17; ++n) sizes.push_back(n);
  sizes.insert(sizes.end(), {21, 38, 64});
  const auto generic = [](const HmacKeyCtx& ctx, std::uint64_t v) {
    std::uint8_t le[8];
    for (int i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    return ctx.mac(std::span<const std::uint8_t>(le, 8));
  };
  for (const std::size_t raw_len : {0, 20, 32, 64, 131}) {
    Bytes raw(raw_len);
    for (auto& b : raw) b = static_cast<std::uint8_t>(rng.below(256));
    const HmacKeyCtx ctxs[] = {HmacKeyCtx(SecretKey::generate(rng)),
                               HmacKeyCtx::from_raw_key(raw)};
    for (const HmacKeyCtx& ctx : ctxs) {
      for (const std::size_t n : sizes) {
        std::vector<std::uint64_t> values(n);
        for (auto& v : values) v = rng.next();
        std::vector<Digest> batch(n);
        ctx.mac_u64_batch(values, batch);
        for (std::size_t i = 0; i < n; ++i) {
          const Digest expect = generic(ctx, values[i]);
          EXPECT_EQ(batch[i], expect) << "raw key " << raw_len << " batch "
                                      << n << " index " << i;
          EXPECT_EQ(ctx.mac_u64(values[i]), expect);
        }
      }
    }
  }
}

// Both two-block kernels, whatever CPUID picks, against the RFC 2104
// construction over the generic path.  Midstates are built here from the
// key the way HmacKeyCtx builds them.
TEST(HmacKernel, ScalarAndShaNiTwoBlockKernelsMatchGenericMac) {
  lppa::Rng rng(15);
  for (int trial = 0; trial < 20; ++trial) {
    const SecretKey key = SecretKey::generate(rng);
    std::array<std::uint8_t, 64> ipad{}, opad{};
    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint8_t k = i < key.bytes().size() ? key.bytes()[i] : 0;
      ipad[i] = k ^ 0x36;
      opad[i] = k ^ 0x5c;
    }
    kernel::State inner = kernel::kInitialState;
    kernel::State outer = kernel::kInitialState;
    kernel::compress_scalar(inner, ipad.data(), 1);
    kernel::compress_scalar(outer, opad.data(), 1);

    const std::size_t n = 1 + rng.below(11);
    std::vector<std::uint64_t> values(n);
    for (auto& v : values) v = rng.next();
    std::vector<Digest> scalar(n);
    kernel::hmac_u64_scalar(inner, outer, values.data(), scalar.data(), n);
#ifdef LPPA_SHA_NI_DISPATCH
    std::vector<Digest> shani(n);
    if (kernel::sha_ni()) {
      kernel::hmac_u64_shani(inner, outer, values.data(), shani.data(), n);
    }
#endif
    for (std::size_t i = 0; i < n; ++i) {
      std::uint8_t le[8];
      for (int b = 0; b < 8; ++b) {
        le[b] = static_cast<std::uint8_t>(values[i] >> (8 * b));
      }
      const Digest expect =
          hmac_sha256(key, std::span<const std::uint8_t>(le, 8));
      EXPECT_EQ(scalar[i], expect) << "trial " << trial << " index " << i;
#ifdef LPPA_SHA_NI_DISPATCH
      if (kernel::sha_ni()) {
        EXPECT_EQ(shani[i], expect);
      }
#endif
    }
  }
}

TEST(HmacBatch, EmptyBatchIsANoop) {
  lppa::Rng rng(12);
  const SecretKey key = SecretKey::generate(rng);
  hmac_sha256_u64_batch(key, {}, {});
}

TEST(HmacBatch, MismatchedSpansThrow) {
  lppa::Rng rng(13);
  const SecretKey key = SecretKey::generate(rng);
  const std::uint64_t v = 7;
  std::vector<Digest> out(2);
  EXPECT_THROW(
      hmac_sha256_u64_batch(key, std::span<const std::uint64_t>(&v, 1), out),
      lppa::LppaError);
}

}  // namespace
}  // namespace lppa::crypto
