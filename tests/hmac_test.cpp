#include "crypto/hmac.h"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "crypto/sha256_kernel.h"

namespace lppa::crypto {
namespace {

Bytes str_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

// The batch API with one key for every value: out[i] = HMAC(ctx, values[i]).
void mac_u64_batch_one_key(const HmacKeyCtx& ctx,
                           std::span<const std::uint64_t> values,
                           std::span<Digest> out) {
  const std::vector<const HmacKeyCtx*> keys(values.size(), &ctx);
  std::vector<Digest*> slots(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) slots[i] = &out[i];
  HmacKeyCtx::mac_u64_batch(keys, values, slots);
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

// A message MACed as two parts (HmacKeyCtx::Message, a sealed box's
// nonce‖ciphertext) equals the MAC of the whole.
TEST(HmacIncremental, ChunkSizeNeverMatters) {
  // Property: any split of the message into head and tail yields the
  // same MAC, on the streaming path (257 bytes) as on the one-block path.
  lppa::Rng rng(8);
  const SecretKey key = SecretKey::generate(rng);
  const HmacKeyCtx ctx(key);
  Bytes msg(257);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
  const std::span<const std::uint8_t> whole(msg);
  const Digest expected = hmac_sha256(key, msg);
  for (std::size_t split : {0u, 1u, 3u, 16u, 63u, 64u, 65u, 256u, 257u}) {
    const HmacKeyCtx::Message parts{whole.first(split), whole.subspan(split)};
    Digest out;
    Digest* const slot = &out;
    ctx.mac_batch(std::span<const HmacKeyCtx::Message>(&parts, 1),
                  std::span<Digest* const>(&slot, 1));
    EXPECT_EQ(out, expected) << "split " << split;
  }
}

TEST(HmacIncremental, MatchesOneShot) {
  lppa::Rng rng(7);
  const SecretKey key = SecretKey::generate(rng);
  const Bytes msg = str_bytes("split me into pieces");
  const std::span<const std::uint8_t> whole(msg);
  const HmacKeyCtx::Message parts{whole.first(6), whole.subspan(6)};
  Digest out;
  Digest* const slot = &out;
  HmacKeyCtx(key).mac_batch(std::span<const HmacKeyCtx::Message>(&parts, 1),
                            std::span<Digest* const>(&slot, 1));
  EXPECT_EQ(out, hmac_sha256(key, msg));
}

TEST(HmacIncremental, HeldContextMatchesKeyConstructor) {
  lppa::Rng rng(16);
  const SecretKey key = SecretKey::generate(rng);
  const HmacKeyCtx ctx(key);
  const Bytes msg = str_bytes("nonce||ciphertext");
  const HmacKeyCtx::Message parts{std::span<const std::uint8_t>(msg).first(5),
                                  std::span<const std::uint8_t>(msg).subspan(5)};
  Digest from_ctx;
  Digest* const slot = &from_ctx;
  ctx.mac_batch(std::span<const HmacKeyCtx::Message>(&parts, 1),
                std::span<Digest* const>(&slot, 1));
  EXPECT_EQ(from_ctx, hmac_sha256(key, msg));
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
    mac_u64_batch_one_key(HmacKeyCtx(key), values, batch);
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
        mac_u64_batch_one_key(ctx, values, batch);
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
    const kernel::KeyState state{inner, outer};
    const std::vector<const kernel::KeyState*> keys(n, &state);
    std::vector<Digest> scalar(n);
    std::vector<Digest*> scalar_out(n);
    for (std::size_t i = 0; i < n; ++i) scalar_out[i] = &scalar[i];
    kernel::hmac_u64_scalar(keys.data(), values.data(), scalar_out.data(), n);
#ifdef LPPA_SHA_NI_DISPATCH
    std::vector<Digest> shani(n);
    std::vector<Digest*> shani_out(n);
    for (std::size_t i = 0; i < n; ++i) shani_out[i] = &shani[i];
    if (kernel::sha_ni()) {
      kernel::hmac_u64_shani(keys.data(), values.data(), shani_out.data(), n);
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

// The key's midstates built here the way HmacKeyCtx builds them.
kernel::KeyState key_state(const SecretKey& key) {
  std::array<std::uint8_t, 64> ipad{}, opad{};
  for (std::size_t i = 0; i < 64; ++i) {
    const std::uint8_t b = i < key.bytes().size() ? key.bytes()[i] : 0;
    ipad[i] = b ^ 0x36;
    opad[i] = b ^ 0x5c;
  }
  kernel::KeyState st{kernel::kInitialState, kernel::kInitialState};
  kernel::compress_scalar(st.inner, ipad.data(), 1);
  kernel::compress_scalar(st.outer, opad.data(), 1);
  return st;
}

// RFC 2104 spelled out on the streaming Sha256: H(K^opad ‖ H(K^ipad ‖ m)).
Digest textbook_hmac(const SecretKey& key, std::span<const std::uint8_t> msg) {
  std::array<std::uint8_t, 64> ipad{}, opad{};
  for (std::size_t i = 0; i < 64; ++i) {
    const std::uint8_t k = i < key.bytes().size() ? key.bytes()[i] : 0;
    ipad[i] = k ^ 0x36;
    opad[i] = k ^ 0x5c;
  }
  Sha256 inner;
  inner.update(ipad);
  inner.update(msg);
  const Digest inner_digest = inner.finalize();
  Sha256 outer;
  outer.update(opad);
  outer.update(inner_digest.bytes);
  return outer.finalize();
}

// mac() takes the fixed two-block kernel up to 55 bytes and streams
// beyond; mac_batch() splits a message into head and tail.  Every
// length across the 55/56 boundary, every split, against the
// streaming HMAC; the one-block kernels, scalar and SHA-NI, directly.
TEST(HmacKeyCtx, ShortMessagePathMatchesStreaming) {
  lppa::Rng rng(41);
  for (int trial = 0; trial < 4; ++trial) {
    const SecretKey key = SecretKey::generate(rng);
    const HmacKeyCtx ctx(key);
    const kernel::KeyState state = key_state(key);
    for (std::size_t len = 0; len <= 64; ++len) {
      Bytes msg(len);
      for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
      const Digest expect = textbook_hmac(key, msg);
      EXPECT_EQ(ctx.mac(msg), expect) << "length " << len;
      if (len <= kernel::kMaxOneBlockMessage) {
        kernel::Block block;
        kernel::format_block(msg.data(), len, nullptr, 0, block);
        Digest scalar;
        Digest* const scalar_slot = &scalar;
        kernel::hmac_block_scalar(state, &block, &scalar_slot, 1);
        EXPECT_EQ(scalar, expect) << "scalar, length " << len;
#ifdef LPPA_SHA_NI_DISPATCH
        if (kernel::sha_ni()) {
          Digest shani;
          Digest* const shani_slot = &shani;
          kernel::hmac_block_shani(state, &block, &shani_slot, 1);
          EXPECT_EQ(shani, expect) << "SHA-NI, length " << len;
        }
#endif
      }

      std::vector<HmacKeyCtx::Message> parts;
      for (std::size_t split = 0; split <= len; ++split) {
        const std::span<const std::uint8_t> whole(msg);
        parts.push_back({whole.first(split), whole.subspan(split)});
      }
      std::vector<Digest> out(parts.size());
      std::vector<Digest*> slots;
      for (auto& d : out) slots.push_back(&d);
      ctx.mac_batch(parts, slots);
      for (std::size_t split = 0; split < out.size(); ++split) {
        EXPECT_EQ(out[split], expect) << "length " << len << " split " << split;
      }
    }
  }
}

// One multi-key batch: lane l under its own key, lane counts 0..9 so the
// 4-lane groups and the single-lane tail both mix keys; the scalar and
// SHA-NI kernels against one mac_u64 per key.
TEST(HmacKernel, PerLaneKeysMatchPerKeyMacs) {
  lppa::Rng rng(43);
  std::vector<HmacKeyCtx> ctxs;
  std::vector<kernel::KeyState> states;
  for (int k = 0; k < 3; ++k) {
    const SecretKey key = SecretKey::generate(rng);
    ctxs.emplace_back(key);
    states.push_back(key_state(key));
  }
  // Key mixes: all one key, alternating, runs of two, random.
  const std::vector<std::function<std::size_t(std::size_t)>> mixes = {
      [](std::size_t) { return std::size_t{0}; },
      [](std::size_t i) { return i % 2; },
      [](std::size_t i) { return (i / 2) % 3; },
      [&](std::size_t) { return static_cast<std::size_t>(rng.below(3)); }};
  for (const auto& mix : mixes) {
    for (std::size_t n = 0; n <= 9; ++n) {
      std::vector<std::size_t> which(n);
      std::vector<std::uint64_t> values(n);
      for (std::size_t i = 0; i < n; ++i) {
        which[i] = mix(i);
        values[i] = rng.next();
      }
      std::vector<const kernel::KeyState*> keys(n);
      std::vector<const HmacKeyCtx*> key_ctxs(n);
      for (std::size_t i = 0; i < n; ++i) {
        keys[i] = &states[which[i]];
        key_ctxs[i] = &ctxs[which[i]];
      }
      std::vector<Digest> scalar(n), shani(n), api(n);
      std::vector<Digest*> scalar_out(n), shani_out(n), api_out(n);
      for (std::size_t i = 0; i < n; ++i) {
        scalar_out[i] = &scalar[i];
        shani_out[i] = &shani[i];
        api_out[i] = &api[i];
      }
      kernel::hmac_u64_scalar(keys.data(), values.data(), scalar_out.data(), n);
      HmacKeyCtx::mac_u64_batch(key_ctxs, values, api_out);
#ifdef LPPA_SHA_NI_DISPATCH
      if (kernel::sha_ni()) {
        kernel::hmac_u64_shani(keys.data(), values.data(), shani_out.data(), n);
      }
#endif
      for (std::size_t i = 0; i < n; ++i) {
        const Digest expect = ctxs[which[i]].mac_u64(values[i]);
        EXPECT_EQ(scalar[i], expect) << "n " << n << " lane " << i;
        EXPECT_EQ(api[i], expect) << "n " << n << " lane " << i;
#ifdef LPPA_SHA_NI_DISPATCH
        if (kernel::sha_ni()) {
          EXPECT_EQ(shani[i], expect) << "n " << n << " lane " << i;
        }
#endif
      }
    }
  }
}

TEST(HmacBatch, EmptyBatchIsANoop) {
  lppa::Rng rng(12);
  const SecretKey key = SecretKey::generate(rng);
  mac_u64_batch_one_key(HmacKeyCtx(key), {}, {});
}

TEST(HmacBatch, MismatchedSpansThrow) {
  lppa::Rng rng(13);
  const SecretKey key = SecretKey::generate(rng);
  const std::uint64_t v = 7;
  std::vector<Digest> out(2);
  EXPECT_THROW(
      mac_u64_batch_one_key(HmacKeyCtx(key),
                            std::span<const std::uint64_t>(&v, 1), out),
      lppa::LppaError);
}

}  // namespace
}  // namespace lppa::crypto
