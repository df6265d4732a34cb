#include "crypto/sha256_kernel.h"

#include <bit>
#include <cstring>

#ifdef LPPA_SHA_NI_DISPATCH
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace lppa::crypto::kernel {

namespace {

alignas(16) constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

// Bit lengths of the two fixed HMAC blocks' messages: one key block plus
// the 8-byte value, one key block plus the 32-byte inner digest.
constexpr std::uint32_t kInnerBits = (64 + 8) * 8;
constexpr std::uint32_t kOuterBits = (64 + 32) * 8;
constexpr std::uint32_t kPadWord = 0x80000000u;

inline std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) << 24 |
         static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 | static_cast<std::uint32_t>(p[3]);
}

// One compression over a block given as its sixteen big-endian words.
void compress_words(State& state, const std::uint32_t (&block)[16]) noexcept {
  using std::rotr;
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) w[i] = block[i];
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  state[0] += a; state[1] += b; state[2] += c; state[3] += d;
  state[4] += e; state[5] += f; state[6] += g; state[7] += h;
}

// The inner block of an 8-byte value as its sixteen big-endian words.
void u64_block_words(std::uint64_t v, std::uint32_t (&w)[16]) noexcept {
  for (std::uint32_t& word : w) word = 0;
  w[0] = __builtin_bswap32(static_cast<std::uint32_t>(v));
  w[1] = __builtin_bswap32(static_cast<std::uint32_t>(v >> 32));
  w[2] = kPadWord;
  w[15] = kInnerBits;
}

// One HMAC from its key's midstates and its inner block's words.
void hmac_words(const KeyState& key, const std::uint32_t (&inner_block)[16],
                Digest& out) noexcept {
  State s = key.inner;
  compress_words(s, inner_block);
  const std::uint32_t outer_block[16] = {
      s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
      kPadWord, 0, 0, 0, 0, 0, 0, kOuterBits};
  s = key.outer;
  compress_words(s, outer_block);
  for (int j = 0; j < 8; ++j) {
    out.bytes[4 * j] = static_cast<std::uint8_t>(s[j] >> 24);
    out.bytes[4 * j + 1] = static_cast<std::uint8_t>(s[j] >> 16);
    out.bytes[4 * j + 2] = static_cast<std::uint8_t>(s[j] >> 8);
    out.bytes[4 * j + 3] = static_cast<std::uint8_t>(s[j]);
  }
}

#ifdef LPPA_SHA_NI_DISPATCH

#define LPPA_SHANI_INLINE LPPA_SHA_NI_TARGET __attribute__((always_inline)) inline

bool detect_sha_ni() noexcept {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  const bool sha = (b >> 29) & 1u;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
  const bool ssse3 = (c >> 9) & 1u;
  const bool sse41 = (c >> 19) & 1u;
  return sha && ssse3 && sse41;
}

const bool kHasShaNi = detect_sha_ni();

// Register layout follows Intel's reference: `abef` holds {A,B,E,F} and
// `cdgh` holds {C,D,G,H} (highest lane first); a block is four registers
// of big-endian words W[4j..4j+3], lowest word in lane 0.

// State words A..H -> {ABEF, CDGH}.
LPPA_SHANI_INLINE void load_state(const State& state, __m128i& abef,
                                  __m128i& cdgh) noexcept {
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  dcba = _mm_shuffle_epi32(dcba, 0xB1);  // CDAB
  hgfe = _mm_shuffle_epi32(hgfe, 0x1B);  // EFGH
  abef = _mm_alignr_epi8(dcba, hgfe, 8);
  cdgh = _mm_blend_epi16(hgfe, dcba, 0xF0);
}

// {ABEF, CDGH} -> state words A..H.
LPPA_SHANI_INLINE void store_state(__m128i abef, __m128i cdgh,
                                   State& state) noexcept {
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}

// The 64 rounds of one block in each of L independent lanes, without the
// final feed-forward (callers add the chaining value they started from).
// sha256rnds2 does two rounds; sha256msg1/msg2 extend the schedule in
// place through w[l][0..3].  The lane loop is innermost so consecutive
// round instructions belong to different lanes.
template <int L>
LPPA_SHANI_INLINE void rounds(__m128i (&abef)[L], __m128i (&cdgh)[L],
                              __m128i (&w)[L][4]) noexcept {
#pragma GCC unroll 16
  for (int g = 0; g < 16; ++g) {
    const __m128i k = _mm_load_si128(
        reinterpret_cast<const __m128i*>(&kRoundConstants[4 * g]));
#pragma GCC unroll 4
    for (int l = 0; l < L; ++l) {
      const __m128i x0 = w[l][g & 3];
      __m128i msg = _mm_add_epi32(x0, k);
      cdgh[l] = _mm_sha256rnds2_epu32(cdgh[l], abef[l], msg);
      if (g >= 3 && g < 15) {
        // W[4(g+1)..4(g+1)+3] = msg2(msg1-partial + W[i-7] terms, x0).
        const __m128i w_im7 = _mm_alignr_epi8(x0, w[l][(g + 3) & 3], 4);
        w[l][(g + 1) & 3] =
            _mm_sha256msg2_epu32(_mm_add_epi32(w[l][(g + 1) & 3], w_im7), x0);
      }
      msg = _mm_shuffle_epi32(msg, 0x0E);
      abef[l] = _mm_sha256rnds2_epu32(abef[l], cdgh[l], msg);
      if (g >= 1 && g < 13) {
        w[l][(g + 3) & 3] = _mm_sha256msg1_epu32(w[l][(g + 3) & 3], x0);
      }
    }
  }
}

// {ABEF, CDGH} -> the digest's words {A,B,C,D} and {E,F,G,H}, lowest
// word in lane 0 — the first two message registers of a block that
// starts with this digest.
LPPA_SHANI_INLINE __m128i words_abcd(__m128i abef, __m128i cdgh) noexcept {
  return _mm_shuffle_epi32(_mm_unpackhi_epi64(cdgh, abef), 0x1B);
}
LPPA_SHANI_INLINE __m128i words_efgh(__m128i abef, __m128i cdgh) noexcept {
  return _mm_shuffle_epi32(_mm_unpacklo_epi64(cdgh, abef), 0x1B);
}

// One key's two midstates in register layout.
struct Midstates {
  __m128i inner_abef, inner_cdgh, outer_abef, outer_cdgh;
};

LPPA_SHANI_INLINE Midstates load_midstates(const KeyState& key) noexcept {
  Midstates mid;
  load_state(key.inner, mid.inner_abef, mid.inner_cdgh);
  load_state(key.outer, mid.outer_abef, mid.outer_cdgh);
  return mid;
}

// L MACs: lane l starts from mid[l] with its inner block in w[l] and
// writes *out[l].
template <int L>
LPPA_SHANI_INLINE void hmac_lanes(const Midstates (&mid)[L],
                                  __m128i (&w)[L][4],
                                  Digest* const* out) noexcept {
  // Reverses all 16 bytes: {D,C,B,A} words -> A..D as big-endian bytes.
  const __m128i reverse =
      _mm_set_epi64x(0x0001020304050607ULL, 0x08090a0b0c0d0e0fULL);

  __m128i abef[L], cdgh[L];
#pragma GCC unroll 4
  for (int l = 0; l < L; ++l) {
    abef[l] = mid[l].inner_abef;
    cdgh[l] = mid[l].inner_cdgh;
  }
  rounds<L>(abef, cdgh, w);
#pragma GCC unroll 4
  for (int l = 0; l < L; ++l) {
    // Outer block: W0..W7 = the inner digest, W8 = 0x80 pad, W15 = 768.
    const __m128i a = _mm_add_epi32(abef[l], mid[l].inner_abef);
    const __m128i c = _mm_add_epi32(cdgh[l], mid[l].inner_cdgh);
    w[l][0] = words_abcd(a, c);
    w[l][1] = words_efgh(a, c);
    w[l][2] = _mm_set_epi32(0, 0, 0, static_cast<int>(kPadWord));
    w[l][3] = _mm_set_epi32(kOuterBits, 0, 0, 0);
    abef[l] = mid[l].outer_abef;
    cdgh[l] = mid[l].outer_cdgh;
  }
  rounds<L>(abef, cdgh, w);
#pragma GCC unroll 4
  for (int l = 0; l < L; ++l) {
    const __m128i a = _mm_add_epi32(abef[l], mid[l].outer_abef);
    const __m128i c = _mm_add_epi32(cdgh[l], mid[l].outer_cdgh);
    auto* bytes = reinterpret_cast<__m128i*>(out[l]->bytes.data());
    _mm_storeu_si128(bytes,
                     _mm_shuffle_epi8(_mm_unpackhi_epi64(c, a), reverse));
    _mm_storeu_si128(bytes + 1,
                     _mm_shuffle_epi8(_mm_unpacklo_epi64(c, a), reverse));
  }
}

// Key sources for hmac_batch: one key for every MAC, or one per MAC.
struct OneKey {
  Midstates mid;
  LPPA_SHANI_INLINE Midstates operator()(std::size_t) const noexcept {
    return mid;
  }
};
struct KeyPerMac {
  const KeyState* const* keys;
  LPPA_SHANI_INLINE Midstates operator()(std::size_t i) const noexcept {
    return load_midstates(*keys[i]);
  }
};

// Inner-block sources for hmac_batch, as four registers of big-endian
// words.  Byte-swapping each 32-bit word of a little-endian load gives
// the big-endian words.
struct U64Blocks {
  const std::uint64_t* values;
  LPPA_SHANI_INLINE void operator()(std::size_t i,
                                    __m128i (&w)[4]) const noexcept {
    // W0,W1 = the value's bytes, W2 = 0x80 pad, W15 = 576.
    const __m128i bswap32 =
        _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
    const __m128i value = _mm_shuffle_epi8(
        _mm_cvtsi64_si128(static_cast<long long>(values[i])), bswap32);
    w[0] = _mm_or_si128(
        value, _mm_set_epi32(0, static_cast<int>(kPadWord), 0, 0));
    w[1] = _mm_setzero_si128();
    w[2] = _mm_setzero_si128();
    w[3] = _mm_set_epi32(kInnerBits, 0, 0, 0);
  }
};
struct FormattedBlocks {
  const Block* blocks;
  LPPA_SHANI_INLINE void operator()(std::size_t i,
                                    __m128i (&w)[4]) const noexcept {
    const __m128i bswap32 =
        _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
    for (int j = 0; j < 4; ++j) {
      w[j] = _mm_shuffle_epi8(
          _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(blocks[i].data() + 16 * j)),
          bswap32);
    }
  }
};

// n MACs, kHmacLanes at a time, then the remainder one lane at a time;
// MAC i goes to *out[i].
template <class KeyAt, class BlockAt>
LPPA_SHANI_INLINE void hmac_batch(const KeyAt& key_at, const BlockAt& block_at,
                                  Digest* const* out, std::size_t n) noexcept {
  constexpr int kLanes = static_cast<int>(kHmacLanes);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    Midstates mid[kLanes];
    __m128i w[kLanes][4];
#pragma GCC unroll 4
    for (int l = 0; l < kLanes; ++l) {
      mid[l] = key_at(i + l);
      block_at(i + l, w[l]);
    }
    hmac_lanes<kLanes>(mid, w, out + i);
  }
  for (; i < n; ++i) {
    Midstates mid[1] = {key_at(i)};
    __m128i w[1][4];
    block_at(i, w[0]);
    hmac_lanes<1>(mid, w, out + i);
  }
}

#endif  // LPPA_SHA_NI_DISPATCH

}  // namespace

bool sha_ni() noexcept {
#ifdef LPPA_SHA_NI_DISPATCH
  return kHasShaNi;
#else
  return false;
#endif
}

void compress(State& state, const std::uint8_t* data,
              std::size_t blocks) noexcept {
#ifdef LPPA_SHA_NI_DISPATCH
  if (kHasShaNi) {
    compress_shani(state, data, blocks);
    return;
  }
#endif
  compress_scalar(state, data, blocks);
}

void hmac_u64(const KeyState* const* keys, const std::uint64_t* values,
              Digest* const* out, std::size_t n) noexcept {
#ifdef LPPA_SHA_NI_DISPATCH
  if (kHasShaNi) {
    hmac_u64_shani(keys, values, out, n);
    return;
  }
#endif
  hmac_u64_scalar(keys, values, out, n);
}

void hmac_block(const KeyState& key, const Block* blocks, Digest* const* out,
                std::size_t n) noexcept {
#ifdef LPPA_SHA_NI_DISPATCH
  if (kHasShaNi) {
    hmac_block_shani(key, blocks, out, n);
    return;
  }
#endif
  hmac_block_scalar(key, blocks, out, n);
}

void format_block(const std::uint8_t* head, std::size_t head_len,
                  const std::uint8_t* tail, std::size_t tail_len,
                  Block& block) noexcept {
  const std::size_t len = head_len + tail_len;
  block.fill(0);
  if (head_len != 0) std::memcpy(block.data(), head, head_len);
  if (tail_len != 0) std::memcpy(block.data() + head_len, tail, tail_len);
  block[len] = 0x80;
  const std::uint64_t bits = (64 + len) * 8;
  for (int i = 0; i < 8; ++i) {
    block[56 + i] = static_cast<std::uint8_t>(bits >> (8 * (7 - i)));
  }
}

void compress_scalar(State& state, const std::uint8_t* data,
                     std::size_t blocks) noexcept {
  for (std::size_t b = 0; b < blocks; ++b, data += 64) {
    std::uint32_t w[16];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(data + 4 * i);
    compress_words(state, w);
  }
}

void hmac_u64_scalar(const KeyState* const* keys, const std::uint64_t* values,
                     Digest* const* out, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t w[16];
    u64_block_words(values[i], w);
    hmac_words(*keys[i], w, *out[i]);
  }
}

void hmac_block_scalar(const KeyState& key, const Block* blocks,
                       Digest* const* out, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t w[16];
    for (int j = 0; j < 16; ++j) w[j] = load_be32(blocks[i].data() + 4 * j);
    hmac_words(key, w, *out[i]);
  }
}

#ifdef LPPA_SHA_NI_DISPATCH

LPPA_SHA_NI_TARGET void compress_shani(State& state, const std::uint8_t* data,
                                       std::size_t blocks) noexcept {
  const __m128i bswap32 =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i abef[1], cdgh[1];
  load_state(state, abef[0], cdgh[0]);
  for (std::size_t b = 0; b < blocks; ++b, data += 64) {
    __m128i w[1][4];
    for (int j = 0; j < 4; ++j) {
      w[0][j] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * j)),
          bswap32);
    }
    const __m128i abef_save = abef[0];
    const __m128i cdgh_save = cdgh[0];
    rounds<1>(abef, cdgh, w);
    abef[0] = _mm_add_epi32(abef[0], abef_save);
    cdgh[0] = _mm_add_epi32(cdgh[0], cdgh_save);
  }
  store_state(abef[0], cdgh[0], state);
}

LPPA_SHA_NI_TARGET void hmac_u64_shani(const KeyState* const* keys,
                                       const std::uint64_t* values,
                                       Digest* const* out,
                                       std::size_t n) noexcept {
  hmac_batch(KeyPerMac{keys}, U64Blocks{values}, out, n);
}

LPPA_SHA_NI_TARGET void hmac_block_shani(const KeyState& key,
                                         const Block* blocks,
                                         Digest* const* out,
                                         std::size_t n) noexcept {
  hmac_batch(OneKey{load_midstates(key)}, FormattedBlocks{blocks}, out, n);
}

#endif  // LPPA_SHA_NI_DISPATCH

}  // namespace lppa::crypto::kernel
