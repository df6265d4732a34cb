#include "crypto/chacha20.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace lppa::crypto {

namespace {

inline void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                          std::uint32_t& d) noexcept {
  a += b; d ^= a; d = std::rotl(d, 16);
  c += d; b ^= c; b = std::rotl(b, 12);
  a += b; d ^= a; d = std::rotl(d, 8);
  c += d; b ^= c; b = std::rotl(b, 7);
}

inline std::uint32_t load32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

inline void store32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

// One keystream block's sixteen words.
void block_words(const ChaChaKey& key, const Nonce& nonce,
                 std::uint32_t counter, std::uint32_t (&out)[16]) noexcept {
  std::uint32_t state[16];
  // "expand 32-byte k"
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state[4 + i] = key[i];
  state[12] = counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = load32(nonce.data() + 4 * i);

  std::uint32_t x[16];
  for (int i = 0; i < 16; ++i) x[i] = state[i];
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) out[i] = x[i] + state[i];
}

}  // namespace

ChaChaKey chacha20_key(const SecretKey& key) noexcept {
  ChaChaKey words;
  const auto kb = key.bytes();
  for (int i = 0; i < 8; ++i) words[i] = load32(kb.data() + 4 * i);
  return words;
}

std::array<std::uint8_t, 64> chacha20_block(const SecretKey& key,
                                            const Nonce& nonce,
                                            std::uint32_t counter) {
  std::uint32_t words[16];
  block_words(chacha20_key(key), nonce, counter, words);
  std::array<std::uint8_t, 64> out;
  for (int i = 0; i < 16; ++i) store32(out.data() + 4 * i, words[i]);
  return out;
}

void chacha20_xor(const ChaChaKey& key, const Nonce& nonce,
                  std::uint32_t initial_counter, const std::uint8_t* in,
                  std::uint8_t* out, std::size_t n) noexcept {
  std::uint32_t counter = initial_counter;
  for (std::size_t offset = 0; offset < n; offset += 64) {
    std::uint32_t words[16];
    block_words(key, nonce, counter++, words);
    std::uint8_t block[64];
    for (int i = 0; i < 16; ++i) store32(block + 4 * i, words[i]);
    const std::size_t take = std::min<std::size_t>(64, n - offset);
    for (std::size_t i = 0; i < take; ++i) {
      out[offset + i] = in[offset + i] ^ block[i];
    }
  }
}

Bytes chacha20_xor(const SecretKey& key, const Nonce& nonce,
                   std::uint32_t initial_counter,
                   std::span<const std::uint8_t> data) {
  Bytes out(data.size());
  chacha20_xor(chacha20_key(key), nonce, initial_counter, data.data(),
               out.data(), data.size());
  return out;
}

}  // namespace lppa::crypto
