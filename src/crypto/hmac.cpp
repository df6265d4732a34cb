#include "crypto/hmac.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "crypto/sha256_kernel.h"

namespace lppa::crypto {

namespace {
constexpr std::size_t kBlockSize = 64;
}

void HmacKeyCtx::init(std::span<const std::uint8_t> padded_key) noexcept {
  std::array<std::uint8_t, kBlockSize> pad;
  for (std::size_t i = 0; i < kBlockSize; ++i) pad[i] = padded_key[i] ^ 0x36;
  key_.inner = kernel::kInitialState;
  kernel::compress(key_.inner, pad.data(), 1);
  for (std::size_t i = 0; i < kBlockSize; ++i) pad[i] = padded_key[i] ^ 0x5c;
  key_.outer = kernel::kInitialState;
  kernel::compress(key_.outer, pad.data(), 1);
}

HmacKeyCtx::HmacKeyCtx(const SecretKey& key) noexcept {
  // Keys are always 32 bytes (< block size), so no pre-hashing needed.
  std::array<std::uint8_t, kBlockSize> padded{};
  const auto kb = key.bytes();
  std::memcpy(padded.data(), kb.data(), kb.size());
  init(padded);
}

HmacKeyCtx HmacKeyCtx::from_raw_key(
    std::span<const std::uint8_t> key) noexcept {
  std::array<std::uint8_t, kBlockSize> padded{};
  if (key.size() > kBlockSize) {
    const Digest hashed = Sha256::hash(key);
    std::memcpy(padded.data(), hashed.bytes.data(), hashed.bytes.size());
  } else {
    std::memcpy(padded.data(), key.data(), key.size());
  }
  HmacKeyCtx ctx;
  ctx.init(padded);
  return ctx;
}

Digest HmacKeyCtx::finish_outer(const Digest& inner_digest) const noexcept {
  Sha256 outer = Sha256::resume(key_.outer, 1);
  outer.update(std::span<const std::uint8_t>(inner_digest.bytes));
  return outer.finalize();
}

Digest HmacKeyCtx::mac_streaming(
    std::span<const std::uint8_t> head,
    std::span<const std::uint8_t> tail) const noexcept {
  Sha256 inner = Sha256::resume(key_.inner, 1);
  inner.update(head);
  inner.update(tail);
  return finish_outer(inner.finalize());
}

Digest HmacKeyCtx::mac(std::span<const std::uint8_t> message) const noexcept {
  const Message one{message, {}};
  Digest out;
  Digest* const slot = &out;
  mac_batch(std::span<const Message>(&one, 1),
            std::span<Digest* const>(&slot, 1));
  return out;
}

void HmacKeyCtx::mac_batch(std::span<const Message> messages,
                           std::span<Digest* const> out) const {
  LPPA_REQUIRE(messages.size() == out.size(),
               "hmac batch output span must match input size");
  // Short messages gather into a stack batch of formatted blocks, one
  // lane group at a time; each digest goes straight to its slot.
  constexpr std::size_t kChunk = kernel::kHmacLanes;
  kernel::Block blocks[kChunk];
  Digest* slots[kChunk];
  std::size_t pending = 0;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const Message& m = messages[i];
    if (m.head.size() + m.tail.size() > kernel::kMaxOneBlockMessage) {
      *out[i] = mac_streaming(m.head, m.tail);
      continue;
    }
    kernel::format_block(m.head.data(), m.head.size(), m.tail.data(),
                         m.tail.size(), blocks[pending]);
    slots[pending++] = out[i];
    if (pending == kChunk) {
      kernel::hmac_block(key_, blocks, slots, pending);
      pending = 0;
    }
  }
  if (pending != 0) kernel::hmac_block(key_, blocks, slots, pending);
}

Digest HmacKeyCtx::mac_u64(std::uint64_t value) const noexcept {
  Digest out;
  const kernel::KeyState* const key = &key_;
  Digest* const slot = &out;
  kernel::hmac_u64(&key, &value, &slot, 1);
  return out;
}

void HmacKeyCtx::mac_u64_batch(std::span<const HmacKeyCtx* const> keys,
                               std::span<const std::uint64_t> values,
                               std::span<Digest* const> out) {
  LPPA_REQUIRE(keys.size() == values.size() && values.size() == out.size(),
               "hmac batch key, value and output spans must match");
  // The kernel takes key states, not contexts: map them a chunk at a
  // time (a multiple of the lane count, so chunks keep full lanes).
  constexpr std::size_t kChunk = 16 * kernel::kHmacLanes;
  const kernel::KeyState* states[kChunk];
  for (std::size_t i = 0; i < values.size(); i += kChunk) {
    const std::size_t m = std::min(kChunk, values.size() - i);
    for (std::size_t j = 0; j < m; ++j) states[j] = &keys[i + j]->key_;
    kernel::hmac_u64(states, values.data() + i, out.data() + i, m);
  }
}

Digest hmac_sha256(const SecretKey& key, std::span<const std::uint8_t> message) {
  return HmacKeyCtx(key).mac(message);
}

Digest hmac_sha256_raw_key(std::span<const std::uint8_t> key,
                           std::span<const std::uint8_t> message) {
  return HmacKeyCtx::from_raw_key(key).mac(message);
}

Digest hmac_sha256(const SecretKey& key, std::string_view message) {
  return hmac_sha256(
      key, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(message.data()),
               message.size()));
}

Digest hmac_sha256_u64(const SecretKey& key, std::uint64_t value) {
  return HmacKeyCtx(key).mac_u64(value);
}

}  // namespace lppa::crypto
