#include "crypto/hmac.h"

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
  inner_ = kernel::kInitialState;
  kernel::compress(inner_, pad.data(), 1);
  for (std::size_t i = 0; i < kBlockSize; ++i) pad[i] = padded_key[i] ^ 0x5c;
  outer_ = kernel::kInitialState;
  kernel::compress(outer_, pad.data(), 1);
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
  Sha256 outer = Sha256::resume(outer_, 1);
  outer.update(std::span<const std::uint8_t>(inner_digest.bytes));
  return outer.finalize();
}

Digest HmacKeyCtx::mac(std::span<const std::uint8_t> message) const noexcept {
  Sha256 inner = Sha256::resume(inner_, 1);
  inner.update(message);
  return finish_outer(inner.finalize());
}

Digest HmacKeyCtx::mac_u64(std::uint64_t value) const noexcept {
  Digest out;
  kernel::hmac_u64(inner_, outer_, &value, &out, 1);
  return out;
}

void HmacKeyCtx::mac_u64_batch(std::span<const std::uint64_t> values,
                               std::span<Digest> out) const {
  LPPA_REQUIRE(values.size() == out.size(),
               "hmac batch output span must match input size");
  kernel::hmac_u64(inner_, outer_, values.data(), out.data(), values.size());
}

HmacSha256::HmacSha256(const SecretKey& key) noexcept
    : HmacSha256(HmacKeyCtx(key)) {}

HmacSha256::HmacSha256(const HmacKeyCtx& ctx) noexcept
    : ctx_(ctx), inner_(Sha256::resume(ctx.inner_, 1)) {}

Digest HmacSha256::finalize() noexcept {
  return ctx_.finish_outer(inner_.finalize());
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

void hmac_sha256_u64_batch(const SecretKey& key,
                           std::span<const std::uint64_t> values,
                           std::span<Digest> out) {
  HmacKeyCtx(key).mac_u64_batch(values, out);
}

}  // namespace lppa::crypto
