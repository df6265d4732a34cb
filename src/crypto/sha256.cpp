#include "crypto/sha256.h"

#include <cstring>

#include "crypto/sha256_kernel.h"

namespace lppa::crypto {

Sha256::Sha256() noexcept { reset(); }

void Sha256::reset() noexcept {
  state_ = kernel::kInitialState;
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(std::string_view data) noexcept {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

void Sha256::update(std::span<const std::uint8_t> data) noexcept {
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      kernel::compress(state_, buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  if (const std::size_t blocks = (data.size() - offset) / 64; blocks > 0) {
    kernel::compress(state_, data.data() + offset, blocks);
    offset += 64 * blocks;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Sha256 Sha256::resume(const std::array<std::uint32_t, 8>& midstate,
                      std::uint64_t absorbed_blocks) noexcept {
  Sha256 h;
  h.state_ = midstate;
  h.total_len_ = 64 * absorbed_blocks;
  return h;
}

Digest Sha256::finalize() noexcept {
  const std::uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros, 64-bit big-endian length.
  std::uint8_t pad[72] = {0x80};
  const std::size_t pad_len =
      (buffer_len_ < 56) ? (56 - buffer_len_) : (120 - buffer_len_);
  update(std::span<const std::uint8_t>(pad, pad_len));
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  // Note: update() bumps total_len_, but we already captured bit_len.
  update(std::span<const std::uint8_t>(len_bytes, 8));

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out.bytes[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out.bytes[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out.bytes[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out.bytes[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest Sha256::hash(std::span<const std::uint8_t> data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

Digest Sha256::hash(std::string_view data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

bool Sha256::accelerated() noexcept { return kernel::sha_ni(); }

}  // namespace lppa::crypto
