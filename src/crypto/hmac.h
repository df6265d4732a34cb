// HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//
// This is the masking function the PPBS protocol applies to numericalised
// prefixes: H_g(x) = HMAC_g(O(x)).  The auctioneer only ever compares
// digests for equality, so HMAC's PRF property is exactly the hiding the
// scheme needs.
//
// Hot-path note: a one-shot HMAC over a short message costs 4 SHA-256
// compressions — ipad block, inner finalise, opad block, outer finalise.
// Every prefix family / range cover hashes dozens of 8-byte messages
// under the SAME key, so HmacKeyCtx absorbs the ipad and opad blocks once
// per key and keeps the two midstates, cutting the steady-state cost to
// 2 compressions per digest.  All entry points below (including the
// RFC-vector raw-key path) are built on the midstate cache, so the RFC
// 4231 suite exercises it directly.
//
// mac_u64 / mac_u64_batch go one step further: an 8-byte message makes
// the inner and outer blocks fixed-format (value | 0x80 | zeros | 576,
// then inner digest | 0x80 | zeros | 768), so both are built in
// registers and compressed straight from the midstates
// (crypto/sha256_kernel.h) — no Sha256 copy, no update()/finalize().
// On CPUs with the x86 SHA extensions the batch runs four MACs side by
// side and its remainder one at a time.  On a 4-vCPU Xeon with SHA-NI
// that takes a batched digest from ~200 ns (two Sha256 copies plus the
// generic padding) to ~49 ns; see docs/performance.md, "Submit phase".
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "crypto/keys.h"
#include "crypto/sha256.h"

namespace lppa::crypto {

/// Per-key HMAC context: the SHA-256 midstates after absorbing the ipad
/// and opad blocks.  Construction costs 2 compressions; each mac() then
/// costs 2 (for messages up to 55 bytes) instead of the one-shot 4.
/// Immutable after construction, so one context can be shared freely
/// across threads; 64 bytes, so cheap to cache per key.
class HmacKeyCtx {
 public:
  /// Protocol keys are always 32 bytes (< block size): zero-padded.
  explicit HmacKeyCtx(const SecretKey& key) noexcept;

  /// RFC 2104 key handling for arbitrary-length raw keys: longer than the
  /// 64-byte block are pre-hashed, shorter ones zero-padded.  Exists so
  /// the RFC 4231 vectors (short and oversized keys) run through the
  /// midstate-cached path.
  static HmacKeyCtx from_raw_key(std::span<const std::uint8_t> key) noexcept;

  /// HMAC over a full message, from the cached midstates.
  Digest mac(std::span<const std::uint8_t> message) const noexcept;

  /// HMAC over a single little-endian 64-bit integer — the numericalised
  /// prefix hot path; the fixed two-block kernel, one lane.
  Digest mac_u64(std::uint64_t value) const noexcept;

  /// Batched form of mac_u64: out[i] = HMAC(key, values[i]).  Requires
  /// out.size() == values.size().  Equivalent digest-for-digest to mac()
  /// over the 8 little-endian bytes (pinned by a property test); callers
  /// hashing a whole prefix family make one call so the kernel can run
  /// its lanes.
  void mac_u64_batch(std::span<const std::uint64_t> values,
                     std::span<Digest> out) const;

 private:
  friend class HmacSha256;

  HmacKeyCtx() = default;
  void init(std::span<const std::uint8_t> padded_key) noexcept;
  /// Finishes the outer hash over an inner digest.
  Digest finish_outer(const Digest& inner_digest) const noexcept;

  std::array<std::uint32_t, 8> inner_{};  ///< after absorbing key ^ ipad
  std::array<std::uint32_t, 8> outer_{};  ///< after absorbing key ^ opad
};

/// One-shot HMAC-SHA-256 over a byte message.
Digest hmac_sha256(const SecretKey& key, std::span<const std::uint8_t> message);

/// HMAC-SHA-256 with an arbitrary-length raw key (RFC 2104 key handling:
/// keys longer than the block are pre-hashed, shorter ones zero-padded).
/// The protocol always uses 32-byte SecretKeys; this entry point exists
/// so the implementation can be validated against the RFC 4231 vectors,
/// which exercise short and oversized keys.
Digest hmac_sha256_raw_key(std::span<const std::uint8_t> key,
                           std::span<const std::uint8_t> message);

/// Convenience overload for string messages (test vectors).
Digest hmac_sha256(const SecretKey& key, std::string_view message);

/// HMAC over a single little-endian 64-bit integer — the hot path for
/// hashing numericalised prefixes.  One-shot; callers with more than one
/// value per key should hold an HmacKeyCtx or use the batch API.
Digest hmac_sha256_u64(const SecretKey& key, std::uint64_t value);

/// out[i] = HMAC(key, values[i]); requires out.size() == values.size().
void hmac_sha256_u64_batch(const SecretKey& key,
                           std::span<const std::uint64_t> values,
                           std::span<Digest> out);

/// Incremental HMAC, for the SealedBox MAC over header+ciphertext.
class HmacSha256 {
 public:
  explicit HmacSha256(const SecretKey& key) noexcept;
  /// Starts from a held context: no key schedule.
  explicit HmacSha256(const HmacKeyCtx& ctx) noexcept;

  void update(std::span<const std::uint8_t> data) noexcept {
    inner_.update(data);
  }
  Digest finalize() noexcept;

 private:
  HmacKeyCtx ctx_;
  Sha256 inner_;
};

}  // namespace lppa::crypto
