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
// Messages of at most 55 bytes go one step further: their inner and
// outer blocks are fixed-format (message | 0x80 | zeros | bit length,
// then inner digest | 0x80 | zeros | 768), so both are compressed
// straight from the midstates (crypto/sha256_kernel.h) — no Sha256
// copy, no update()/finalize().  mac_u64 builds an 8-byte value's block
// in registers; mac() and mac_batch() format short messages the same
// way.  On CPUs with the x86 SHA extensions a batch runs four MACs side
// by side and its remainder one at a time; every lane carries its own
// key, so one call mixes keys and a whole submission fills the lanes.
// For the per-digest costs (and how they spread from run to run) see
// docs/performance.md, "Submit phase".
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernel.h"

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

  /// HMAC over a full message, from the cached midstates.  Messages of
  /// up to kernel::kMaxOneBlockMessage (55) bytes take the fixed
  /// two-block kernel; longer ones stream.
  Digest mac(std::span<const std::uint8_t> message) const noexcept;

  /// One message as two parts MACed as their concatenation head‖tail
  /// (a sealed box's nonce and ciphertext), so callers need not copy
  /// them together.
  struct Message {
    std::span<const std::uint8_t> head;
    std::span<const std::uint8_t> tail;
  };

  /// *out[i] = HMAC(messages[i].head ‖ messages[i].tail).  Requires
  /// out.size() == messages.size().  The messages of up to 55 bytes run
  /// through the lane kernel together; longer ones stream.
  void mac_batch(std::span<const Message> messages,
                 std::span<Digest* const> out) const;

  /// HMAC over a single little-endian 64-bit integer — the numericalised
  /// prefix hot path; the fixed two-block kernel, one lane.
  Digest mac_u64(std::uint64_t value) const noexcept;

  /// Batched form of mac_u64: *out[i] = HMAC(*keys[i], values[i]).
  /// Requires all three spans to have one size.  Equivalent
  /// digest-for-digest to mac() over the 8 little-endian bytes (pinned
  /// by a property test).  One call hashes every set of a submission,
  /// whatever keys they use and wherever their digests go, so the lanes
  /// run full instead of ending each key's run with one to three single
  /// lanes.
  static void mac_u64_batch(std::span<const HmacKeyCtx* const> keys,
                            std::span<const std::uint64_t> values,
                            std::span<Digest* const> out);

 private:
  HmacKeyCtx() = default;
  void init(std::span<const std::uint8_t> padded_key) noexcept;
  /// HMAC over head‖tail through the streaming hash (any length).
  Digest mac_streaming(std::span<const std::uint8_t> head,
                       std::span<const std::uint8_t> tail) const noexcept;
  /// Finishes the outer hash over an inner digest.
  Digest finish_outer(const Digest& inner_digest) const noexcept;

  /// The chaining values after absorbing key ^ ipad and key ^ opad.
  kernel::KeyState key_{};
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

}  // namespace lppa::crypto
