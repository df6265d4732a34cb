// SHA-256 compression kernels, internal to lppa_crypto.
//
// Two users share them: the streaming Sha256 (any message, any length)
// and HmacKeyCtx's fixed-format MACs.  An HMAC of a message of at most
// 55 bytes from cached ipad/opad midstates is exactly two blocks whose
// layout is known in advance:
//
//   inner block: message | 0x80 | zeros | bit length (64 + len) * 8
//   outer block: inner digest (32) | 0x80 | zeros | bit length 768
//
// so the hmac_* kernels compress both straight from the midstates, with
// no Sha256 object, buffering or generic padding.  hmac_u64 builds the
// inner block of an 8-byte value in registers; hmac_block takes inner
// blocks the caller formatted.  The SHA-NI kernel interleaves kHmacLanes
// independent MACs so the round instructions of one lane fill the
// latency of another; each lane may use its own key, so one call can
// hash a whole submission across keys.  A batch's remainder runs one
// lane at a time.
//
// Dispatch is on CPUID alone: the SHA-NI kernels run when the CPU has the
// x86 SHA extensions (plus SSSE3/SSE4.1), the portable kernels otherwise.
// Both compute the same FIPS 180-4 function bit for bit.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/sha256.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define LPPA_SHA_NI_DISPATCH 1
#define LPPA_SHA_NI_TARGET __attribute__((target("sha,sse4.1,ssse3")))
#endif

namespace lppa::crypto::kernel {

/// The eight working words A..H of a SHA-256 chaining value.
using State = std::array<std::uint32_t, 8>;

inline constexpr State kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

/// One HMAC key: the chaining values after its ipad and opad blocks.
struct KeyState {
  State inner;
  State outer;
};

/// MACs the SHA-NI HMAC kernel computes side by side.
inline constexpr std::size_t kHmacLanes = 4;

/// Longest message whose HMAC inner hash is one block: 64 bytes less the
/// 0x80 pad byte and the 8-byte bit length.
inline constexpr std::size_t kMaxOneBlockMessage = 55;

/// A formatted inner block: message | 0x80 | zeros | (64 + len) * 8 as a
/// big-endian u64 (format_block builds it).
using Block = std::array<std::uint8_t, 64>;

/// Formats a message of at most kMaxOneBlockMessage bytes, given as two
/// parts hashed as their concatenation, into its inner block.
void format_block(const std::uint8_t* head, std::size_t head_len,
                  const std::uint8_t* tail, std::size_t tail_len,
                  Block& block) noexcept;

/// True when this CPU runs the SHA-NI kernels (CPUID, read once).
bool sha_ni() noexcept;

/// Compresses `blocks` consecutive 64-byte blocks of `data` into `state`
/// on whichever kernel CPUID picked.
void compress(State& state, const std::uint8_t* data,
              std::size_t blocks) noexcept;

/// *out[i] = HMAC-SHA-256 under *keys[i] over the 8 little-endian bytes
/// of values[i]: each MAC has its own key and its own destination, so
/// one call can fill several sets under several keys.  Dispatched like
/// compress().
void hmac_u64(const KeyState* const* keys, const std::uint64_t* values,
              Digest* const* out, std::size_t n) noexcept;

/// *out[i] = HMAC-SHA-256 under `key` of the message formatted in
/// blocks[i]; dispatched like compress().
void hmac_block(const KeyState& key, const Block* blocks, Digest* const* out,
                std::size_t n) noexcept;

/// The portable kernels.
void compress_scalar(State& state, const std::uint8_t* data,
                     std::size_t blocks) noexcept;
void hmac_u64_scalar(const KeyState* const* keys, const std::uint64_t* values,
                     Digest* const* out, std::size_t n) noexcept;
void hmac_block_scalar(const KeyState& key, const Block* blocks,
                       Digest* const* out, std::size_t n) noexcept;

#ifdef LPPA_SHA_NI_DISPATCH
/// The SHA-NI kernels; call only when sha_ni() is true.
LPPA_SHA_NI_TARGET void compress_shani(State& state, const std::uint8_t* data,
                                       std::size_t blocks) noexcept;
LPPA_SHA_NI_TARGET void hmac_u64_shani(const KeyState* const* keys,
                                       const std::uint64_t* values,
                                       Digest* const* out,
                                       std::size_t n) noexcept;
LPPA_SHA_NI_TARGET void hmac_block_shani(const KeyState& key,
                                         const Block* blocks,
                                         Digest* const* out,
                                         std::size_t n) noexcept;
#endif

}  // namespace lppa::crypto::kernel
