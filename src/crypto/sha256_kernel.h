// SHA-256 compression kernels, internal to lppa_crypto.
//
// Two users share them: the streaming Sha256 (any message, any length)
// and HmacKeyCtx's fixed-format u64 MACs.  An HMAC of an 8-byte message
// from cached ipad/opad midstates is exactly two blocks whose layout is
// known in advance:
//
//   inner block: value (8 LE bytes) | 0x80 | zeros | bit length 576
//   outer block: inner digest (32)  | 0x80 | zeros | bit length 768
//
// so the hmac_u64_* kernels build both blocks in registers and compress
// them directly from the midstates, with no Sha256 object, buffering or
// generic padding.  The SHA-NI kernel interleaves kHmacLanes independent
// MACs so the round instructions of one lane fill the latency of
// another; a batch's remainder runs one lane at a time.
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

/// MACs the SHA-NI HMAC kernel computes side by side.
inline constexpr std::size_t kHmacLanes = 4;

/// True when this CPU runs the SHA-NI kernels (CPUID, read once).
bool sha_ni() noexcept;

/// Compresses `blocks` consecutive 64-byte blocks of `data` into `state`
/// on whichever kernel CPUID picked.
void compress(State& state, const std::uint8_t* data,
              std::size_t blocks) noexcept;

/// out[i] = HMAC-SHA-256 over the 8 little-endian bytes of values[i],
/// given the key's midstates after its ipad and opad blocks; dispatched
/// like compress().
void hmac_u64(const State& inner, const State& outer,
              const std::uint64_t* values, Digest* out,
              std::size_t n) noexcept;

/// The portable kernels.
void compress_scalar(State& state, const std::uint8_t* data,
                     std::size_t blocks) noexcept;
void hmac_u64_scalar(const State& inner, const State& outer,
                     const std::uint64_t* values, Digest* out,
                     std::size_t n) noexcept;

#ifdef LPPA_SHA_NI_DISPATCH
/// The SHA-NI kernels; call only when sha_ni() is true.
LPPA_SHA_NI_TARGET void compress_shani(State& state, const std::uint8_t* data,
                                       std::size_t blocks) noexcept;
LPPA_SHA_NI_TARGET void hmac_u64_shani(const State& inner, const State& outer,
                                       const std::uint64_t* values, Digest* out,
                                       std::size_t n) noexcept;
#endif

}  // namespace lppa::crypto::kernel
