// ChaCha20 stream cipher (RFC 8439), implemented from scratch.
//
// This is the TTP symmetric primitive: SUs seal their true bid under the
// TTP key gc (crypto/sealed_box.h wraps it in encrypt-then-MAC).  The
// paper leaves the symmetric scheme unspecified; any IND-CPA cipher works
// and ChaCha20 is compact and constant-time by construction.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/bytes.h"
#include "crypto/keys.h"

namespace lppa::crypto {

/// A 96-bit ChaCha20 nonce.  Must never repeat under one key; SealedBox
/// derives nonces from a per-key counter plus RNG salt.
using Nonce = std::array<std::uint8_t, 12>;

/// A ChaCha20 key as the eight little-endian words its block function
/// reads: a holder of a long-lived key (SealedBox) loads them once.
using ChaChaKey = std::array<std::uint32_t, 8>;

ChaChaKey chacha20_key(const SecretKey& key) noexcept;

/// Writes out[i] = in[i] ^ keystream[i] for i < n, keystream for (key,
/// nonce, counter).  `out` may equal `in`.  Encryption and decryption are
/// the same operation.
void chacha20_xor(const ChaChaKey& key, const Nonce& nonce,
                  std::uint32_t initial_counter, const std::uint8_t* in,
                  std::uint8_t* out, std::size_t n) noexcept;

/// The same into a new buffer.
Bytes chacha20_xor(const SecretKey& key, const Nonce& nonce,
                   std::uint32_t initial_counter,
                   std::span<const std::uint8_t> data);

/// Exposes one 64-byte keystream block for test-vector validation
/// (RFC 8439 section 2.3.2).
std::array<std::uint8_t, 64> chacha20_block(const SecretKey& key,
                                            const Nonce& nonce,
                                            std::uint32_t counter);

}  // namespace lppa::crypto
