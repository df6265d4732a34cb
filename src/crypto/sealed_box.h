// SealedBox: authenticated symmetric encryption (encrypt-then-MAC).
//
// Construction: ChaCha20 under enc_key = derive(gc, "enc-chacha"), then
// HMAC-SHA-256 over nonce||ciphertext under mac_key = derive(gc, "mac").
// This is what carries the winner's true bid to the TTP; the auctioneer
// relays boxes opaquely and cannot read or forge them.
#pragma once

#include <optional>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/chacha20.h"
#include "crypto/hmac.h"

namespace lppa::crypto {

/// An opaque sealed message: nonce || ciphertext || tag.
struct SealedMessage {
  Nonce nonce{};
  Bytes ciphertext;
  Digest tag{};

  /// Serialised wire size in bytes.
  std::size_t wire_size() const noexcept {
    return nonce.size() + ciphertext.size() + tag.bytes.size();
  }

  Bytes serialize() const;
  static SealedMessage deserialize(std::span<const std::uint8_t> wire);

  bool operator==(const SealedMessage&) const = default;
};

class SealedBox {
 public:
  /// Both SUs and the TTP construct a SealedBox from the shared key gc.
  explicit SealedBox(const SecretKey& gc);

  /// Seals a plaintext; the nonce is drawn from `rng` (the caller owns
  /// nonce-uniqueness by owning the RNG stream).  encrypt() then tag().
  SealedMessage seal(std::span<const std::uint8_t> plaintext, Rng& rng) const;

  /// The first half of seal(): draws the nonce from `rng` and encrypts.
  /// The tag stays zero until tag() fills it.  A caller sealing several
  /// plaintexts encrypts each where its nonce belongs in the RNG stream,
  /// then tags them all in one batch.
  SealedMessage encrypt(std::span<const std::uint8_t> plaintext,
                        Rng& rng) const;

  /// The second half: fills every message's tag, HMAC over
  /// nonce‖ciphertext, as one MAC batch (a bid's tags share the lanes).
  void tag(std::span<SealedMessage* const> messages) const;

  /// Opens a sealed message; returns nullopt when the tag does not verify
  /// (tampering, or a relayed box sealed under another key).
  std::optional<Bytes> open(const SealedMessage& message) const;

 private:
  ChaChaKey enc_key_;   ///< the encryption key's words, loaded once
  HmacKeyCtx mac_ctx_;  ///< the MAC key's schedule, built once
};

}  // namespace lppa::crypto
