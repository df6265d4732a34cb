#include "crypto/sealed_box.h"

namespace lppa::crypto {

Bytes SealedMessage::serialize() const {
  ByteWriter w;
  w.raw(std::span<const std::uint8_t>(nonce));
  w.bytes(std::span<const std::uint8_t>(ciphertext));
  w.raw(std::span<const std::uint8_t>(tag.bytes));
  return w.take();
}

SealedMessage SealedMessage::deserialize(std::span<const std::uint8_t> wire) {
  ByteReader r(wire);
  SealedMessage m;
  const Bytes nonce_bytes = r.raw(m.nonce.size());
  std::copy(nonce_bytes.begin(), nonce_bytes.end(), m.nonce.begin());
  m.ciphertext = r.bytes();
  const Bytes tag_bytes = r.raw(m.tag.bytes.size());
  std::copy(tag_bytes.begin(), tag_bytes.end(), m.tag.bytes.begin());
  LPPA_PROTOCOL_CHECK(r.at_end(), "trailing bytes after SealedMessage");
  return m;
}

SealedBox::SealedBox(const SecretKey& gc)
    : enc_key_(gc.derive("enc-chacha", 0)), mac_ctx_(gc.derive("mac", 0)) {}

namespace {
Digest compute_tag(const HmacKeyCtx& mac_ctx, const Nonce& nonce,
                   std::span<const std::uint8_t> ciphertext) {
  HmacSha256 mac(mac_ctx);
  mac.update(std::span<const std::uint8_t>(nonce));
  mac.update(ciphertext);
  return mac.finalize();
}
}  // namespace

SealedMessage SealedBox::seal(std::span<const std::uint8_t> plaintext,
                              Rng& rng) const {
  SealedMessage m;
  for (auto& b : m.nonce) b = static_cast<std::uint8_t>(rng.below(256));
  m.ciphertext = chacha20_xor(enc_key_, m.nonce, /*initial_counter=*/1,
                              plaintext);
  m.tag = compute_tag(mac_ctx_, m.nonce, std::span<const std::uint8_t>(m.ciphertext));
  return m;
}

std::optional<Bytes> SealedBox::open(const SealedMessage& message) const {
  const Digest expected = compute_tag(
      mac_ctx_, message.nonce, std::span<const std::uint8_t>(message.ciphertext));
  if (!ct_equal(expected.bytes, message.tag.bytes)) return std::nullopt;
  return chacha20_xor(enc_key_, message.nonce, /*initial_counter=*/1,
                      std::span<const std::uint8_t>(message.ciphertext));
}

}  // namespace lppa::crypto
