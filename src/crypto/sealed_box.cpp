#include "crypto/sealed_box.h"

#include <algorithm>

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
  r.raw_into(m.nonce);
  const std::span<const std::uint8_t> ciphertext = r.bytes_view();
  m.ciphertext.assign(ciphertext.begin(), ciphertext.end());
  r.raw_into(m.tag.bytes);
  LPPA_PROTOCOL_CHECK(r.at_end(), "trailing bytes after SealedMessage");
  return m;
}

SealedBox::SealedBox(const SecretKey& gc)
    : enc_key_(chacha20_key(gc.derive("enc-chacha", 0))),
      mac_ctx_(gc.derive("mac", 0)) {}

namespace {
HmacKeyCtx::Message tag_input(const SealedMessage& m) {
  return {std::span<const std::uint8_t>(m.nonce),
          std::span<const std::uint8_t>(m.ciphertext)};
}
}  // namespace

SealedMessage SealedBox::seal(std::span<const std::uint8_t> plaintext,
                              Rng& rng) const {
  SealedMessage m = encrypt(plaintext, rng);
  SealedMessage* one = &m;
  tag(std::span<SealedMessage* const>(&one, 1));
  return m;
}

SealedMessage SealedBox::encrypt(std::span<const std::uint8_t> plaintext,
                                 Rng& rng) const {
  SealedMessage m;
  // Drawn into a local first, like the hashed sets' padding: stores
  // through m.nonce could alias the generator's state.
  Nonce nonce;
  for (auto& b : nonce) b = static_cast<std::uint8_t>(rng.below(256));
  m.nonce = nonce;
  m.ciphertext.resize(plaintext.size());
  chacha20_xor(enc_key_, m.nonce, /*initial_counter=*/1, plaintext.data(),
               m.ciphertext.data(), plaintext.size());
  return m;
}

void SealedBox::tag(std::span<SealedMessage* const> messages) const {
  constexpr std::size_t kChunk = 16;
  HmacKeyCtx::Message inputs[kChunk];
  Digest* tags[kChunk];
  for (std::size_t i = 0; i < messages.size(); i += kChunk) {
    const std::size_t m = std::min(kChunk, messages.size() - i);
    for (std::size_t j = 0; j < m; ++j) {
      inputs[j] = tag_input(*messages[i + j]);
      tags[j] = &messages[i + j]->tag;
    }
    mac_ctx_.mac_batch(std::span<const HmacKeyCtx::Message>(inputs, m),
                       std::span<Digest* const>(tags, m));
  }
}

std::optional<Bytes> SealedBox::open(const SealedMessage& message) const {
  Digest expected;
  Digest* const slot = &expected;
  const HmacKeyCtx::Message input = tag_input(message);
  mac_ctx_.mac_batch(std::span<const HmacKeyCtx::Message>(&input, 1),
                     std::span<Digest* const>(&slot, 1));
  if (!ct_equal(expected.bytes, message.tag.bytes)) return std::nullopt;
  Bytes plain(message.ciphertext.size());
  chacha20_xor(enc_key_, message.nonce, /*initial_counter=*/1,
               message.ciphertext.data(), plain.data(), plain.size());
  return plain;
}

}  // namespace lppa::crypto
