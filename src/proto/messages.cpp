#include "proto/messages.h"

#include "crypto/sha256.h"

namespace lppa::proto {

namespace {

/// Frame checksum: the first four bytes of SHA-256 over the framed
/// fields.  Not an authenticator (there is no key) — it exists so that
/// *any* in-transit corruption is detectable at parse time rather than
/// surfacing as a structurally valid submission with scrambled digests,
/// which no later layer could tell from a Byzantine bid.
std::uint32_t frame_checksum(std::span<const std::uint8_t> framed) {
  const crypto::Digest d = crypto::Sha256::hash(framed);
  return static_cast<std::uint32_t>(d.bytes[0]) |
         (static_cast<std::uint32_t>(d.bytes[1]) << 8) |
         (static_cast<std::uint32_t>(d.bytes[2]) << 16) |
         (static_cast<std::uint32_t>(d.bytes[3]) << 24);
}

}  // namespace

Bytes Envelope::serialize() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(sender);
  w.bytes(payload);
  w.u32(frame_checksum(w.data()));
  return w.take();
}

Envelope Envelope::deserialize(std::span<const std::uint8_t> wire) {
  LPPA_PROTOCOL_CHECK(wire.size() >= 4, "Envelope shorter than its checksum");
  const auto framed = wire.first(wire.size() - 4);
  ByteReader checksum_reader(wire.subspan(wire.size() - 4));
  LPPA_PROTOCOL_CHECK(checksum_reader.u32() == frame_checksum(framed),
                      "Envelope checksum mismatch");
  ByteReader r(framed);
  Envelope e;
  const std::uint8_t raw_type = r.u8();
  LPPA_PROTOCOL_CHECK(
      raw_type >= static_cast<std::uint8_t>(MessageType::kLocationSubmission) &&
          raw_type <= static_cast<std::uint8_t>(MessageType::kSubmissionAck),
      "unknown message type");
  e.type = static_cast<MessageType>(raw_type);
  e.sender = r.u64();
  e.payload = r.bytes();
  LPPA_PROTOCOL_CHECK(r.at_end(), "trailing bytes after Envelope");
  return e;
}

Bytes RetransmitRequest::serialize() const {
  ByteWriter w;
  w.u8(mask);
  return w.take();
}

RetransmitRequest RetransmitRequest::deserialize(
    std::span<const std::uint8_t> wire) {
  ByteReader r(wire);
  RetransmitRequest req;
  req.mask = r.u8();
  LPPA_PROTOCOL_CHECK(req.mask != 0 && req.mask <= (kLocation | kBid),
                      "invalid retransmit mask");
  LPPA_PROTOCOL_CHECK(r.at_end(), "trailing bytes after RetransmitRequest");
  return req;
}

Bytes SubmissionAck::serialize() const {
  ByteWriter w;
  w.u8(mask);
  return w.take();
}

SubmissionAck SubmissionAck::deserialize(std::span<const std::uint8_t> wire) {
  ByteReader r(wire);
  SubmissionAck ack;
  ack.mask = r.u8();
  LPPA_PROTOCOL_CHECK(ack.mask == RetransmitRequest::kLocation ||
                          ack.mask == RetransmitRequest::kBid,
                      "invalid submission-ack mask");
  LPPA_PROTOCOL_CHECK(r.at_end(), "trailing bytes after SubmissionAck");
  return ack;
}

Bytes WinnerAnnouncement::serialize() const {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(awards.size()));
  for (const auto& a : awards) {
    w.u64(a.user);
    w.u64(a.channel);
    w.u64(a.charge);
    w.u8(a.valid ? 1 : 0);
  }
  return w.take();
}

WinnerAnnouncement WinnerAnnouncement::deserialize(
    std::span<const std::uint8_t> wire) {
  ByteReader r(wire);
  WinnerAnnouncement wa;
  // user, channel, charge (u64 each) + the validity flag.
  const std::uint32_t n = r.count(8 + 8 + 8 + 1);
  wa.awards.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    auction::Award a;
    a.user = r.u64();
    a.channel = r.u64();
    a.charge = r.u64();
    const std::uint8_t valid = r.u8();
    LPPA_PROTOCOL_CHECK(valid <= 1, "invalid Award validity flag");
    a.valid = valid != 0;
    wa.awards.push_back(a);
  }
  LPPA_PROTOCOL_CHECK(r.at_end(), "trailing bytes after WinnerAnnouncement");
  return wa;
}

Bytes serialize_charge_queries(const std::vector<core::ChargeQuery>& queries) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(queries.size()));
  for (const auto& q : queries) q.serialize(w);
  return w.take();
}

std::vector<core::ChargeQuery> deserialize_charge_queries(
    std::span<const std::uint8_t> wire) {
  ByteReader r(wire);
  const std::uint32_t n = r.count(core::ChargeQuery::kMinWireSize);
  std::vector<core::ChargeQuery> queries;
  queries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    queries.push_back(core::ChargeQuery::deserialize(r));
  }
  LPPA_PROTOCOL_CHECK(r.at_end(), "trailing bytes after charge query batch");
  return queries;
}

Bytes serialize_charge_results(
    const std::vector<core::ChargeResult>& results) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(results.size()));
  for (const auto& res : results) res.serialize(w);
  return w.take();
}

std::vector<core::ChargeResult> deserialize_charge_results(
    std::span<const std::uint8_t> wire) {
  ByteReader r(wire);
  const std::uint32_t n = r.count(core::ChargeResult::kWireSize);
  std::vector<core::ChargeResult> results;
  results.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    results.push_back(core::ChargeResult::deserialize(r));
  }
  LPPA_PROTOCOL_CHECK(r.at_end(), "trailing bytes after charge result batch");
  return results;
}

}  // namespace lppa::proto
