#include "proto/journal.h"

#include "crypto/sha256.h"

namespace lppa::proto {

namespace {

std::uint32_t body_checksum(std::span<const std::uint8_t> body) {
  const crypto::Digest d = crypto::Sha256::hash(body);
  return static_cast<std::uint32_t>(d.bytes[0]) |
         (static_cast<std::uint32_t>(d.bytes[1]) << 8) |
         (static_cast<std::uint32_t>(d.bytes[2]) << 16) |
         (static_cast<std::uint32_t>(d.bytes[3]) << 24);
}

bool known_type(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(JournalRecordType::kRoundStart) &&
         raw <= static_cast<std::uint8_t>(JournalRecordType::kChurnArrival);
}

void put_u32(Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

}  // namespace

JournalRecord::UserNote JournalRecord::user_note() const {
  LPPA_REQUIRE(type == JournalRecordType::kStrike ||
                   type == JournalRecordType::kEquivocation,
               "record carries no user note");
  ByteReader r(payload);
  UserNote note;
  note.user = r.u64();
  const Bytes detail = r.bytes();
  note.detail.assign(detail.begin(), detail.end());
  LPPA_PROTOCOL_CHECK(r.at_end(), "trailing bytes after journal user note");
  return note;
}

JournalRecord::Nack JournalRecord::nack() const {
  LPPA_REQUIRE(type == JournalRecordType::kNackSent,
               "record is not a nack record");
  ByteReader r(payload);
  Nack nack;
  nack.user = r.u64();
  nack.mask = r.u8();
  nack.wave = r.u64();
  LPPA_PROTOCOL_CHECK(r.at_end(), "trailing bytes after journal nack");
  return nack;
}

std::uint64_t JournalRecord::churn_user() const {
  LPPA_REQUIRE(type == JournalRecordType::kChurnDeparture ||
                   type == JournalRecordType::kChurnArrival,
               "record is not a churn record");
  ByteReader r(payload);
  const std::uint64_t u = r.u64();
  LPPA_PROTOCOL_CHECK(r.at_end(), "trailing bytes after journal churn record");
  return u;
}

std::uint64_t JournalRecord::round_start_users() const {
  LPPA_REQUIRE(type == JournalRecordType::kRoundStart,
               "record is not a round-start record");
  ByteReader r(payload);
  const std::uint64_t n = r.u64();
  LPPA_PROTOCOL_CHECK(r.at_end(), "trailing bytes after journal round start");
  return n;
}

void RoundJournal::append(JournalRecordType type,
                          std::span<const std::uint8_t> payload) {
  LPPA_REQUIRE(known_type(static_cast<std::uint8_t>(type)),
               "unknown journal record type");
  const std::size_t start = log_.size();
  // Grow once per record, to twice the log plus the record.  A plain
  // range insert would fit a record larger than the log (the
  // kAllocated snapshot) exactly, and the small records after it would
  // reallocate and copy the whole log a second time.
  const std::size_t end = start + kFrameBytes + payload.size();
  if (end > log_.capacity()) log_.reserve(start + end);
  put_u32(log_, static_cast<std::uint32_t>(1 + payload.size()));
  log_.push_back(static_cast<std::uint8_t>(type));
  log_.insert(log_.end(), payload.begin(), payload.end());
  const std::uint32_t checksum =
      body_checksum(std::span<const std::uint8_t>(log_).subspan(start + 4));
  put_u32(log_, checksum);
  type_bytes_[static_cast<std::size_t>(type) - 1] += log_.size() - start;
  ++records_;
}

void RoundJournal::append_round_start(std::uint64_t num_users) {
  ByteWriter w;
  w.u64(num_users);
  append(JournalRecordType::kRoundStart, w.data());
}

void RoundJournal::append_user_note(JournalRecordType type, std::uint64_t user,
                                    std::string_view detail) {
  LPPA_REQUIRE(type == JournalRecordType::kStrike ||
                   type == JournalRecordType::kEquivocation,
               "user notes are strike or equivocation records");
  ByteWriter w;
  w.u64(user);
  w.bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(detail.data()), detail.size()));
  append(type, w.data());
}

void RoundJournal::append_nack(std::uint64_t user, std::uint8_t mask,
                               std::uint64_t wave) {
  ByteWriter w;
  w.u64(user);
  w.u8(mask);
  w.u64(wave);
  append(JournalRecordType::kNackSent, w.data());
}

void RoundJournal::append_churn(JournalRecordType type, std::uint64_t user) {
  LPPA_REQUIRE(type == JournalRecordType::kChurnDeparture ||
                   type == JournalRecordType::kChurnArrival,
               "churn records are departure or arrival records");
  ByteWriter w;
  w.u64(user);
  append(type, w.data());
}

std::vector<JournalRecord> RoundJournal::read(
    std::span<const std::uint8_t> wire) {
  std::vector<JournalRecord> records;
  ByteReader r(wire);
  while (!r.at_end()) {
    LPPA_PROTOCOL_CHECK(r.remaining() >= 4,
                        "journal record shorter than its length prefix");
    const std::uint32_t body_len = r.u32();
    LPPA_PROTOCOL_CHECK(body_len >= 1, "journal record body is empty");
    LPPA_PROTOCOL_CHECK(r.remaining() >= static_cast<std::size_t>(body_len) + 4,
                        "journal record truncated");
    const Bytes body = r.raw(body_len);
    const std::uint32_t stored = r.u32();
    LPPA_PROTOCOL_CHECK(stored == body_checksum(body),
                        "journal record checksum mismatch");
    LPPA_PROTOCOL_CHECK(known_type(body[0]), "unknown journal record type");
    JournalRecord record;
    record.type = static_cast<JournalRecordType>(body[0]);
    record.payload.assign(body.begin() + 1, body.end());
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace lppa::proto
