// Forwarding wrappers that count calls into the bid-table layer without
// changing a single answer: a crypto::BidBackend counting masked order
// tests (passed to the EncryptedBidTable constructor) and an
// auction::BidTableView counting the allocator's queries and removals.
// selftest.cpp pins that allocating through them leaves awards unchanged.
#pragma once

#include <atomic>
#include <cstddef>

#include "auction/allocate.h"
#include "core/bid_backend.h"

namespace lppa::bench_driver {

class CountingBackend final : public crypto::BidBackend {
 public:
  explicit CountingBackend(const crypto::BidBackend& inner) : inner_(inner) {}

  crypto::BidBackendId id() const noexcept override { return inner_.id(); }
  const char* name() const noexcept override { return inner_.name(); }
  void encode_cell(core::ChannelBidSubmission& cell,
                   const crypto::BidEncodeCtx& ctx, std::uint64_t scaled,
                   Rng& rng) const override {
    inner_.encode_cell(cell, ctx, scaled, rng);
  }
  bool ge(const core::ChannelBidSubmission& a,
          const core::ChannelBidSubmission& b) const override {
    compares_.fetch_add(1, std::memory_order_relaxed);
    return inner_.ge(a, b);
  }
  std::optional<std::string> validate_cell(
      const core::ChannelBidSubmission& cell) const override {
    return inner_.validate_cell(cell);
  }

  std::size_t compares() const noexcept {
    return compares_.load(std::memory_order_relaxed);
  }

 private:
  const crypto::BidBackend& inner_;
  mutable std::atomic<std::size_t> compares_{0};
};

class CountingTableView final : public auction::BidTableView {
 public:
  explicit CountingTableView(auction::BidTableView& inner) : inner_(inner) {}

  std::size_t num_users() const noexcept override {
    return inner_.num_users();
  }
  std::size_t num_channels() const noexcept override {
    return inner_.num_channels();
  }
  bool has(auction::UserId u, auction::ChannelId r) const override {
    return inner_.has(u, r);
  }
  void remove(auction::UserId u, auction::ChannelId r) override {
    ++removes_;
    inner_.remove(u, r);
  }
  void remove_user(auction::UserId u) override {
    ++removes_;
    inner_.remove_user(u);
  }
  std::optional<auction::UserId> argmax_in_column(
      auction::ChannelId r) const override {
    ++argmax_calls_;
    return inner_.argmax_in_column(r);
  }
  bool empty() const noexcept override { return inner_.empty(); }

  std::size_t argmax_calls() const noexcept { return argmax_calls_; }
  std::size_t removes() const noexcept { return removes_; }

 private:
  auction::BidTableView& inner_;
  mutable std::size_t argmax_calls_ = 0;
  std::size_t removes_ = 0;
};

}  // namespace lppa::bench_driver
