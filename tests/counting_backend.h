// CountingBackend: a crypto::BidBackend that forwards to another backend
// and counts the masked order tests (ge) it answers, so a test can bound
// or reconcile the compares a table operation spends.  It reports the
// wrapped backend's id, so configs that check the id accept it.
#pragma once

#include <atomic>
#include <cstddef>

#include "core/bid_backend.h"

namespace lppa::testing_support {

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
    ges_.fetch_add(1, std::memory_order_relaxed);
    return inner_.ge(a, b);
  }
  std::optional<std::string> validate_cell(
      const core::ChannelBidSubmission& cell) const override {
    return inner_.validate_cell(cell);
  }

  std::size_t ges() const noexcept {
    return ges_.load(std::memory_order_relaxed);
  }

 private:
  const crypto::BidBackend& inner_;
  mutable std::atomic<std::size_t> ges_{0};
};

}  // namespace lppa::testing_support
