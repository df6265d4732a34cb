// ShardedBidTable: a source-compatibility name, like ArgmaxStrategy and
// LppaConfig::num_shards.  The auction has one bid table,
// core::EncryptedBidTable, and nothing is sharded.  This subclass has no
// state of its own; existing embedders spell it as the type
// core::ChurnState::table_for_allocation() returns and copy it with
// clone().
#pragma once

#include <utility>

#include "core/encrypted_bid_table.h"

namespace lppa::core {

class ShardedBidTable final : public EncryptedBidTable {
 public:
  explicit ShardedBidTable(EncryptedBidTable table) noexcept
      : EncryptedBidTable(std::move(table)) {}

  ShardedBidTable clone() const { return *this; }
};

}  // namespace lppa::core
