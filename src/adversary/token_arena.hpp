// Arena-pooled reverse paths for walk tokens.
//
// A walk token used to carry its reverse path as a std::vector<NodeId>,
// copied on every hop (recv copies the delivery payload before forwarding).
// At n = 16k that copy dominated the agreement stage's allocation churn
// (ROADMAP perf lever). PathArena replaces the vector with a backward-linked
// chain of (node, prev) entries owned by one per-iteration pool: tokens carry
// a single 32-bit PathRef, so copying a token is O(1) and a whole iteration's
// paths amount to one grow-once buffer that is reset (capacity kept) between
// iterations.
//
// Chain discipline: pushing hop targets as a walk advances leaves the token's
// ref pointing at the node currently holding it; popping (following `prev`)
// retraces the walk — exactly the order the answer leg needs. Refs are only
// meaningful until the owning arena is cleared, which the agreement loop does
// after each iteration window, when no token is in flight.
//
// Sharding (DESIGN.md §10): with the engine running recv shard-parallel,
// each shard pushes into its own lane of chunked fixed-size blocks; a ref
// encodes (shard << 27) | index. Shard-0 refs are plain indices, so a
// single-shard arena produces exactly the legacy ref values. Blocks never
// move once allocated and the per-shard block table is pre-sized at
// construction, so a ref published by one shard (via an engine barrier) can
// be chased by any other shard without synchronization.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "support/require.hpp"
#include "support/types.hpp"

namespace bzc {

/// Handle to a path entry inside a PathArena; kNullPath is the empty path.
using PathRef = std::uint32_t;
inline constexpr PathRef kNullPath = 0xffffffffu;

class PathArena {
 public:
  /// shards beyond [1, 16] are clamped (refs carry a 4-bit shard tag).
  explicit PathArena(unsigned shards = 1) {
    if (shards == 0) shards = 1;
    if (shards > kMaxShards) shards = kMaxShards;
    shards_.resize(shards);
    for (Shard& sh : shards_) sh.blocks.resize(std::size_t{1} << (kIndexBits - kBlockBits));
  }

  [[nodiscard]] unsigned shardCount() const noexcept {
    return static_cast<unsigned>(shards_.size());
  }

  /// Entries one shard's lane can hold before push() throws.
  [[nodiscard]] static constexpr std::size_t laneCapacity() noexcept {
    return std::size_t{1} << kIndexBits;
  }

  /// Appends a hop into `shard`'s lane: `node` was just visited, `prev` is the
  /// path up to it (which may live in any shard). Only `shard`'s owning worker
  /// (or serial code) may call this for a given shard.
  [[nodiscard]] PathRef push(unsigned shard, NodeId node, PathRef prev) {
    BZC_ASSERT(shard < shards_.size());
    Shard& sh = shards_[shard];
    const std::size_t idx = sh.count;
    BZC_CHECK(idx < laneCapacity(), "walk-path arena lane full");
    std::unique_ptr<Entry[]>& block = sh.blocks[idx >> kBlockBits];
    if (!block) block = std::make_unique<Entry[]>(std::size_t{1} << kBlockBits);
    block[idx & ((std::size_t{1} << kBlockBits) - 1)] = {node, prev};
    ++sh.count;
    return static_cast<PathRef>((static_cast<PathRef>(shard) << kIndexBits) | idx);
  }

  /// Legacy single-shard push (serial call sites, tests, benches).
  [[nodiscard]] PathRef push(NodeId node, PathRef prev) { return push(0, node, prev); }

  [[nodiscard]] NodeId node(PathRef ref) const { return entryAt(ref).node; }
  [[nodiscard]] PathRef prev(PathRef ref) const { return entryAt(ref).prev; }

  [[nodiscard]] std::size_t size() const noexcept {
    std::size_t total = 0;
    for (const Shard& sh : shards_) total += sh.count;
    return total;
  }

  /// Invalidates every outstanding PathRef; keeps the allocations.
  void clear() noexcept {
    for (Shard& sh : shards_) sh.count = 0;
  }

 private:
  static constexpr unsigned kIndexBits = 27;  ///< per-shard capacity 2^27 entries
  static constexpr unsigned kBlockBits = 16;  ///< 65536 entries per block
  static constexpr unsigned kMaxShards = 16;  ///< (15 << 27) | idx stays below kNullPath

  struct Entry {
    NodeId node;
    PathRef prev;
  };
  struct Shard {
    std::vector<std::unique_ptr<Entry[]>> blocks;  ///< pre-sized table; blocks lazily allocated
    std::size_t count = 0;
  };

  [[nodiscard]] const Entry& entryAt(PathRef ref) const {
    const unsigned shard = static_cast<unsigned>(ref >> kIndexBits);
    const std::size_t idx = ref & ((PathRef{1} << kIndexBits) - 1);
    BZC_ASSERT(shard < shards_.size());
    // Do not read the owning shard's count here: a cross-shard chase during a
    // parallel recv phase would race with the owner's push. The block pointer
    // of any published ref is already set (engine barriers order it).
    const auto& block = shards_[shard].blocks[idx >> kBlockBits];
    BZC_ASSERT(block != nullptr);
    return block[idx & ((std::size_t{1} << kBlockBits) - 1)];
  }

  std::vector<Shard> shards_;
};

}  // namespace bzc
