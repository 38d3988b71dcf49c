// Shared-prefix storage for beacon path fields.
//
// A beacon's path field grows by one ID per hop while the message fans out to
// every node; copying vectors would cost O(i) per delivery. The arena stores
// paths as immutable (id, parent) records — appending is O(1) and all the
// fan-out copies of a beacon share their prefix. Entries live for one
// iteration (paths never outlive the iteration that produced them) and the
// arena is recycled with clear().
//
// Sharding (DESIGN.md §10): appends from a shard-parallel recv phase go
// through a Lane into that shard's chunk of fixed-size blocks; a ref encodes
// (shard << 26) | index, always a positive int32 (so kNoBeaconPath = -1 stays
// unambiguous). Shard-0 refs are plain indices — a single-shard arena yields
// the legacy ref values. Blocks never move and the per-shard block tables are
// pre-sized, so a ref published by one shard (ordered by an engine barrier)
// can be walked by any other without synchronization. Ref *values* differ
// across shard counts, but refs are opaque handles — nothing fingerprints
// them — so observable protocol state stays shard-count invariant.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "support/require.hpp"
#include "support/types.hpp"

namespace bzc {

/// Handle into BeaconPathArena; kNoBeaconPath denotes the empty path.
using BeaconPathRef = std::int32_t;
inline constexpr BeaconPathRef kNoBeaconPath = -1;

class BeaconPathArena {
 public:
  /// shards beyond [1, 16] are clamped (refs carry a 4-bit shard tag).
  explicit BeaconPathArena(unsigned shards = 1) {
    if (shards == 0) shards = 1;
    if (shards > kMaxShards) shards = kMaxShards;
    shards_.resize(shards);
    for (Shard& sh : shards_) sh.blocks.resize(std::size_t{1} << (kIndexBits - kBlockBits));
  }

  [[nodiscard]] unsigned shardCount() const noexcept {
    return static_cast<unsigned>(shards_.size());
  }

  /// Append handle bound to one shard's lane; what a shard-parallel recv hook
  /// receives (via BeaconContext) instead of the whole arena.
  class Lane {
   public:
    // const: strategies receive the lane through a const BeaconContext&; the
    // mutation happens in the arena the lane points at, not in the handle.
    [[nodiscard]] BeaconPathRef append(BeaconPathRef parent, PublicId id) const {
      return arena_->append(shard_, parent, id);
    }

   private:
    friend class BeaconPathArena;
    Lane(BeaconPathArena* arena, unsigned shard) : arena_(arena), shard_(shard) {}
    BeaconPathArena* arena_;
    unsigned shard_;
  };

  [[nodiscard]] Lane lane(unsigned shard) {
    BZC_ASSERT(shard < shards_.size());
    return Lane(this, shard);
  }

  /// Appends `id` to `parent` (which may be kNoBeaconPath and may live in any
  /// shard) in `shard`'s lane. Only the owning worker (or serial code) may
  /// append to a given shard.
  [[nodiscard]] BeaconPathRef append(unsigned shard, BeaconPathRef parent, PublicId id) {
    BZC_ASSERT(shard < shards_.size());
    Shard& sh = shards_[shard];
    const std::size_t idx = sh.count;
    BZC_CHECK(idx < (std::size_t{1} << kIndexBits), "beacon-path arena lane full");
    std::unique_ptr<Node[]>& block = sh.blocks[idx >> kBlockBits];
    if (!block) block = std::make_unique<Node[]>(std::size_t{1} << kBlockBits);
    block[idx & ((std::size_t{1} << kBlockBits) - 1)] = {id, parent};
    ++sh.count;
    return static_cast<BeaconPathRef>((static_cast<std::uint32_t>(shard) << kIndexBits) | idx);
  }

  /// Legacy single-shard append (serial call sites, tests, benches).
  [[nodiscard]] BeaconPathRef append(BeaconPathRef parent, PublicId id) {
    return append(0, parent, id);
  }

  /// Number of IDs on the path.
  [[nodiscard]] std::uint32_t length(BeaconPathRef path) const {
    std::uint32_t len = 0;
    for (BeaconPathRef p = path; p != kNoBeaconPath; p = nodeAt(p).parent) ++len;
    return len;
  }

  /// Last ID on the path (the most recently appended hop). Path must be
  /// nonempty.
  [[nodiscard]] PublicId last(BeaconPathRef path) const {
    BZC_REQUIRE(path != kNoBeaconPath, "empty path has no last element");
    return nodeAt(path).id;
  }

  /// IDs in path order (origin side first).
  [[nodiscard]] std::vector<PublicId> materialize(BeaconPathRef path) const;

  /// Visits the path *prefix*: every ID except the last `suffixLen` ones,
  /// i.e. the entries Line 20 of the pseudocode calls S. Visitor returns
  /// false to stop early; walkPrefix returns false iff stopped early.
  template <typename Visitor>
  bool walkPrefix(BeaconPathRef path, std::uint32_t suffixLen, Visitor&& visit) const {
    // Entries are reached suffix-first; skip the first `suffixLen` of them.
    std::uint32_t fromEnd = 0;
    for (BeaconPathRef p = path; p != kNoBeaconPath; p = nodeAt(p).parent) {
      if (fromEnd >= suffixLen) {
        if (!visit(nodeAt(p).id)) return false;
      }
      ++fromEnd;
    }
    return true;
  }

  /// Invalidates every outstanding ref; keeps the allocations.
  void clear() noexcept {
    for (Shard& sh : shards_) sh.count = 0;
  }

  [[nodiscard]] std::size_t size() const noexcept {
    std::size_t total = 0;
    for (const Shard& sh : shards_) total += sh.count;
    return total;
  }

 private:
  static constexpr unsigned kIndexBits = 26;  ///< per-shard capacity 2^26 entries
  static constexpr unsigned kBlockBits = 16;  ///< 65536 entries per block
  static constexpr unsigned kMaxShards = 16;  ///< (15 << 26) | idx stays a positive int32

  struct Node {
    PublicId id;
    BeaconPathRef parent;
  };
  struct Shard {
    std::vector<std::unique_ptr<Node[]>> blocks;  ///< pre-sized table; blocks lazily allocated
    std::size_t count = 0;
  };

  [[nodiscard]] const Node& nodeAt(BeaconPathRef ref) const {
    const auto bits = static_cast<std::uint32_t>(ref);
    const unsigned shard = static_cast<unsigned>(bits >> kIndexBits);
    const std::size_t idx = bits & ((std::uint32_t{1} << kIndexBits) - 1);
    BZC_ASSERT(shard < shards_.size());
    // Never read the owning shard's count here — cross-shard walks during a
    // parallel recv phase would race with the owner's append cursor. A
    // published ref's block pointer is already set (engine barriers order it).
    const auto& block = shards_[shard].blocks[idx >> kBlockBits];
    BZC_ASSERT(block != nullptr);
    return block[idx & ((std::size_t{1} << kBlockBits) - 1)];
  }

  std::vector<Shard> shards_;
};

}  // namespace bzc
