// Shard-tagged arena of backward-linked paths.
//
// Two protocols grow a path by one ID per hop and later follow it back:
// walk tokens record their reverse route (PathArena<NodeId>, DESIGN.md §6)
// and beacons their path field (PathArena<PublicId>, §4). Copying a vector
// per hop would cost O(length) per delivery; the arena stores each path as
// immutable (id, prev) entries, so appending is O(1), a payload carries one
// 32-bit PathRef, and all fan-out copies of a beacon share their prefix.
// Entries live for one iteration window — no path outlives it — and the
// arena is recycled with clear(), which keeps the allocations.
//
// Sharding (DESIGN.md §10): each engine shard pushes into its own lane of
// fixed-size blocks; a ref encodes (shard << 27) | index, so shard-0 refs are
// plain indices. Blocks never move and each lane's block table is pre-sized
// at construction, so a ref published by one shard (ordered by an engine
// barrier) can be followed by any other shard without synchronization. Ref
// *values* differ across shard counts, but refs are opaque handles nothing
// fingerprints, so observable protocol state stays shard-count invariant.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "support/per_shard.hpp"
#include "support/require.hpp"
#include "support/types.hpp"

namespace bzc {

/// Handle to a path entry inside a PathArena; kNoPath is the empty path.
using PathRef = std::uint32_t;
inline constexpr PathRef kNoPath = 0xffffffffu;

template <typename Id>
class PathArena {
 public:
  explicit PathArena(unsigned shards = 1) {
    BZC_REQUIRE(shards >= 1 && shards <= kMaxShards,
                "path-arena shard count outside [1, kMaxShards]");
    lanes_ = PerShard<Lane>(shards);
    for (Lane& lane : lanes_) lane.blocks.resize(std::size_t{1} << (kIndexBits - kBlockBits));
  }

  /// Entries one shard's lane can hold before push() throws.
  [[nodiscard]] static constexpr std::size_t laneCapacity() noexcept {
    return std::size_t{1} << kIndexBits;
  }

  /// Appends `id` to the path `prev` (kNoPath or a ref from any shard) in
  /// `shard`'s lane. Only the shard's owning worker (or serial code) may push
  /// to a given shard.
  [[nodiscard]] PathRef push(unsigned shard, Id id, PathRef prev) {
    BZC_ASSERT(shard < lanes_.size());
    Lane& lane = lanes_[shard];
    const std::size_t idx = lane.count;
    BZC_CHECK(idx < laneCapacity(), "path arena lane full");
    std::unique_ptr<Entry[]>& block = lane.blocks[idx >> kBlockBits];
    if (!block) block = std::make_unique<Entry[]>(std::size_t{1} << kBlockBits);
    block[idx & kBlockMask] = {id, prev};
    ++lane.count;
    return (static_cast<PathRef>(shard) << kIndexBits) | static_cast<PathRef>(idx);
  }

  /// The last ID on the path `ref` (the most recent hop).
  [[nodiscard]] Id id(PathRef ref) const { return entryAt(ref).id; }
  /// The path up to, but not including, the last ID.
  [[nodiscard]] PathRef prev(PathRef ref) const { return entryAt(ref).prev; }

  /// Visits the path *prefix*: every ID except the last `suffixLen` ones
  /// (Line 20's S), newest first. The visitor returns false to stop early;
  /// walkPrefix returns false iff it stopped early.
  template <typename Visitor>
  bool walkPrefix(PathRef path, std::uint32_t suffixLen, Visitor&& visit) const {
    std::uint32_t fromEnd = 0;
    for (PathRef p = path; p != kNoPath; p = entryAt(p).prev) {
      if (fromEnd >= suffixLen && !visit(entryAt(p).id)) return false;
      ++fromEnd;
    }
    return true;
  }

  /// Invalidates every outstanding ref; keeps the allocations.
  void clear() noexcept {
    for (Lane& lane : lanes_) lane.count = 0;
  }

 private:
  static constexpr unsigned kIndexBits = 27;  ///< per-lane capacity 2^27 entries
  static constexpr unsigned kBlockBits = 16;  ///< 65536 entries per block
  static constexpr std::size_t kBlockMask = (std::size_t{1} << kBlockBits) - 1;
  static_assert(((std::uint64_t{kMaxShards} << kIndexBits) - 1) < kNoPath,
                "the top shard's last ref must stay below kNoPath");

  struct Entry {
    Id id;
    PathRef prev;
  };
  struct Lane {
    std::vector<std::unique_ptr<Entry[]>> blocks;  ///< pre-sized table; blocks lazily allocated
    std::size_t count = 0;
  };

  [[nodiscard]] const Entry& entryAt(PathRef ref) const {
    const unsigned shard = static_cast<unsigned>(ref >> kIndexBits);
    const std::size_t idx = ref & ((PathRef{1} << kIndexBits) - 1);
    BZC_ASSERT(shard < lanes_.size());
    // Never read the owning lane's count here: a cross-shard chase during a
    // parallel recv phase would race with the owner's push. The block pointer
    // of any published ref is already set (engine barriers order it).
    const auto& block = lanes_[shard].blocks[idx >> kBlockBits];
    BZC_ASSERT(block != nullptr);
    return block[idx & kBlockMask];
  }

  PerShard<Lane> lanes_;  ///< one per shard, each on its own cache lines
};

}  // namespace bzc
