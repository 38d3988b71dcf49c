// Core scalar types shared across the library.
#pragma once

#include <cstdint>
#include <limits>

namespace bzc {

/// Internal (dense) node index in [0, n). Topology, adjacency and simulator
/// bookkeeping use NodeId. Protocol *messages* use PublicId (see sim/ids.hpp)
/// so that, per the paper's model (§2), identifiers leak nothing about n.
using NodeId = std::uint32_t;

/// Opaque identifier carried in protocol messages; drawn uniformly from a
/// 64-bit space that is independent of the network size.
using PublicId = std::uint64_t;

/// Synchronous round counter (1-based within a run).
using Round = std::uint32_t;

inline constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();
inline constexpr PublicId kNoPublicId = std::numeric_limits<PublicId>::max();

/// Most intra-trial engine shards (DESIGN.md §10). Path-arena refs carry a
/// 4-bit shard tag, and past this many shards the serial merge/count passes
/// dominate anyway (Amdahl). SyncEngine, PathArena and materializeTrial
/// reject larger counts.
inline constexpr unsigned kMaxShards = 16;

}  // namespace bzc
