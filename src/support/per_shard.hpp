// Per-shard mutable state, one cache line (or more) per shard.
//
// Shard workers write their own slot of per-shard state on every send, arena
// push, answered token or blacklist insertion. Slots packed side by side in a
// std::vector share cache lines, so those writes bounce lines between cores
// (false sharing): on a 4-core host it made the S = 4 agreement round slower
// than the serial one (DESIGN.md §10). PerShard<T> holds one slot per shard,
// each aligned to and padded out to whole cache lines. It is the only place
// per-shard state gets its alignment; structs stored in it carry no alignas.
#pragma once

#include <cstddef>
#include <vector>

namespace bzc {

inline constexpr std::size_t kCacheLineBytes = 64;

template <typename T>
class PerShard {
  struct alignas(kCacheLineBytes) Slot {
    T value{};
  };
  static_assert(alignof(Slot) >= kCacheLineBytes, "per-shard slots must start on a cache line");
  static_assert(sizeof(Slot) % kCacheLineBytes == 0,
                "per-shard slots must fill whole cache lines");

  template <typename S, typename V>
  class Iter {
   public:
    explicit Iter(S* slot) noexcept : slot_(slot) {}
    V& operator*() const noexcept { return slot_->value; }
    Iter& operator++() noexcept {
      ++slot_;
      return *this;
    }
    bool operator!=(const Iter& other) const noexcept { return slot_ != other.slot_; }

   private:
    S* slot_;
  };

 public:
  PerShard() = default;
  explicit PerShard(std::size_t shards) : slots_(shards) {}

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  T& operator[](std::size_t s) noexcept { return slots_[s].value; }
  const T& operator[](std::size_t s) const noexcept { return slots_[s].value; }

  auto begin() noexcept { return Iter<Slot, T>(slots_.data()); }
  auto end() noexcept { return Iter<Slot, T>(slots_.data() + slots_.size()); }
  auto begin() const noexcept { return Iter<const Slot, const T>(slots_.data()); }
  auto end() const noexcept { return Iter<const Slot, const T>(slots_.data() + slots_.size()); }

 private:
  std::vector<Slot> slots_;
};

}  // namespace bzc
