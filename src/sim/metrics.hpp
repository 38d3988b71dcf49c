// Run metrics: rounds, message counts, per-node message-size accounting and
// the decision timeline. Theorem 2's "small messages" claim is evaluated
// from MessageMeter (max bits any given node ever put on a single edge).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/types.hpp"

namespace bzc {

class MessageMeter {
 public:
  explicit MessageMeter(NodeId numNodes = 0) : maxMessageBits_(numNodes, 0), bitsSent_(numNodes, 0), messagesSent_(numNodes, 0) {}

  /// Records node u placing one message of `bits` bits on one edge.
  void record(NodeId u, std::size_t bits) noexcept { recordBroadcast(u, bits, 1); }

  /// Records node u placing the same `bits`-bit message on `copies` edges
  /// (a broadcast); cheaper than `copies` record() calls in flooding loops.
  void recordBroadcast(NodeId u, std::size_t bits, std::uint32_t copies) noexcept {
    if (!recordSender(u, bits, copies)) return;
    addTotals(copies, static_cast<std::uint64_t>(bits) * copies);
  }

  /// The per-sender half of recordBroadcast: updates u's own counters only,
  /// so calls for distinct senders may run concurrently. Returns whether it
  /// recorded anything; if so the caller owes addTotals(copies, bits * copies).
  bool recordSender(NodeId u, std::size_t bits, std::uint32_t copies) noexcept {
    if (u >= maxMessageBits_.size() || copies == 0) return false;
    maxMessageBits_[u] = bits > maxMessageBits_[u] ? bits : maxMessageBits_[u];
    bitsSent_[u] += static_cast<std::uint64_t>(bits) * copies;
    messagesSent_[u] += copies;
    return true;
  }
  void addTotals(std::uint64_t messages, std::uint64_t bits) noexcept {
    totalMessages_ += messages;
    totalBits_ += bits;
  }

  [[nodiscard]] std::size_t maxMessageBits(NodeId u) const { return maxMessageBits_.at(u); }
  [[nodiscard]] std::uint64_t bitsSent(NodeId u) const { return bitsSent_.at(u); }
  [[nodiscard]] std::uint64_t messagesSent(NodeId u) const { return messagesSent_.at(u); }
  [[nodiscard]] std::uint64_t totalMessages() const noexcept { return totalMessages_; }
  [[nodiscard]] std::uint64_t totalBits() const noexcept { return totalBits_; }

  /// Fraction of the given nodes whose largest single message stayed within
  /// `bitBudget` bits — the Theorem 2 "most nodes send small messages" lens.
  [[nodiscard]] double fractionWithin(const std::vector<NodeId>& nodes,
                                      std::size_t bitBudget) const;

  /// q-quantile of max message bits over the given nodes.
  [[nodiscard]] double maxBitsQuantile(const std::vector<NodeId>& nodes, double q) const;

 private:
  std::vector<std::size_t> maxMessageBits_;
  std::vector<std::uint64_t> bitsSent_;
  std::vector<std::uint64_t> messagesSent_;
  std::uint64_t totalMessages_ = 0;
  std::uint64_t totalBits_ = 0;
};

/// Per-node decision record filled in by the protocols.
struct DecisionRecord {
  bool decided = false;
  Round round = 0;        ///< round at which the estimate became final
  double estimate = 0.0;  ///< the node's estimate of log n (protocol's scale)
};

}  // namespace bzc
