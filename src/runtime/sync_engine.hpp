// SyncEngine: the shared synchronous-round message-passing runtime.
//
// Every protocol in the repo (beacon counting, LOCAL counting, the three
// baselines) used to hand-roll the same plumbing: a round counter, per-node
// inbox/outbox double-buffering, quiescence detection, a safety round cap and
// MessageMeter accounting. SyncEngine owns all of it; protocols are expressed
// as policies — an `emit` hook queueing sends at the top of a round, a `recv`
// hook invoked for each touched receiver, and an `end` hook for global per-round
// work (decisions, expansion checks). See DESIGN.md §1.
//
// Determinism contract (relied on by the golden regression tests):
//  - sends flush in the exact order they were queued; a receiver's inbox is
//    therefore ordered by sender-queue position, then by the sender's
//    adjacency order (one delivery per incident edge for broadcasts);
//  - `recv` fires in first-delivery order (the order inboxes first became
//    nonempty this round), which matches the classic `touched` lists of the
//    pre-refactor loops;
//  - the meter records honest senders only, at flush time, with
//    recordBroadcast(from, bits, degree) for broadcasts and
//    record(from, bits) for unicasts.
//
// Intra-trial sharding (DESIGN.md §10): the constructor takes a shard count S.
// Nodes are partitioned into S contiguous shards of ceil(n/S) nodes; a shard
// owns its nodes' inboxes, and its worker runs their recv hooks. At S == 1
// one queue holds every send and one serial pass counts, meters and
// scatters it. At S > 1 every send is bucketed by destination shard as it is
// queued (a unicast into one bucket, a broadcast into one per shard its
// sorted adjacency reaches), tagged with the dense rank of the recv call
// that queued it. The flush is then one shard-parallel pass: each shard
// meters the sends its own nodes queued, merges its incoming buckets by rank
// (serial emit/end sends last, in queue order), counts, builds its touched
// list in first-delivery order and scatters into its own inbox arena. At the
// start of the recv phase each shard ranks its recv calls in the merge of
// all shards' touched lists; the rank tags the sends each call queues.
// Queue order, inbox order and recv order are therefore the S == 1 ones, and
// fingerprints are bit-identical at any shard count — the invariant
// ExperimentRunner pins for trials. Per-shard state sits on cache lines of
// its own (support/per_shard.hpp).
//
// Provenance tags (DESIGN.md §14) ride inside Message payloads: the engine
// copies payloads opaquely from the send lanes into inboxes, so
// tags like WalkToken::taintNode or BeaconFrame::forgeNode arrive at the
// receiver exactly as sent and never perturb ordering, metering, or RNG —
// blame collection costs no simulated bits and no determinism caveats.
//
// A "window" is a bounded run of rounds (phase structures like Algorithm 2's
// beacon/continue windows map onto it); `rounds == 0` means run until
// quiescence or the engine-wide cap. Protocols that charge wall-clock for a
// full window even when traffic dies early (Algorithm 2 does) top the counter
// up with skipRounds().
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/graph.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/byzantine.hpp"
#include "sim/metrics.hpp"
#include "support/per_shard.hpp"
#include "support/require.hpp"
#include "support/types.hpp"

namespace bzc {

enum class WindowStatus {
  Completed,  ///< all requested rounds ran
  Quiesced,   ///< a round moved no messages (that empty round is counted)
  Stopped,    ///< the end-of-round hook returned false
  Capped,     ///< the engine-wide round cap was reached
};

struct WindowResult {
  WindowStatus status = WindowStatus::Completed;
  std::uint32_t roundsRun = 0;  ///< rounds counted by this window (incl. a quiescent one)
};

/// What a window does with a round that moved no messages. Flood-style
/// protocols stop (nothing can ever change again); schedule-driven ones
/// (e.g. a converge-cast whose emit hook activates one layer per round) keep
/// going because later rounds produce traffic regardless of earlier ones.
enum class IdlePolicy {
  StopWhenIdle,
  RunFullWindow,
};

/// No-op policy hooks for the runWindow slots a protocol does not use.
struct NoEmit {
  void operator()(Round) const noexcept {}
};
struct NoEnd {
  bool operator()(Round) const noexcept { return true; }
};

template <typename Message>
class SyncEngine {
  // The scatter copies each payload once per receiver, from every shard's
  // worker at once; trivially copyable payloads make that cheap and race-free.
  static_assert(std::is_trivially_copyable_v<Message>,
                "SyncEngine payloads must be trivially copyable");

 private:
  struct PendingSend {
    NodeId from;
    NodeId to;  ///< kNoNode = broadcast to all neighbors
    Message payload;
    std::size_t bits;
  };

  /// One send's share of a destination shard (S > 1): send `send` of its
  /// lane, queued by the recv call ranked `rank` this round. A broadcast's
  /// share is its sender's adjacency slots [adjLo, adjHi): the neighbours
  /// the destination owns (adjacency lists are sorted, so they are one run).
  struct BucketRef {
    std::uint32_t rank;
    std::uint32_t send;
    std::uint32_t adjLo;
    std::uint32_t adjHi;
  };

  /// A send queue. At S == 1 the serial lane is the only one and buckets
  /// stay empty. At S > 1 each shard's lane holds the recv-phase sends of
  /// its own nodes and the serial lane the emit/end/seed sends; every send
  /// is also bucketed by destination shard as it is queued.
  struct Lane {
    std::vector<PendingSend> sends;
    std::vector<std::vector<BucketRef>> buckets;  ///< per destination shard (S > 1)
  };

 public:
  struct Delivery {
    NodeId sender = kNoNode;
    Message payload{};
  };

  /// Send handle passed to recv hooks. At S == 1 it feeds the engine's
  /// serial queue; at S > 1 it feeds the calling shard's private lane, so
  /// recv-phase sends need no synchronization. A hook may only send from
  /// nodes its shard owns (the owner meters them). shard() indexes per-shard
  /// protocol state (stat counters, arena lanes).
  class ShardLane {
   public:
    void broadcast(NodeId from, Message payload, std::size_t bits) {
      queue({from, kNoNode, payload, bits});
    }
    void unicast(NodeId from, NodeId to, Message payload, std::size_t bits) {
      queue({from, to, payload, bits});
    }
    [[nodiscard]] unsigned shard() const noexcept { return shard_; }

   private:
    friend class SyncEngine;
    ShardLane(SyncEngine* engine, Lane* lane, unsigned shard, NodeId lo, NodeId hi)
        : engine_(engine), lane_(lane), shard_(shard), lo_(lo), hi_(hi) {}
    void queue(const PendingSend& p) {
      BZC_CHECK(p.from >= lo_ && p.from < hi_, "recv hook sent from a node its shard does not own");
      engine_->queue(*lane_, rank_, p);
    }
    SyncEngine* engine_;
    Lane* lane_;
    unsigned shard_;
    NodeId lo_;
    NodeId hi_;
    std::uint32_t rank_ = 0;  ///< rank of the recv call being served (S > 1)
  };

  struct NoRecv {
    void operator()(ShardLane&, NodeId, Round, std::span<const Delivery>) const noexcept {}
  };

  /// maxTotalRounds == 0 disables the engine-wide cap. shards must lie in
  /// [1, kMaxShards] and is clamped to n; 1 (the default) is the serial engine.
  SyncEngine(const Graph& g, const ByzantineSet& byz, std::uint64_t maxTotalRounds = 0,
             unsigned shards = 1)
      : graph_(g),
        byz_(byz),
        maxTotalRounds_(maxTotalRounds == 0 ? ~0ULL : maxTotalRounds),
        meter_(g.numNodes()),
        inboxCount_(g.numNodes(), 0),
        inboxStart_(g.numNodes(), 0),
        inboxCursor_(g.numNodes(), 0),
        shards_(clampShards(shards, g.numNodes())),
        shard_(shards_) {
    BZC_REQUIRE(byz.numNodes() == g.numNodes(), "byzantine set size mismatch");
    BZC_REQUIRE(g.numNodes() < kSerialRank, "node count overflows the engine's send ranks");
    if (shards_ > 1) {
      chunk_ = static_cast<NodeId>((g.numNodes() + shards_ - 1) / shards_);
      serial_.buckets.resize(shards_);
      for (Shard& sh : shard_) sh.lane.buckets.resize(shards_);
      pool_ = std::make_unique<ThreadPool>(shards_);
    }
  }

  // --- sharding -------------------------------------------------------------
  [[nodiscard]] unsigned shardCount() const noexcept { return shards_; }

  /// Owning shard of node v (contiguous partition: v / ceil(n/S)).
  [[nodiscard]] unsigned shardOf(NodeId v) const noexcept {
    return shards_ > 1 ? static_cast<unsigned>(v / chunk_) : 0u;
  }

  /// Runs fn(shard, loNode, hiNode) over every shard's node range — on the
  /// engine's pool at S > 1, inline at S == 1. The engine's own recv and
  /// flush passes run through it, as do protocol phases that scan all nodes
  /// with shard-owned writes (e.g. the beacon decision loop); it hands out
  /// node ranges only, never send lanes.
  template <typename Fn>
  void forEachShard(Fn&& fn) {
    if (shards_ == 1) {
      fn(std::size_t{0}, NodeId{0}, graph_.numNodes());
      return;
    }
    pool_->parallelForChunked(shards_, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t s = lo; s < hi; ++s) fn(s, shardLo(s), shardHi(s));
    });
  }

  // --- accounting -----------------------------------------------------------
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] MessageMeter& meter() noexcept { return meter_; }
  [[nodiscard]] MessageMeter releaseMeter() noexcept { return std::move(meter_); }

  /// True when running `k` more rounds would overrun the engine-wide cap.
  [[nodiscard]] bool wouldExceed(std::uint64_t k) const noexcept {
    return round_ + k > maxTotalRounds_;
  }

  /// Advances the round counter without simulating traffic (used to charge a
  /// protocol-defined window in full when flooding quiesced early). Traced as
  /// a Mark so round accounting still reconciles: simulated rounds + skipped
  /// rounds == the engine counter (tests/obs_test.cpp pins this).
  void skipRounds(std::uint64_t k) {
    round_ += k;
    if (obs::TrialTrace* t = obs::currentTrace()) {
      t->mark("engine.skipRounds", static_cast<double>(k), round_);
    }
  }

  // --- sending (valid from emit/end hooks, or before a window to seed its
  // --- first round; recv hooks send through their ShardLane) ----------------
  void broadcast(NodeId from, Message payload, std::size_t bits) {
    queue(serial_, kSerialRank, {from, kNoNode, payload, bits});
  }
  void unicast(NodeId from, NodeId to, Message payload, std::size_t bits) {
    queue(serial_, kSerialRank, {from, to, payload, bits});
  }
  void clearPending() noexcept {
    clearLane(serial_);
    for (Shard& sh : shard_) clearLane(sh.lane);
  }
  [[nodiscard]] bool hasPending() const noexcept { return pendingSends() > 0; }

  /// Inbox of node v for the current round (valid inside recv/end hooks).
  [[nodiscard]] std::span<const Delivery> inboxOf(NodeId v) const {
    if (inboxCount_[v] == 0) return {};
    return {shard_[shardOf(v)].arena.data() + inboxStart_[v], inboxCount_[v]};
  }

  // --- the round loop -------------------------------------------------------
  // Per round: cap check; advance the counter; emit(w); flush queued sends
  // into inboxes (metering honest senders); stop as Quiesced when nothing
  // moved; recv(lane, v, w, inbox) for each touched v (shard-parallel at
  // S > 1), in first-delivery order per shard; end(w) — return false to
  // stop; clear inboxes.
  template <typename EmitFn, typename RecvFn, typename EndFn>
  WindowResult runWindow(std::uint32_t rounds, EmitFn&& emit, RecvFn&& recv, EndFn&& end,
                         IdlePolicy idle = IdlePolicy::StopWhenIdle) {
    WindowResult res;
    // Probe target captured once per window; tracing toggles between windows,
    // never inside one. Null keeps every probe below a dead branch — the
    // round loop reads no clock and builds no record (the "null sink" path).
    obs::TrialTrace* const tr = obs::currentTrace();
    trace_ = tr;
    // Whole-window span (phase-time attribution in tools/metrics_report.py):
    // emitted at every exit so span counts per trial stay deterministic.
    const std::int64_t winT0 = tr != nullptr ? obs::traceClockNs() : 0;
    for (std::uint32_t w = 1; rounds == 0 || w <= rounds; ++w) {
      if (round_ >= maxTotalRounds_) {
        res.status = WindowStatus::Capped;
        if (tr != nullptr) tr->span("engine.window", winT0, round_);
        trace_ = nullptr;
        return res;
      }
      ++round_;
      ++res.roundsRun;
      obs::RoundRecord rd;
      std::uint64_t msgs0 = 0;
      std::uint64_t bits0 = 0;
      if (tr != nullptr) {
        msgs0 = meter_.totalMessages();
        bits0 = meter_.totalBits();
        traceRecvNs_ = traceMergeNs_ = traceScatterNs_ = 0;
      }
      emit(static_cast<Round>(w));
      if (tr != nullptr) rd.sends = static_cast<std::uint32_t>(pendingSends());
      const bool anyTraffic = shards_ == 1 ? flush() : flushSharded();
      if (tr != nullptr) {
        rd.round = round_;
        rd.shards = static_cast<std::uint8_t>(shards_);
        rd.touched = static_cast<std::uint32_t>(touchedCount());
        rd.messages = meter_.totalMessages() - msgs0;
        rd.bits = meter_.totalBits() - bits0;
      }
      if (!anyTraffic && idle == IdlePolicy::StopWhenIdle) {
        res.status = WindowStatus::Quiesced;
        if (tr != nullptr) {
          rd.idle = 1;
          rd.recvNs = traceRecvNs_;
          rd.mergeNs = traceMergeNs_;
          rd.scatterNs = traceScatterNs_;
          tr->round(rd);
          tr->span("engine.window", winT0, round_);
        }
        trace_ = nullptr;
        return res;
      }
      deliver(static_cast<Round>(w), recv, rd);
      const bool keep = end(static_cast<Round>(w));
      if (tr != nullptr) {
        rd.recvNs = traceRecvNs_;
        rd.mergeNs = traceMergeNs_;
        rd.scatterNs = traceScatterNs_;
        tr->round(rd);
      }
      for (NodeId v : touched_) inboxCount_[v] = 0;
      touched_.clear();
      for (Shard& sh : shard_) {
        for (const Touch& t : sh.touched) inboxCount_[t.node] = 0;
        sh.touched.clear();
      }
      if (!keep) {
        res.status = WindowStatus::Stopped;
        if (tr != nullptr) tr->span("engine.window", winT0, round_);
        trace_ = nullptr;
        return res;
      }
    }
    res.status = WindowStatus::Completed;
    if (tr != nullptr) tr->span("engine.window", winT0, round_);
    trace_ = nullptr;
    return res;
  }

  /// Flood-style window: traffic seeded before the call, forwarded from recv.
  template <typename RecvFn>
  WindowResult runWindow(std::uint32_t rounds, RecvFn&& recv) {
    return runWindow(rounds, NoEmit{}, std::forward<RecvFn>(recv), NoEnd{});
  }

 private:
  /// Rank of serial (emit/end/seed) sends: after every recv call's sends.
  static constexpr std::uint32_t kSerialRank = 0xffffffffu;

  /// A receiver a shard touched this round (S > 1). key = (rank << 32) | send
  /// of its first delivery's send; ties within one broadcast go by node id,
  /// which is adjacency order.
  struct Touch {
    std::uint64_t key;
    NodeId node;
  };
  /// One entry of a shard's merged incoming buckets, in queue order.
  struct Incoming {
    const PendingSend* send;
    std::uint64_t key;
    std::uint32_t adjLo;
    std::uint32_t adjHi;
  };
  /// Everything one shard's worker writes during a round.
  struct Shard {
    Lane lane;                    ///< recv-phase sends of this shard's nodes (S > 1)
    std::vector<Touch> touched;   ///< owned receivers, first-delivery order (S > 1)
    std::vector<std::uint32_t> rank;  ///< recv scratch: each touched node's call rank
    std::vector<Incoming> merged; ///< flush scratch: incoming buckets in queue order
    std::vector<Delivery> arena;  ///< owned inboxes, receiver-contiguous
    std::uint64_t messages = 0;   ///< metered by this shard in the current flush
    std::uint64_t bits = 0;
  };

  [[nodiscard]] static unsigned clampShards(unsigned s, NodeId n) {
    BZC_REQUIRE(s >= 1 && s <= kMaxShards, "engine shard count outside [1, kMaxShards]");
    if (n > 0 && s > static_cast<unsigned>(n)) s = static_cast<unsigned>(n);
    return s;
  }
  [[nodiscard]] NodeId shardLo(std::size_t s) const noexcept {
    return std::min<NodeId>(graph_.numNodes(), static_cast<NodeId>(s) * chunk_);
  }
  [[nodiscard]] NodeId shardHi(std::size_t s) const noexcept {
    return shards_ == 1 ? graph_.numNodes()
                        : std::min<NodeId>(graph_.numNodes(), shardLo(s) + chunk_);
  }

  [[nodiscard]] std::size_t pendingSends() const noexcept {
    std::size_t total = serial_.sends.size();
    for (const Shard& sh : shard_) total += sh.lane.sends.size();
    return total;
  }
  [[nodiscard]] std::size_t touchedCount() const noexcept {
    std::size_t total = touched_.size();
    for (const Shard& sh : shard_) total += sh.touched.size();
    return total;
  }
  static void clearLane(Lane& lane) noexcept {
    lane.sends.clear();
    for (std::vector<BucketRef>& b : lane.buckets) b.clear();
  }

  // Appends p to `lane` and, at S > 1, files it in the bucket of every shard
  // it reaches.
  void queue(Lane& lane, std::uint32_t rank, const PendingSend& p) {
    const auto send = static_cast<std::uint32_t>(lane.sends.size());
    lane.sends.push_back(p);
    if (shards_ == 1) return;
    if (p.to != kNoNode) {
      lane.buckets[shardOf(p.to)].push_back({rank, send, 0, 0});
      return;
    }
    const std::span<const NodeId> nbrs = graph_.neighbors(p.from);
    const auto deg = static_cast<std::uint32_t>(nbrs.size());
    for (std::uint32_t lo = 0; lo < deg;) {
      const unsigned d = shardOf(nbrs[lo]);
      const NodeId end = shardHi(d);
      std::uint32_t hi = lo + 1;
      while (hi < deg && nbrs[hi] < end) ++hi;
      lane.buckets[d].push_back({rank, send, lo, hi});
      lo = hi;
    }
  }

  // S == 1: one serial pass over the queue counts every inbox, meters honest
  // senders and records touched_ in first-delivery order; receivers then get
  // contiguous slices of the round arena, filled in queue order.
  bool flush() {
    std::vector<PendingSend>& queue = serial_.sends;
    if (queue.empty()) return false;
    std::int64_t t0 = trace_ != nullptr ? obs::traceClockNs() : 0;
    for (const PendingSend& p : queue) {
      if (p.to == kNoNode) {
        if (!byz_.contains(p.from)) {
          meter_.recordBroadcast(p.from, p.bits, graph_.degree(p.from));
        }
        for (NodeId v : graph_.neighbors(p.from)) {
          if (inboxCount_[v]++ == 0) touched_.push_back(v);
        }
      } else {
        if (!byz_.contains(p.from)) meter_.record(p.from, p.bits);
        if (inboxCount_[p.to]++ == 0) touched_.push_back(p.to);
      }
    }
    std::size_t total = 0;
    for (NodeId v : touched_) {
      inboxStart_[v] = total;
      inboxCursor_[v] = total;
      total += inboxCount_[v];
    }
    std::vector<Delivery>& arena = shard_[0].arena;
    if (arena.size() < total) arena.resize(total);
    if (trace_ != nullptr) {
      const std::int64_t t1 = obs::traceClockNs();
      traceMergeNs_ += t1 - t0;
      t0 = t1;
    }
    for (const PendingSend& p : queue) {
      if (p.to == kNoNode) {
        for (NodeId v : graph_.neighbors(p.from)) arena[inboxCursor_[v]++] = {p.from, p.payload};
      } else {
        arena[inboxCursor_[p.to]++] = {p.from, p.payload};
      }
    }
    if (trace_ != nullptr) traceScatterNs_ += obs::traceClockNs() - t0;
    queue.clear();
    return true;
  }

  // S > 1. Serial sends are metered first, serially. Then each shard d, in
  // parallel: meters its own lane (every sender there is a node d owns);
  // merges the buckets addressed to it — shard lanes by recv-call rank, then
  // the serial lane in queue order — into queue order; counts its inboxes
  // and builds its touched list in first-delivery order; and scatters into
  // its own arena. Last, serially: meter totals are summed and the touched
  // lists give the round's touched count.
  bool flushSharded() {
    if (pendingSends() == 0) return false;
    std::int64_t t0 = trace_ != nullptr ? obs::traceClockNs() : 0;
    std::uint64_t messages = 0;
    std::uint64_t bits = 0;
    for (const PendingSend& p : serial_.sends) meterSend(p, messages, bits);
    meter_.addTotals(messages, bits);
    if (trace_ != nullptr) {
      const std::int64_t t1 = obs::traceClockNs();
      traceMergeNs_ += t1 - t0;
      t0 = t1;
    }
    forEachShard([&](std::size_t d, NodeId, NodeId) {
      Shard& sh = shard_[d];
      sh.messages = sh.bits = 0;
      for (const PendingSend& p : sh.lane.sends) meterSend(p, sh.messages, sh.bits);
      mergeIncoming(d, sh.merged);
      for (const Incoming& in : sh.merged) {
        const PendingSend& p = *in.send;
        if (p.to == kNoNode) {
          const std::span<const NodeId> nbrs = graph_.neighbors(p.from);
          for (std::uint32_t k = in.adjLo; k < in.adjHi; ++k) {
            if (inboxCount_[nbrs[k]]++ == 0) sh.touched.push_back({in.key, nbrs[k]});
          }
        } else if (inboxCount_[p.to]++ == 0) {
          sh.touched.push_back({in.key, p.to});
        }
      }
      std::size_t total = 0;
      for (const Touch& t : sh.touched) {
        inboxStart_[t.node] = total;
        inboxCursor_[t.node] = total;
        total += inboxCount_[t.node];
      }
      if (sh.arena.size() < total) sh.arena.resize(total);
      for (const Incoming& in : sh.merged) {
        const PendingSend& p = *in.send;
        if (p.to == kNoNode) {
          const std::span<const NodeId> nbrs = graph_.neighbors(p.from);
          for (std::uint32_t k = in.adjLo; k < in.adjHi; ++k) {
            sh.arena[inboxCursor_[nbrs[k]]++] = {p.from, p.payload};
          }
        } else {
          sh.arena[inboxCursor_[p.to]++] = {p.from, p.payload};
        }
      }
    });
    if (trace_ != nullptr) {
      const std::int64_t t1 = obs::traceClockNs();
      traceScatterNs_ += t1 - t0;
      t0 = t1;
    }
    for (Shard& sh : shard_) meter_.addTotals(sh.messages, sh.bits);
    clearPending();
    if (trace_ != nullptr) traceMergeNs_ += obs::traceClockNs() - t0;
    return true;
  }

  // Meters one send if its sender is honest: the sender's own counters in
  // the meter, its edge-messages and bits into the caller's running totals.
  void meterSend(const PendingSend& p, std::uint64_t& messages, std::uint64_t& bits) {
    if (byz_.contains(p.from)) return;
    const std::uint32_t copies = p.to == kNoNode ? graph_.degree(p.from) : 1;
    if (!meter_.recordSender(p.from, p.bits, copies)) return;
    messages += copies;
    bits += static_cast<std::uint64_t>(p.bits) * copies;
  }

  // Shard d's incoming buckets in queue order. Each shard lane's bucket is
  // sorted by rank (its recv calls ran in rank order) and all sends of one
  // recv call are consecutive in one bucket, so the merge takes whole runs
  // from the lane with the lowest head rank; serial sends follow.
  void mergeIncoming(std::size_t d, std::vector<Incoming>& out) const {
    out.clear();
    std::array<const BucketRef*, kMaxShards> cur{};
    std::array<const BucketRef*, kMaxShards> end{};
    for (unsigned s = 0; s < shards_; ++s) {
      const std::vector<BucketRef>& b = shard_[s].lane.buckets[d];
      cur[s] = b.data();
      end[s] = b.data() + b.size();
    }
    for (;;) {
      unsigned best = 0;
      std::uint32_t bestRank = kSerialRank;
      for (unsigned s = 0; s < shards_; ++s) {
        const std::uint32_t r = cur[s] != end[s] ? cur[s]->rank : kSerialRank;
        best = r < bestRank ? s : best;
        bestRank = r < bestRank ? r : bestRank;
      }
      if (bestRank == kSerialRank) break;
      const PendingSend* sends = shard_[best].lane.sends.data();
      const BucketRef*& h = cur[best];
      do {
        out.push_back({sends + h->send, sendKey(*h), h->adjLo, h->adjHi});
      } while (++h != end[best] && h->rank == bestRank);
    }
    const PendingSend* sends = serial_.sends.data();
    for (const BucketRef& r : serial_.buckets[d]) {
      out.push_back({sends + r.send, sendKey(r), r.adjLo, r.adjHi});
    }
  }
  [[nodiscard]] static std::uint64_t sendKey(const BucketRef& r) noexcept {
    return (static_cast<std::uint64_t>(r.rank) << 32) | r.send;
  }

  // Dense rank of each of shard d's touched receivers in the global
  // first-delivery order — its place in the merge of all shards' touched
  // lists by key — computed by shard d alone: its own index plus, per other
  // shard, how many of that shard's receivers come first. Equal keys (one
  // broadcast reaching several shards) put the lower shard first, which is
  // adjacency order because shards are contiguous node ranges.
  void rankRecvCalls(std::size_t d, std::vector<std::uint32_t>& rank) const {
    const std::vector<Touch>& mine = shard_[d].touched;
    rank.resize(mine.size());
    for (std::size_t i = 0; i < mine.size(); ++i) rank[i] = static_cast<std::uint32_t>(i);
    for (unsigned s = 0; s < shards_; ++s) {
      if (s == d) continue;
      const std::vector<Touch>& other = shard_[s].touched;
      const std::uint64_t tieBump = s < d ? 1 : 0;  // lower shards win ties
      const Touch* p = other.data();
      const Touch* const pEnd = p + other.size();
      for (std::size_t i = 0; i < mine.size(); ++i) {
        const std::uint64_t bound = mine[i].key + tieBump;
        while (p != pEnd && p->key < bound) ++p;
        rank[i] += static_cast<std::uint32_t>(p - other.data());
      }
    }
  }

  // recv over every touched node. At S == 1 the hook's lane is the serial
  // queue and touched_ is first-delivery order. At S > 1 each shard serves
  // first ranks its touched list, then serves it into its own lane, tagging
  // each call's sends with the call's rank so the next flush can restore
  // queue order.
  template <typename RecvFn>
  void deliver(Round w, RecvFn& recv, obs::RoundRecord& rd) {
    const std::int64_t t0 = trace_ != nullptr ? obs::traceClockNs() : 0;
    if (shards_ == 1) {
      ShardLane lane(this, &serial_, 0, 0, graph_.numNodes());
      for (NodeId v : touched_) recv(lane, v, w, inboxOf(v));
      if (trace_ != nullptr) traceRecvNs_ += obs::traceClockNs() - t0;
      return;
    }
    forEachShard([&](std::size_t s, NodeId lo, NodeId hi) {
      Shard& sh = shard_[s];
      rankRecvCalls(s, sh.rank);
      ShardLane lane(this, &sh.lane, static_cast<unsigned>(s), lo, hi);
      for (std::size_t i = 0; i < sh.touched.size(); ++i) {
        const NodeId v = sh.touched[i].node;
        lane.rank_ = sh.rank[i];
        recv(lane, v, w,
             std::span<const Delivery>(sh.arena.data() + inboxStart_[v], inboxCount_[v]));
      }
    });
    if (trace_ != nullptr) {
      traceRecvNs_ += obs::traceClockNs() - t0;
      for (unsigned s = 0; s < shards_; ++s) {
        rd.laneSends[s] = static_cast<std::uint32_t>(shard_[s].lane.sends.size());
      }
    }
  }

  const Graph& graph_;
  const ByzantineSet& byz_;
  std::uint64_t maxTotalRounds_;
  std::uint64_t round_ = 0;
  MessageMeter meter_;

  Lane serial_;                             ///< S == 1: every send; S > 1: emit/end/seed sends
  std::vector<std::size_t> inboxCount_;     ///< per node; nonzero only for touched members
  std::vector<std::size_t> inboxStart_;     ///< offset in the owner's arena; valid when count > 0
  std::vector<std::size_t> inboxCursor_;    ///< scatter cursor during a flush
  std::vector<NodeId> touched_;             ///< S == 1: receivers in first-delivery order

  unsigned shards_ = 1;
  NodeId chunk_ = 0;                        ///< shard width: ceil(n / S)
  PerShard<Shard> shard_;                   ///< S slots (one at S == 1: its arena)
  std::unique_ptr<ThreadPool> pool_;        ///< S workers, owned by the engine (S > 1)

  // Tracing (observational only — read from committed state, never fed back).
  // trace_ is set for the duration of a runWindow call so flush and deliver
  // know whether to read the clock; the ns accumulators are per-round scratch.
  obs::TrialTrace* trace_ = nullptr;
  std::int64_t traceRecvNs_ = 0;
  std::int64_t traceMergeNs_ = 0;
  std::int64_t traceScatterNs_ = 0;
};

}  // namespace bzc
