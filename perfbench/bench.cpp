// Repository benchmark binary: one named workload, one seed, one process.
//
//   bzc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//
// Every workload runs through the public ScenarioSpec / materializeTrial /
// runProtocolTrial / runChurnTrialDetailed API via ExperimentRunner::runCustom,
// exactly as the declarative runTrial path does. The benchmark's own timers
// go around those calls; nothing inside src/ is instrumented for it.
//
// --trace 0 measures the end-to-end metrics with tracing off: after one
// untimed warm-up trial, a fixed-count burst of materializeTrial calls for the
// set-up time, then the whole trial, repeated for as many repetitions as fit
// in --seconds, reporting medians. A repetition is a batch of the workload's
// trials, about 2-3 s, each trial on its own graph and placement.
// --trace 1 alternates untraced and traced trials over two thirds of the
// budget. The traced ones install a capturing sink through obs::setTraceSink,
// and their RoundRecords, spans and counters are folded into per-layer metrics
// (medians over the traced repetitions). Too few full-size pairs fit to
// resolve the tracing overhead, so the last third of the budget alternates
// untraced and traced trials of the workload's tiny form (--tiny's n) and
// reports the median of the per-pair time ratios.
//
// Every repetition is checked: the fingerprint must equal the first one's,
// traced or not, the round cap must not be hit, and the workload's quality
// floor must hold. A traced trial must also reconcile with the meter: its
// RoundRecord messages and bits sum exactly to the trial's totals, its round
// records plus skip marks count exactly its simulated rounds, and its engine
// phase time fits in the trial span (times the recount pipeline depth, whose
// recounts may overlap).
//
// The last stdout line is one JSON object: workload, seed, fingerprint,
// correct, attempted, failed, the failed checks, and the metrics with units.
// perfbench/run.py builds this binary, compares the fingerprint with the
// values recorded for the seed, and prints the benchmark's result line.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "churn/epoch_runner.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"
#include "runtime/experiment.hpp"

namespace {

using namespace bzc;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// Repeats work while one more repetition, as slow as the slowest so far,
/// would still end inside the budget.
class Budget {
 public:
  explicit Budget(double seconds) : seconds_(seconds) {}
  /// Call after each repetition: whether to start another.
  bool another() {
    const double now = secondsSince(start_);
    slowest_ = std::max(slowest_, now - last_);
    last_ = now;
    return now + slowest_ <= seconds_;
  }

 private:
  Clock::time_point start_ = Clock::now();
  double seconds_, last_ = 0.0, slowest_ = 0.0;
};

double peakRssMb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KB
}

// --- workloads ---------------------------------------------------------------

enum class Quality {
  WithinWindow,  ///< counting: honest fraction inside the window
  Agreeing,      ///< agreement: honest fraction on the initial majority
  Decided,       ///< flooded counting: honest fraction that decided at all
};

struct Workload {
  ScenarioSpec spec;
  Quality quality = Quality::WithinWindow;
  double qualityFloor = 0.9;
  /// materializeTrial calls per set-up burst, a multiple of the batch's
  /// trials: about 25 ms of set-up at full n, about 1% of a repetition.
  int setupReps = 0;
};

std::uint32_t maxPhaseFor(NodeId n, std::uint32_t slack) {
  return static_cast<std::uint32_t>(std::ceil(std::log(static_cast<double>(n)))) + slack;
}

/// The four reference workloads. Each repetition is a batch of spec.trials
/// trials of about 2-3 s, so a run averages over several inputs per seed and
/// still holds about ten repetitions. --tiny shrinks n and the batch so every
/// check runs in seconds (the self-test). Returns false for an unknown name.
bool makeWorkload(const std::string& name, std::uint64_t seed, bool tiny, Workload& w) {
  ScenarioSpec& s = w.spec;
  s.name = name;
  s.masterSeed = seed;
  s.placement.kind = Placement::Random;
  const auto batch = [&](std::uint32_t trials, int setupReps) {
    s.trials = tiny ? 2 : trials;
    w.setupReps = setupReps;
  };
  if (name == "count-8k") {
    const NodeId n = tiny ? 1024 : 8192;
    s.graph = {GraphKind::Hnd, n, 8, 0.1};
    s.byzGamma = 0.55;
    s.protocol = ProtocolKind::Beacon;
    s.beaconAdversary = BeaconAdversaryProfile::none();
    s.beaconLimits.maxPhase = maxPhaseFor(n, 3);
    s.beaconLimits.maxTotalRounds = 60'000;
    s.shards = 4;
    w.quality = Quality::WithinWindow;
    batch(8, 24);
  } else if (name == "agree-8k") {
    const NodeId n = tiny ? 2048 : 8192;
    s.graph = {GraphKind::Hnd, n, 8, 0.1};
    s.byzGamma = 0.55;
    s.protocol = ProtocolKind::Agreement;
    s.agreementParams.initialOnesFraction = 0.7;
    s.agreementEstimate = 0.0;  // oracle L = ln n
    s.shards = 4;
    w.quality = Quality::Agreeing;
    batch(4, 20);
  } else if (name == "churn-exodus") {
    const NodeId n = tiny ? 512 : 2048;
    s.graph = {GraphKind::Hnd, n, 8, 0.1};
    s.placement.count = 8;
    s.protocol = ProtocolKind::Pipeline;
    s.pipelineParams.agreement.initialOnesFraction = 0.7;
    s.pipelineParams.agreement.walkLengthFactor = 0.5;
    s.pipelineParams.estimateSafetyFactor = 1.5;
    s.pipelineParams.countingLimits.maxPhase = maxPhaseFor(n, 4);
    s.churn = ChurnSchedule::massExodus(6, 0.5, /*atEpoch=*/3);
    s.churn.pipelineDepth = 2;
    w.quality = Quality::Agreeing;
    batch(12, 72);
  } else if (name == "count-flood") {
    const NodeId n = tiny ? 1024 : 2048;
    s.graph = {GraphKind::Hnd, n, 8, 0.1};
    s.byzGamma = 0.55;
    s.protocol = ProtocolKind::Beacon;
    s.beaconAdversary = BeaconAdversaryProfile::flooder();
    s.beaconLimits.maxPhase = maxPhaseFor(n, 3);
    s.beaconLimits.maxTotalRounds = 60'000;
    s.shards = 1;
    w.quality = Quality::Decided;
    w.qualityFloor = 0.8;
    batch(2, 80);
  } else {
    return false;
  }
  return true;
}

double qualityOf(const Workload& w, const TrialOutcome& o) {
  switch (w.quality) {
    case Quality::WithinWindow: return o.quality.fracWithinWindow;
    case Quality::Decided: return o.quality.fracDecided;
    case Quality::Agreeing:
      return w.spec.churn.enabled() ? o.extra[kChurnLastAgree] : o.extra[kAgreementFracAgreeing];
  }
  return 0.0;
}

// --- one batch of trials through the public API -----------------------------

/// One repetition: the workload's spec.trials trials, run in index order.
/// Each trial index has its own graph and placement, so a batch's cost
/// averages over several inputs drawn from the seed.
struct BatchRun {
  double wallS = 0.0;
  std::uint64_t fingerprint = 0;
  std::vector<TrialOutcome> outcomes;  ///< indexed by trial
  /// Totals over the batch's trials.
  double rounds = 0.0, messages = 0.0, bits = 0.0;
  double nodeRounds = 0.0;  ///< sum over engine runs of live n x simulated rounds
};

BatchRun runBatch(ExperimentRunner& runner, const Workload& w) {
  const ScenarioSpec& spec = w.spec;
  std::vector<double> nodeRounds(spec.trials, 0.0);
  const auto fn = [&](std::uint32_t index) -> TrialOutcome {
    if (spec.churn.enabled()) {
      ChurnTrialResult r = runChurnTrialDetailed(spec, index);
      for (const EpochReport& e : r.epochs)
        nodeRounds[index] += static_cast<double>(e.liveN) * static_cast<double>(e.rounds);
      return std::move(r.outcome);
    }
    MaterializedTrial t = materializeTrial(spec, index);
    TrialOutcome o = runProtocolTrial(spec, t.graph, t.byz, std::move(t.runRng));
    nodeRounds[index] = static_cast<double>(t.graph.numNodes()) * static_cast<double>(o.totalRounds);
    return o;
  };
  const auto t0 = Clock::now();
  ExperimentSummary summary = runner.runCustom(spec.name, spec.trials, fn);
  BatchRun run;
  run.wallS = secondsSince(t0);
  run.fingerprint = summary.combinedFingerprint;
  run.outcomes = std::move(summary.perTrial);
  for (std::size_t i = 0; i < run.outcomes.size(); ++i) {
    const TrialOutcome& o = run.outcomes[i];
    run.rounds += static_cast<double>(o.totalRounds);
    run.messages += static_cast<double>(o.totalMessages);
    run.bits += static_cast<double>(o.totalBits);
    run.nodeRounds += nodeRounds[i];
  }
  return run;
}

// --- metrics -----------------------------------------------------------------

struct Metric {
  std::string unit;
  double value = 0.0;
};
using Metrics = std::map<std::string, Metric>;

/// Per-layer figures of one traced batch, folded from its trials' event
/// buffers: times and counts are totals over the batch.
struct Fold {
  Metrics m;
  double messages = 0.0, bits = 0.0, rounds = 0.0, skipped = 0.0;
  double engineS = 0.0, trialS = 0.0;
};

Fold foldTraces(const std::vector<obs::TrialTrace>& traces,
                const std::vector<TrialOutcome>& outcomes) {
  std::map<std::string, double> spanS, totals;
  double recvNs = 0, mergeNs = 0, scatterNs = 0, sends = 0, touched = 0;
  double laneMax = 0, laneSum = 0, launched = 0, phases = 0, maxWalk = 0;
  std::vector<double> roundMs;
  Fold f;
  for (const obs::TrialTrace& trace : traces) {
    // Running-total counters restart with each protocol run, and each churn
    // recount traces into its own lane, so a trial's total is the sum over
    // lanes of each lane's last value.
    std::map<std::string, std::map<std::uint32_t, double>> lastByLane;
    // beacon.phase repeats its value once per iteration of a phase, so a
    // phase starts where a lane's value changes (a new protocol run restarts
    // at 1).
    std::map<std::uint32_t, double> phaseByLane;
    for (const obs::TraceEvent& e : trace.events) {
      switch (e.kind) {
        case obs::EventKind::Round: {
          const obs::RoundRecord& r = e.rd;
          recvNs += static_cast<double>(r.recvNs);
          mergeNs += static_cast<double>(r.mergeNs);
          scatterNs += static_cast<double>(r.scatterNs);
          sends += r.sends;
          touched += r.touched;
          f.messages += static_cast<double>(r.messages);
          f.bits += static_cast<double>(r.bits);
          f.rounds += 1;
          roundMs.push_back(static_cast<double>(r.recvNs + r.mergeNs + r.scatterNs) * 1e-6);
          if (r.shards > 1) {
            std::uint32_t mx = 0, sum = 0;
            for (unsigned s = 0; s < r.shards; ++s) {
              mx = std::max(mx, r.laneSends[s]);
              sum += r.laneSends[s];
            }
            laneMax += static_cast<double>(mx) * r.shards;
            laneSum += sum;
          }
          break;
        }
        case obs::EventKind::Span: spanS[e.name] += static_cast<double>(e.durNs) * 1e-9; break;
        case obs::EventKind::Counter: {
          const std::string name = e.name;
          if (name == "agreement.tokensLaunched") launched += e.value;
          else if (name == "agreement.maxWalkLen") maxWalk = std::max(maxWalk, e.value);
          else if (name == "beacon.phase") {
            const auto [it, fresh] = phaseByLane.try_emplace(e.lane, e.value);
            if (fresh || it->second != e.value) phases += 1;
            it->second = e.value;
          }
          else lastByLane[name][e.lane] = e.value;
          break;
        }
        case obs::EventKind::Mark:
          if (std::strcmp(e.name, "engine.skipRounds") == 0) f.skipped += e.value;
          break;
      }
    }
    for (const auto& [name, lanes] : lastByLane)
      for (const auto& [lane, last] : lanes) totals[name] += last;
  }
  const auto total = [&](const char* name) { return totals[name]; };
  const auto span = [&](const char* name) { return spanS[name]; };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  f.engineS = (recvNs + mergeNs + scatterNs) * 1e-9;
  f.trialS = span("trial");
  Metrics& m = f.m;
  m["runtime.engine.recv_s"] = {"s", recvNs * 1e-9};
  m["runtime.engine.merge_s"] = {"s", mergeNs * 1e-9};
  m["runtime.engine.scatter_s"] = {"s", scatterNs * 1e-9};
  m["runtime.engine.rounds"] = {"count", f.rounds};
  m["runtime.engine.skipped_rounds"] = {"count", f.skipped};
  m["runtime.engine.sends"] = {"count", sends};
  m["runtime.engine.touched"] = {"count", touched};
  m["runtime.engine.ns_per_send"] = {"ns", ratio(recvNs + mergeNs + scatterNs, sends)};
  m["runtime.engine.round_ms_p50"] = {"ms", percentile(roundMs, 0.5)};
  // The highest percentile with at least ten rounds beyond it.
  const double tailP = roundMs.size() >= 1000 ? 0.99 : 0.9;
  m["runtime.engine.round_ms_tail"] = {"ms", percentile(roundMs, tailP)};
  m["runtime.engine.lane_imbalance"] = {"ratio", laneSum > 0 ? laneMax / laneSum : 1.0};
  m["runtime.runner.trial_s"] = {"s", f.trialS};

  const double insertions = total("beacon.blacklistInsertions");
  m["beacon.beacon_window_s"] = {"s", span("beacon.beaconWindow")};
  m["beacon.continue_window_s"] = {"s", span("beacon.continueWindow")};
  m["beacon.decisions_s"] = {"s", span("beacon.decisions")};
  m["beacon.beacons_generated"] = {"count", total("beacon.beaconsGenerated")};
  m["beacon.blacklist_insertions"] = {"count", insertions};
  m["beacon.phases"] = {"count", phases};
  m["beacon.decisions_ns_per_insertion"] = {"ns",
                                             ratio(span("beacon.decisions") * 1e9, insertions)};

  m["adversary.beacon.forged"] = {"count", total("beacon.adversary.forged")};
  m["adversary.beacon.suppressed"] = {"count", total("beacon.adversary.suppressed")};
  m["adversary.walk.forged"] = {"count", total("agreement.adversary.forged")};
  m["adversary.walk.dropped"] = {"count", total("agreement.adversary.dropped")};

  const double answered = total("agreement.answered");
  const double compromised = total("agreement.compromised");
  m["agreement.iteration_s"] = {"s", span("agreement.iteration")};
  m["agreement.tokens_launched"] = {"count", launched};
  m["agreement.answered"] = {"count", answered};
  m["agreement.compromised"] = {"count", compromised};
  m["agreement.compromised_frac"] = {"fraction", ratio(compromised, answered)};
  m["agreement.max_walk_len"] = {"count", maxWalk};
  m["pipeline.counting_s"] = {"s", span("pipeline.counting")};
  m["pipeline.agreement_s"] = {"s", span("pipeline.agreement")};

  double gapProbeIters = 0;
  for (const TrialOutcome& o : outcomes)
    if (o.extra.size() == kChurnExtraSlots) gapProbeIters += o.extra[kChurnGapProbeIters];
  m["churn.overlay_repair_s"] = {"s", span("overlay.repair")};
  m["churn.overlay_snapshot_s"] = {"s", span("overlay.snapshot")};
  m["churn.gap_probe_s"] = {"s", span("epoch.gapProbe")};
  m["churn.recount_s"] = {"s", span("epoch.recount")};
  m["churn.finalize_s"] = {"s", span("epoch.finalize")};
  m["churn.gap_probe_iters"] = {"count", gapProbeIters};
  m["churn.recount_overlap"] = {"ratio", ratio(span("epoch.recount"), f.trialS)};

  double events = 0;
  for (const obs::TrialTrace& trace : traces) events += static_cast<double>(trace.events.size());
  m["obs.trace_events"] = {"count", events};
  return f;
}

/// Medians of each named metric over the traced repetitions.
Metrics medianOf(const std::vector<Metrics>& runs) {
  Metrics out;
  for (const auto& [name, metric] : runs.front()) {
    std::vector<double> v;
    for (const Metrics& r : runs) v.push_back(r.at(name).value);
    out[name] = {metric.unit, median(v)};
  }
  return out;
}

// --- output --------------------------------------------------------------------

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Result {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  Metrics metrics;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void print(std::ostream& os) const {
    std::ostringstream fp;
    fp << "0x" << std::hex << fingerprint;
    os << "{\"workload\":\"" << workload << "\",\"seed\":" << seed << ",\"fingerprint\":\""
       << fp.str() << "\",\"correct\":" << (failures.empty() && failed == 0 ? "true" : "false")
       << ",\"attempted\":" << attempted << ",\"failed\":" << failed << ",\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i)
      os << (i ? "," : "") << '"' << failures[i] << '"';
    os << "],\"metrics\":{";
    bool first = true;
    for (const auto& [name, metric] : metrics) {
      os << (first ? "" : ",") << '"' << name << "\":{\"value\":" << jsonNumber(metric.value)
         << ",\"unit\":\"" << metric.unit << "\"}";
      first = false;
    }
    os << "}}\n";
  }
};

int usage(const char* why) {
  std::cerr << "bzc_perfbench: " << why
            << "\nusage: bzc_perfbench --workload <count-8k|agree-8k|churn-exodus|count-flood>"
               " --seed <n> --seconds <s> --trace <0|1> [--tiny]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workloadName;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int traceMode = -1;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool hasValue = i + 1 < argc;
    if (arg == "--tiny") {
      tiny = true;
    } else if (arg == "--workload" && hasValue) {
      workloadName = argv[++i];
    } else if (arg == "--seed" && hasValue) {
      seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && hasValue) {
      seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && hasValue) {
      traceMode = std::stoi(argv[++i]);
    } else {
      return usage(("unexpected argument " + arg).c_str());
    }
  }
  if (seconds < 0 || (traceMode != 0 && traceMode != 1)) return usage("missing arguments");
  Workload w;
  if (!makeWorkload(workloadName, seed, tiny, w)) return usage("unknown workload");

  Result res;
  res.workload = workloadName;
  res.seed = seed;
  // Tracing stays off unless this binary turns it on, whatever BZC_TRACE says.
  obs::ensureEnvTraceConfig();
  obs::setTraceSink(nullptr);
  ExperimentRunner runner(1);  // the trial's engine owns its shard / pipeline workers

  // Set-up: a trial's graph, placement and stream forks, timed on their own
  // in a fixed-count burst over the batch's trial indices before every
  // repetition, so the set-up median samples the same stretch of time and
  // the same inputs the trials do.
  std::vector<double> setupS, graphS, placeS;
  std::uint64_t setupRep = 0;
  const auto timeSetup = [&] {
    for (int i = 0; i < w.setupReps; ++i) {
      const auto t0 = Clock::now();
      const MaterializedTrial t = materializeTrial(w.spec, i % w.spec.trials);
      setupS.push_back(secondsSince(t0));
      if (traceMode == 0) continue;
      // The two layers materializeTrial composes, on a stream of their own.
      Rng rng = Rng(seed).fork(setupRep++);
      const auto g0 = Clock::now();
      const Graph g = buildGraph(w.spec.graph, rng);
      graphS.push_back(secondsSince(g0));
      PlacementSpec placement = w.spec.placement;
      if (w.spec.byzGamma > 0.0) placement.count = byzantineBudget(w.spec.graph.n, w.spec.byzGamma);
      const auto p0 = Clock::now();
      const ByzantineSet byz = placeByzantine(g, placement, rng);
      placeS.push_back(secondsSince(p0));
    }
  };

  // Each repetition must reproduce the first one's outputs exactly, and a
  // repetition fails when any of its checks fails.
  bool haveReference = false;
  const auto checkOutputs = [&](const BatchRun& run, const std::string& kind) {
    if (!haveReference) {
      res.fingerprint = run.fingerprint;
      haveReference = true;
    }
    res.check(run.fingerprint == res.fingerprint, kind + " fingerprint differs");
    for (std::size_t i = 0; i < run.outcomes.size(); ++i) {
      const TrialOutcome& o = run.outcomes[i];
      const std::string trial = kind + " trial " + std::to_string(i);
      res.check(!o.hitRoundCap, trial + " hit the round cap");
      const double q = qualityOf(w, o);
      res.check(q >= w.qualityFloor,
                trial + " quality " + jsonNumber(q) + " below floor " + jsonNumber(w.qualityFloor));
      if (w.spec.protocol == ProtocolKind::Pipeline) {
        res.check(o.quality.fracWithinWindow >= w.qualityFloor,
                  trial + " counting stage within-window fraction " +
                      jsonNumber(o.quality.fracWithinWindow) + " below floor");
      }
    }
  };
  const auto countTrial = [&](std::size_t failuresBefore) {
    ++res.attempted;
    if (res.failures.size() != failuresBefore) ++res.failed;
  };

  const unsigned lanes = w.spec.churn.enabled() ? w.spec.churn.pipelineDepth : 1;
  const double mainSeconds = traceMode == 0 ? seconds : seconds * 2.0 / 3.0;
  std::vector<double> wallS;
  std::vector<Metrics> layers;
  // Warm-up: one checked but untimed repetition fills the caches and the
  // allocator's free lists before any timing starts.
  const std::size_t warmBefore = res.failures.size();
  BatchRun last = runBatch(runner, w);
  checkOutputs(last, "warm-up");
  countTrial(warmBefore);
  Budget budget(mainSeconds - last.wallS);
  do {
    timeSetup();
    std::size_t before = res.failures.size();
    last = runBatch(runner, w);
    checkOutputs(last, "untraced");
    countTrial(before);
    wallS.push_back(last.wallS);
    if (traceMode == 0) continue;

    before = res.failures.size();
    const auto sink = std::make_shared<obs::CapturingTraceSink>();
    obs::setTraceSink(sink, w.spec.trials);
    const BatchRun traced = runBatch(runner, w);
    obs::setTraceSink(nullptr);
    checkOutputs(traced, "traced");
    res.check(sink->traces().size() == w.spec.trials, "a traced trial produced no trace");
    if (sink->traces().size() != w.spec.trials) {
      countTrial(before);
      break;
    }
    // Tracing only observes, so the traces must reconcile with the meter.
    const Fold f = foldTraces(sink->traces(), traced.outcomes);
    res.check(f.messages == traced.messages, "trace messages " + jsonNumber(f.messages) +
                                                 " != meter " + jsonNumber(traced.messages));
    res.check(f.bits == traced.bits,
              "trace bits " + jsonNumber(f.bits) + " != meter " + jsonNumber(traced.bits));
    res.check(f.rounds + f.skipped == traced.rounds,
              "trace rounds + skips " + jsonNumber(f.rounds + f.skipped) + " != " +
                  jsonNumber(traced.rounds));
    res.check(f.engineS <= f.trialS * lanes,
              "engine phases " + jsonNumber(f.engineS) + " s exceed trial span " +
                  jsonNumber(f.trialS) + " s x " + std::to_string(lanes) + " lanes");
    countTrial(before);
    layers.push_back(f.m);
  } while (budget.another());

  // Tracing overhead: pairs of tiny-form trials, traced first in every other
  // pair so that drift within a pair cancels over the median. Each pair is
  // checked to reproduce the first tiny trial's fingerprint.
  std::vector<double> overheadRatios;
  if (traceMode == 1) {
    Workload small;
    makeWorkload(workloadName, seed, /*tiny=*/true, small);
    std::vector<std::uint64_t> smallPrints;
    const auto timedTrial = [&](bool traced) {
      const auto sink = std::make_shared<obs::CapturingTraceSink>();
      if (traced) obs::setTraceSink(sink, small.spec.trials);
      const BatchRun run = runBatch(runner, small);
      obs::setTraceSink(nullptr);
      smallPrints.push_back(run.fingerprint);
      res.check(run.fingerprint == smallPrints.front(),
                std::string(traced ? "traced" : "untraced") + " tiny-form fingerprint differs");
      return run.wallS;
    };
    Budget overheadBudget(seconds - mainSeconds);
    do {
      const std::size_t before = res.failures.size();
      const bool tracedFirst = overheadRatios.size() % 2 == 1;
      const double first = timedTrial(tracedFirst);
      const double second = timedTrial(!tracedFirst);
      overheadRatios.push_back(tracedFirst ? first / second : second / first);
      countTrial(before);
    } while (overheadBudget.another());
  }

  if (traceMode == 0) {
    const double wall = median(wallS);
    double quality = 0;
    for (const TrialOutcome& o : last.outcomes) quality += qualityOf(w, o);
    res.metrics["wall_s"] = {"s", wall};
    res.metrics["setup_s"] = {"s", median(setupS)};
    res.metrics["peak_rss_mb"] = {"MB", peakRssMb()};
    res.metrics["ns_per_message"] = {"ns", wall * 1e9 / last.messages};
    res.metrics["ns_per_node_round"] = {"ns", wall * 1e9 / last.nodeRounds};
    res.metrics["sim_rounds"] = {"count", last.rounds};
    res.metrics["sim_messages"] = {"count", last.messages};
    res.metrics["sim_bits"] = {"count", last.bits};
    res.metrics["quality_frac"] = {"fraction", quality / static_cast<double>(last.outcomes.size())};
  } else if (!layers.empty()) {
    res.metrics = medianOf(layers);
    res.metrics["graph.build_s"] = {"s", median(graphS)};
    res.metrics["sim.place_s"] = {"s", median(placeS)};
    res.metrics["obs.trace_overhead_frac"] = {"fraction", median(overheadRatios) - 1.0};
  }
  std::cout << "workload=" << workloadName << " seed=" << seed << " untraced_s=";
  for (std::size_t i = 0; i < wallS.size(); ++i) std::cout << (i ? "," : "") << wallS[i];
  std::cout << " tiny_pairs=" << overheadRatios.size() << '\n';
  res.print(std::cout);
  return 0;
}
