// Tests for the pluggable walk-adversary subsystem (src/adversary/):
// strategy semantics via paired-run identities (same seed => identical token
// trajectories, so effects are exact, not statistical), coalition blackboard
// behaviour, the declarative profile path, and thread-count invariance of
// every gallery strategy under the ExperimentRunner.
#include <gtest/gtest.h>

#include <cmath>

#include "adversary/profile.hpp"
#include "adversary/strategies.hpp"
#include "adversary/walk_adversary.hpp"
#include "agreement/majority.hpp"
#include "agreement/pipeline.hpp"
#include "graph/generators.hpp"
#include "runtime/experiment.hpp"
#include "runtime/fingerprint.hpp"
#include "support/rng.hpp"

namespace bzc {
namespace {

// ---------------------------------------------------------------------------
// Shared paired-run fixture: one graph + Byzantine set + seed, different
// strategies. Walk-token trajectories are pure functions of the seed and
// never consult the adversary, so two runs differing only in the attack
// profile see bit-identical walks — set identities between their counters
// are exact.
// ---------------------------------------------------------------------------

struct PairedRun {
  Graph g;
  ByzantineSet byz;

  static PairedRun make() {
    Rng gen(50);
    Graph g = hnd(512, 8, gen);
    PlacementSpec spec;
    spec.kind = Placement::Random;
    spec.count = 12;
    Rng prng(51);
    ByzantineSet byz = placeByzantine(g, spec, prng);
    return {std::move(g), std::move(byz)};
  }

  [[nodiscard]] AgreementOutcome run(const AgreementAttackProfile& attack,
                                     NodeId victim = 0) const {
    AgreementParams params;
    params.initialOnesFraction = 0.7;
    params.attack = attack;
    params.victim = victim;
    Rng rng(52);
    return runMajorityAgreement(g, byz, std::log(512.0), params, rng);
  }
};

TEST(AdaptiveMinority, ExplicitProfileMatchesDefaultBitForBit) {
  const PairedRun fx = PairedRun::make();
  AgreementParams defaults;
  defaults.initialOnesFraction = 0.7;
  Rng r1(52);
  const AgreementOutcome viaDefault =
      runMajorityAgreement(fx.g, fx.byz, std::log(512.0), defaults, r1);
  const AgreementOutcome viaProfile = fx.run(AgreementAttackProfile::adaptiveMinority());
  EXPECT_EQ(fingerprint(viaDefault, fx.g.numNodes()), fingerprint(viaProfile, fx.g.numNodes()));
  // The adaptive adversary forges exactly the samples it tainted, and every
  // launched sample resolves (nothing is dropped or misrouted).
  EXPECT_EQ(viaProfile.adversary.forgedAnswers, viaProfile.compromisedSamples);
  EXPECT_EQ(viaProfile.adversary.droppedQueries, 0u);
  EXPECT_EQ(viaProfile.adversary.strayAnswers, 0u);
  EXPECT_GT(viaProfile.compromisedSamples, 0u);
}

TEST(TokenDropper, StrictlyReducesAnsweredSamples) {
  const PairedRun fx = PairedRun::make();
  const AgreementOutcome adaptive = fx.run(AgreementAttackProfile::adaptiveMinority());
  const AgreementOutcome dropped = fx.run(AgreementAttackProfile::dropper(1.0));
  ASSERT_GT(adaptive.compromisedSamples, 0u);  // the walks do cross the adversary
  // Exact identities: the dropper discards precisely the tokens the adaptive
  // adversary would have tainted (same trajectories up to first contact),
  // and every surviving token resolves honestly.
  EXPECT_EQ(dropped.adversary.droppedQueries, adaptive.compromisedSamples);
  EXPECT_EQ(dropped.answeredSamples + dropped.adversary.droppedQueries,
            adaptive.answeredSamples);
  EXPECT_LT(dropped.answeredSamples, adaptive.answeredSamples);  // strict reduction
  EXPECT_EQ(dropped.compromisedSamples, 0u);  // dropped tokens never report back
  EXPECT_EQ(dropped.adversary.forgedAnswers, 0u);
  // Starving samples is weaker pressure than lying: convergence at this
  // budget survives it.
  EXPECT_GT(dropped.fracAgreeing, 0.9);
}

TEST(TokenDropper, ZeroProbabilityIsHarmless) {
  const PairedRun fx = PairedRun::make();
  const AgreementOutcome out = fx.run(AgreementAttackProfile::dropper(0.0));
  EXPECT_EQ(out.adversary.droppedQueries, 0u);
  EXPECT_EQ(out.answeredSamples, fx.run(AgreementAttackProfile::adaptiveMinority()).answeredSamples);
}

TEST(AnswerFlipper, CompromisesIffReturnPathCrossesByzantine) {
  const PairedRun fx = PairedRun::make();
  const AgreementOutcome adaptive = fx.run(AgreementAttackProfile::adaptiveMinority());
  const AgreementOutcome flipped = fx.run(AgreementAttackProfile::flipper(1.0));
  // The return leg retraces the outbound walk (endpoint included: a walk
  // ending on the adversary has its answer authored there), so the set of
  // compromised samples is exactly the adaptive adversary's taint set.
  EXPECT_EQ(flipped.compromisedSamples, adaptive.compromisedSamples);
  EXPECT_GT(flipped.compromisedSamples, 0u);
  // Every answer still arrives — flipping corrupts, it does not starve.
  EXPECT_EQ(flipped.answeredSamples, adaptive.answeredSamples);
  EXPECT_EQ(flipped.adversary.droppedQueries, 0u);
  EXPECT_EQ(flipped.adversary.strayAnswers, 0u);
  // A token crossing k Byzantine relays is flipped k times, so flip events
  // alone can exceed the compromised count; together with endpoint forgeries
  // they must cover it.
  EXPECT_GE(flipped.adversary.flippedAnswers + flipped.adversary.forgedAnswers,
            flipped.compromisedSamples);
  EXPECT_GT(flipped.adversary.flippedAnswers, 0u);
}

TEST(AnswerFlipper, ZeroProbabilityOnlyForgesAtByzantineEndpoints) {
  const PairedRun fx = PairedRun::make();
  const AgreementOutcome out = fx.run(AgreementAttackProfile::flipper(0.0));
  EXPECT_EQ(out.adversary.flippedAnswers, 0u);
  EXPECT_EQ(out.compromisedSamples, out.adversary.forgedAnswers);
}

TEST(PathTamperer, MisroutedAnswersGoStrayAndOriginsFallBack) {
  const PairedRun fx = PairedRun::make();
  const AgreementOutcome adaptive = fx.run(AgreementAttackProfile::adaptiveMinority());
  const AgreementOutcome tampered = fx.run(AgreementAttackProfile::tamperer(1.0));
  EXPECT_GT(tampered.adversary.misroutedAnswers, 0u);
  // Every launched sample either resolves at its origin or dies as a stray
  // at the misroute target — an exact partition.
  EXPECT_EQ(tampered.answeredSamples + tampered.adversary.strayAnswers,
            adaptive.answeredSamples);
  EXPECT_GE(tampered.adversary.misroutedAnswers, tampered.adversary.strayAnswers);
  EXPECT_LT(tampered.answeredSamples, adaptive.answeredSamples);
  // The tamperer never touches a carried bit, so misrouting does not mark a
  // token compromised: the only adversary-controlled answers are those
  // authored at Byzantine walk endpoints, and only the ones that survive the
  // return trip reach an origin.
  EXPECT_LE(tampered.compromisedSamples, tampered.adversary.forgedAnswers);
}

TEST(VictimHunter, HitsGrowWithRadiusAndConcentrateOnVictim) {
  Rng gen(60);
  Graph g = hnd(512, 8, gen);
  PlacementSpec spec;
  spec.kind = Placement::Surround;
  spec.count = 24;
  spec.victim = 7;
  spec.moatRadius = 2;
  Rng prng(61);
  const ByzantineSet byz = placeByzantine(g, spec, prng);

  const auto runHunter = [&](std::uint32_t radius) {
    AgreementParams params;
    params.initialOnesFraction = 0.7;
    params.attack = AgreementAttackProfile::hunter(radius);
    params.victim = spec.victim;
    Rng rng(62);
    return runMajorityAgreement(g, byz, std::log(512.0), params, rng);
  };

  const AgreementOutcome near = runHunter(1);
  const AgreementOutcome wide = runHunter(3);
  // The hunter draws no randomness, so paired runs share trajectories and
  // hits are monotone in the targeting radius.
  EXPECT_GT(near.adversary.coalitionHits, 0u);
  EXPECT_LE(near.adversary.coalitionHits, wide.adversary.coalitionHits);
  // Only targeted samples and Byzantine-endpoint answers are adversarial.
  EXPECT_GE(near.compromisedSamples, near.adversary.coalitionHits);
  // Nothing is dropped or misrouted — the coalition lies, consistently.
  EXPECT_EQ(near.adversary.droppedQueries, 0u);
  EXPECT_EQ(near.adversary.strayAnswers, 0u);
}

TEST(VictimHunter, ForgeDistinguishesTargetedFromBystanderTokens) {
  const Graph g = ring(8);
  Coalition coalition;
  Rng rng(1);
  AdversaryStats stats;
  const auto hunter = makeVictimHunterAdversary(g, /*victim=*/0, /*radius=*/1);
  // 6 of 8 honest nodes hold 1: majority 1, minority 0.
  WalkContext ctx{2, 1, g, 6, 8, 0, coalition, rng, stats};
  WalkToken bystander;
  bystander.origin = 4;  // outside the victim's radius-1 neighbourhood
  EXPECT_EQ(hunter->onQuery(ctx, bystander).op, TokenAction::Op::Forward);
  EXPECT_FALSE(bystander.compromised);
  // A bystander walk ending on a coalition node is answered with the honest
  // majority — camouflage, not a lie.
  EXPECT_EQ(hunter->forgeAnswer(ctx, bystander), 1);
  WalkToken targeted;
  targeted.origin = 1;  // adjacent to the victim
  EXPECT_EQ(hunter->onQuery(ctx, targeted).op, TokenAction::Op::Forward);
  EXPECT_TRUE(targeted.compromised);
  ASSERT_TRUE(coalition.hasAgreedBit());
  EXPECT_EQ(coalition.agreedBit(), 0);  // locked on the minority
  EXPECT_EQ(hunter->forgeAnswer(ctx, targeted), 0);
  EXPECT_EQ(coalition.hits(), 1u);
}

TEST(Coalition, FirstWriterLocksTheBit) {
  Coalition c;
  EXPECT_FALSE(c.hasAgreedBit());
  c.agreeOn(1);
  EXPECT_TRUE(c.hasAgreedBit());
  EXPECT_EQ(c.agreedBit(), 1);
  c.agreeOn(0);  // later writers are ignored
  EXPECT_EQ(c.agreedBit(), 1);
  EXPECT_EQ(c.hits(), 0u);
  c.recordHit();
  c.recordHit();
  EXPECT_EQ(c.hits(), 2u);
}

TEST(CoalitionScore, CountsFlippedHonestNodesNearVictim) {
  const Graph g = ring(8);
  const ByzantineSet byz(8, {2});
  // Victim 0; radius 1 covers {0, 1, 7}. Majority bit 1; node 1 flipped.
  std::vector<std::uint8_t> values(8, 1);
  values[1] = 0;
  EXPECT_DOUBLE_EQ(coalitionScore(g, byz, 0, 1, values, 1), 1.0 / 3.0);
  // Radius 2 covers {0, 1, 2, 6, 7}; Byzantine 2 is excluded from scoring.
  values[6] = 0;
  EXPECT_DOUBLE_EQ(coalitionScore(g, byz, 0, 2, values, 1), 2.0 / 4.0);
  // A perfect outcome for the coalition: everyone near the victim flipped.
  std::fill(values.begin(), values.end(), 0);
  EXPECT_DOUBLE_EQ(coalitionScore(g, byz, 0, 1, values, 1), 1.0);
}

// ---------------------------------------------------------------------------
// Declarative path: attacks selectable purely from the ScenarioSpec, thread-
// count invariant under the ExperimentRunner (the acceptance criterion).
// ---------------------------------------------------------------------------

ScenarioSpec strategySpec(const AgreementAttackProfile& attack) {
  ScenarioSpec spec;
  spec.name = std::string("adversary-") + attack.name;
  spec.graph = {GraphKind::Hnd, 192, 8, 0.1};
  spec.placement.kind = attack.kind == WalkAttackKind::VictimHunter ? Placement::Surround
                                                                    : Placement::Random;
  spec.placement.count = 10;
  spec.placement.victim = 3;
  spec.placement.moatRadius = 2;
  spec.protocol = ProtocolKind::Agreement;
  spec.agreementParams.initialOnesFraction = 0.7;
  spec.agreementParams.attack = attack;
  spec.trials = 12;
  spec.masterSeed = 0xad5a;
  return spec;
}

TEST(AdversaryScenarios, EveryStrategyIsThreadCountInvariant) {
  const AgreementAttackProfile profiles[] = {
      AgreementAttackProfile::adaptiveMinority(), AgreementAttackProfile::dropper(0.8),
      AgreementAttackProfile::flipper(0.8),       AgreementAttackProfile::tamperer(0.8),
      AgreementAttackProfile::hunter(2),
  };
  for (const AgreementAttackProfile& profile : profiles) {
    const ScenarioSpec spec = strategySpec(profile);
    ExperimentSummary byThreads[3];
    const unsigned counts[3] = {1, 2, 8};
    for (int t = 0; t < 3; ++t) {
      ExperimentRunner runner(counts[t]);
      byThreads[t] = runner.run(spec);
    }
    for (int t = 1; t < 3; ++t) {
      EXPECT_EQ(byThreads[0].combinedFingerprint, byThreads[t].combinedFingerprint)
          << profile.name << " diverged at " << counts[t] << " threads";
    }
    ASSERT_EQ(byThreads[0].extras.size(), static_cast<std::size_t>(kAgreementExtraSlots))
        << profile.name;
  }
}

TEST(AdversaryScenarios, ExtrasExposeEachStrategysSignature) {
  ExperimentRunner runner(2);

  const ExperimentSummary dropped = runner.run(strategySpec(AgreementAttackProfile::dropper()));
  EXPECT_GT(dropped.extras[kAgreementDropped].min, 0.0);
  EXPECT_EQ(dropped.extras[kAgreementFlipped].max, 0.0);

  const ExperimentSummary flipped = runner.run(strategySpec(AgreementAttackProfile::flipper()));
  EXPECT_GT(flipped.extras[kAgreementFlipped].min, 0.0);
  EXPECT_EQ(flipped.extras[kAgreementDropped].max, 0.0);

  const ExperimentSummary tampered =
      runner.run(strategySpec(AgreementAttackProfile::tamperer()));
  EXPECT_GT(tampered.extras[kAgreementMisrouted].min, 0.0);

  const ExperimentSummary hunted = runner.run(strategySpec(AgreementAttackProfile::hunter(2)));
  EXPECT_GT(hunted.extras[kAgreementCoalitionHits].min, 0.0);

  const ExperimentSummary adaptive =
      runner.run(strategySpec(AgreementAttackProfile::adaptiveMinority()));
  EXPECT_EQ(adaptive.extras[kAgreementDropped].max, 0.0);
  EXPECT_EQ(adaptive.extras[kAgreementFlipped].max, 0.0);
  EXPECT_EQ(adaptive.extras[kAgreementMisrouted].max, 0.0);
  EXPECT_GT(adaptive.extras[kAgreementForged].min, 0.0);
  // Answered slots are observable for every strategy (2 per active node per
  // iteration minus adversary losses).
  EXPECT_GT(adaptive.extras[kAgreementAnswered].min, 0.0);
}

TEST(AdversaryScenarios, PipelineCarriesTheAttackProfile) {
  ScenarioSpec spec;
  spec.name = "adversary-pipeline-flipper";
  spec.graph = {GraphKind::Hnd, 128, 8, 0.1};
  spec.placement.kind = Placement::Random;
  spec.placement.count = 6;
  spec.protocol = ProtocolKind::Pipeline;
  spec.pipelineParams.agreement.initialOnesFraction = 0.7;
  spec.pipelineParams.agreement.walkLengthFactor = 0.5;
  spec.pipelineParams.agreement.attack = AgreementAttackProfile::flipper(1.0);
  spec.pipelineParams.countingLimits.maxPhase = 8;
  spec.pipelineParams.countingLimits.maxTotalRounds = 20'000;
  spec.trials = 8;
  spec.masterSeed = 0xad5b;
  ExperimentRunner runner(2);
  const ExperimentSummary s = runner.run(spec);
  EXPECT_GT(s.extras[kAgreementFlipped].min, 0.0);
  ExperimentRunner serial(1);
  EXPECT_EQ(serial.run(spec).combinedFingerprint, s.combinedFingerprint);
}

TEST(Profiles, NamesAndKnobsRoundTrip) {
  EXPECT_STREQ(walkAttackKindName(WalkAttackKind::TokenDropper), "token-dropper");
  EXPECT_EQ(AgreementAttackProfile::adaptiveMinority().name, "adaptive-minority");
  EXPECT_EQ(AgreementAttackProfile::dropper(0.25).dropProbability, 0.25);
  EXPECT_EQ(AgreementAttackProfile::flipper(0.5).flipProbability, 0.5);
  EXPECT_EQ(AgreementAttackProfile::tamperer(0.75).tamperProbability, 0.75);
  EXPECT_EQ(AgreementAttackProfile::hunter(4).huntRadius, 4u);
  EXPECT_EQ(AgreementAttackProfile::hunter(4).name, "victim-hunter");
}

}  // namespace
}  // namespace bzc
