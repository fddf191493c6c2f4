/**
 * @file
 * Tests for the real-time step governor (physics/governor).
 *
 * The contract under test: with no frameBudget the governor is inert
 * and the trajectory is untouched; with a budget and a mocked clock
 * the degradation ladder walks deterministically, respects its
 * iteration floors, recovers with hysteresis, and its decision trace
 * is bitwise reproducible across runs and worker counts.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "physics/debug/invariants.hh"
#include "physics/governor/governor.hh"
#include "physics/world.hh"
#include "workload/benchmarks.hh"

namespace parallax
{
namespace
{

constexpr double kFrameBudget = 0.033; // 3 substeps of 11 ms.

WorldConfig
mixConfig(unsigned workers = 0)
{
    WorldConfig config;
    config.workerThreads = workers;
    return config;
}

std::vector<double>
worldState(const World &world)
{
    std::vector<double> state;
    for (const auto &body : world.bodies()) {
        const Vec3 &p = body->position();
        const Vec3 &lv = body->linearVelocity();
        state.insert(state.end(), {p.x, p.y, p.z, lv.x, lv.y, lv.z});
    }
    for (const auto &cloth : world.cloths()) {
        for (const auto &particle : cloth->particles()) {
            state.push_back(particle.position.x);
            state.push_back(particle.position.y);
            state.push_back(particle.position.z);
        }
    }
    return state;
}

/** One governor decision, recorded per step for trace comparison. */
struct Decision
{
    int level;
    int solver;
    int cloth;
    bool defer;
    bool throttle;
    std::uint64_t deferred;

    bool
    operator==(const Decision &o) const
    {
        return level == o.level && solver == o.solver &&
               cloth == o.cloth && defer == o.defer &&
               throttle == o.throttle && deferred == o.deferred;
    }
};

/** A mocked clock: over budget on steps [20, 60), calm otherwise. */
double
spikySchedule(std::uint64_t step, PipelinePhase)
{
    return step >= 20 && step < 60 ? 0.004 : 0.0001;
}

std::vector<Decision>
runGovernedMix(unsigned workers, int steps,
               double (*schedule)(std::uint64_t, PipelinePhase),
               std::vector<double> *final_state = nullptr)
{
    WorldConfig config = mixConfig(workers);
    config.frameBudget = kFrameBudget;
    config.mockPhaseTime = schedule;
    auto world = buildBenchmark(BenchmarkId::Mix, config, 0.12);
    std::vector<Decision> trace;
    for (int i = 0; i < steps; ++i) {
        world->step();
        const GovernorStats &g = world->lastStepStats().governor;
        trace.push_back(Decision{g.ladderLevel, g.solverIterations,
                                 g.clothIterations,
                                 g.narrowphaseDeferral,
                                 g.effectsThrottled, g.pairsDeferred});
    }
    if (final_state != nullptr)
        *final_state = worldState(*world);
    return trace;
}

// --- StepGovernor unit tests (pure ladder math, no world). ---

TEST(StepGovernor, LadderPlansWalkIterationsToFloors)
{
    const StepGovernor gov(kFrameBudget, GovernorTuning(), 20, 20);
    EXPECT_DOUBLE_EQ(gov.substepBudget(), kFrameBudget / 3.0);

    // Levels 1-3 walk the solver 20 -> 16 -> 12 -> 8; levels 4-5
    // walk cloth 20 -> 14 -> 8; 6 defers narrowphase; 7 throttles.
    const int solver[] = {20, 16, 12, 8, 8, 8, 8, 8};
    const int cloth[] = {20, 20, 20, 20, 14, 8, 8, 8};
    for (int level = 0; level <= StepGovernor::maxLadderLevel;
         ++level) {
        const StepGovernor::Plan plan = gov.planForLevel(level);
        EXPECT_EQ(plan.solverIterations, solver[level]) << level;
        EXPECT_EQ(plan.clothIterations, cloth[level]) << level;
        EXPECT_EQ(plan.deferNarrowphase, level >= 6) << level;
        EXPECT_EQ(plan.throttleEffects, level >= 7) << level;
        EXPECT_GE(plan.solverIterations, gov.solverIterationFloor());
        EXPECT_GE(plan.clothIterations, gov.clothIterationFloor());
    }
}

TEST(StepGovernor, FloorsNeverExceedConfiguredIterations)
{
    // A floor above the configured count must clamp down, not
    // "degrade" quality upward.
    const StepGovernor gov(kFrameBudget, GovernorTuning(), 4, 6);
    EXPECT_EQ(gov.solverIterationFloor(), 4);
    EXPECT_EQ(gov.clothIterationFloor(), 6);
    const StepGovernor::Plan floor =
        gov.planForLevel(StepGovernor::maxLadderLevel);
    EXPECT_EQ(floor.solverIterations, 4);
    EXPECT_EQ(floor.clothIterations, 6);
}

TEST(StepGovernor, EscalatesOneRungPerOverBudgetStep)
{
    StepGovernor gov(kFrameBudget, GovernorTuning(), 20, 20);
    const double over = gov.substepBudget() * 2.0;
    for (int expected = 1;
         expected <= StepGovernor::maxLadderLevel + 2; ++expected) {
        const StepGovernor::Plan plan = gov.planStep(over);
        EXPECT_EQ(plan.level,
                  std::min(expected, StepGovernor::maxLadderLevel));
    }
    EXPECT_EQ(gov.stats().degradations,
              static_cast<std::uint64_t>(
                  StepGovernor::maxLadderLevel));
}

TEST(StepGovernor, RecoveryNeedsSustainedCalmBelowHysteresisBand)
{
    GovernorTuning tuning;
    tuning.recoverySteps = 5;
    tuning.hysteresis = 0.25;
    StepGovernor gov(kFrameBudget, tuning, 20, 20);
    const double budget = gov.substepBudget();
    gov.planStep(budget * 2.0); // -> level 1.
    ASSERT_EQ(gov.stats().ladderLevel, 1);

    // In the dead band between calm and over budget: hold the rung.
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(gov.planStep(budget * 0.9).level, 1);

    // Calm steps recover only after `recoverySteps` in a row, and a
    // single loud step resets the streak.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(gov.planStep(budget * 0.1).level, 1);
    EXPECT_EQ(gov.planStep(budget * 0.9).level, 1); // Streak reset.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(gov.planStep(budget * 0.1).level, 1);
    EXPECT_EQ(gov.planStep(budget * 0.1).level, 0);
    EXPECT_EQ(gov.stats().recoveries, 1u);
}

// --- World integration (mocked clock). ---

TEST(Governor, InactiveByDefault)
{
    auto world = buildBenchmark(BenchmarkId::Mix, mixConfig(), 0.12);
    for (int i = 0; i < 5; ++i)
        world->step();
    const GovernorStats &g = world->lastStepStats().governor;
    EXPECT_FALSE(g.active);
    EXPECT_EQ(g.ladderLevel, 0);
    EXPECT_EQ(g.degradations, 0u);
    EXPECT_EQ(world->lastStepStats().faultsInjected, 0u);
}

TEST(Governor, GenerousBudgetLeavesTrajectoryBitwiseUnchanged)
{
    WorldConfig off = mixConfig();
    auto base = buildBenchmark(BenchmarkId::Mix, off, 0.12);

    WorldConfig governed = mixConfig();
    governed.frameBudget = 1.0e9; // Active but never over budget.
    auto world = buildBenchmark(BenchmarkId::Mix, governed, 0.12);

    for (int i = 0; i < 60; ++i) {
        base->step();
        world->step();
    }
    EXPECT_TRUE(world->lastStepStats().governor.active);
    EXPECT_EQ(world->lastStepStats().governor.degradations, 0u);

    const std::vector<double> a = worldState(*base);
    const std::vector<double> b = worldState(*world);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          a.size() * sizeof(double)),
              0)
        << "an idle governor must not perturb the simulation";
}

TEST(Governor, MockedClockWalksLadderAndRecovers)
{
    const std::vector<Decision> trace =
        runGovernedMix(0, 100, spikySchedule);

    // Full quality before the spike.
    EXPECT_EQ(trace[19].level, 0);
    // The spike's measured overrun lands at the *next* step's plan:
    // one rung per step from there.
    EXPECT_EQ(trace[21].level, 1);
    EXPECT_EQ(trace[23].level, 3);
    EXPECT_EQ(trace[23].solver, 8);
    // 0.02 s per step stays over an 11 ms budget even at the ladder
    // floor, so the spike drives it all the way up.
    EXPECT_EQ(trace[28].level, 7);
    EXPECT_TRUE(trace[28].defer);
    EXPECT_TRUE(trace[28].throttle);
    EXPECT_EQ(trace[28].solver, 8);
    EXPECT_EQ(trace[28].cloth, 8);
    // After the spike, hysteresis restores one rung per 5 calm steps;
    // by step 99 the ladder is fully recovered.
    EXPECT_EQ(trace[99].level, 0);
    EXPECT_EQ(trace[99].solver, 20);

    // Floors hold at every step.
    for (const Decision &d : trace) {
        EXPECT_GE(d.solver, 8);
        EXPECT_GE(d.cloth, 8);
    }
}

TEST(Governor, DecisionTraceIsDeterministicAcrossRunsAndWorkers)
{
    std::vector<double> state_a;
    std::vector<double> state_b;
    const std::vector<Decision> a =
        runGovernedMix(0, 80, spikySchedule, &state_a);
    const std::vector<Decision> b =
        runGovernedMix(0, 80, spikySchedule, &state_b);
    EXPECT_TRUE(a == b) << "same run, same decisions";
    ASSERT_EQ(state_a.size(), state_b.size());
    EXPECT_EQ(std::memcmp(state_a.data(), state_b.data(),
                          state_a.size() * sizeof(double)),
              0);

    const std::vector<Decision> threaded =
        runGovernedMix(2, 80, spikySchedule, &state_b);
    EXPECT_TRUE(a == threaded)
        << "degradation decisions must not depend on worker count";
    ASSERT_EQ(state_a.size(), state_b.size());
    EXPECT_EQ(std::memcmp(state_a.data(), state_b.data(),
                          state_a.size() * sizeof(double)),
              0)
        << "degraded trajectory diverged across worker counts";
}

TEST(Governor, DeferralSkipsPairsAndKeepsWorldHealthy)
{
    // A permanently over-budget clock pins the ladder at level 7:
    // narrowphase deferral must actually skip calm pairs on odd
    // steps, and the degraded world must still satisfy every
    // invariant.
    const auto always_over = [](std::uint64_t, PipelinePhase) {
        return 0.004;
    };
    WorldConfig config = mixConfig();
    config.frameBudget = kFrameBudget;
    config.mockPhaseTime = always_over;
    auto world = buildBenchmark(BenchmarkId::Mix, config, 0.12);
    std::uint64_t deferred = 0;
    for (int i = 0; i < 80; ++i) {
        world->step();
        deferred += world->lastStepStats().governor.pairsDeferred;
    }
    EXPECT_EQ(world->lastStepStats().governor.ladderLevel, 7);
    EXPECT_GT(deferred, 0u)
        << "level 7 never deferred a single narrowphase pair";
    EXPECT_GT(world->lastStepStats().governor.deadlineMisses, 0u);
    EXPECT_TRUE(checkWorldInvariants(*world).empty());
}

} // namespace
} // namespace parallax
