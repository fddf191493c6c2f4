/**
 * @file
 * Tests for the world-invariant checker (physics/debug/invariants)
 * and its hard-fail path: a violation must dump the pre-step
 * snapshot, and restoring that snapshot must reproduce the failure
 * in exactly one step.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>

#include "physics/debug/capture.hh"
#include "workload/benchmarks.hh"

namespace parallax
{
namespace
{

/** Deterministic hand-built scene: ground plane + a box stack. Used
 *  by both the dying world and the replay world, so the snapshot
 *  restores into an identical structure. */
RigidBody *
buildScene(World &world)
{
    const PlaneShape *p = world.addPlane({0, 1, 0}, 0.0);
    world.createGeom(p, world.createStaticBody(Transform()));
    const BoxShape *box = world.addBox({0.5, 0.5, 0.5});
    RigidBody *top = nullptr;
    for (int i = 0; i < 3; ++i) {
        top = world.createDynamicBody(
            Transform(Quat(), {0, 0.5 + i * 1.0, 0}), *box, 100.0);
        world.createGeom(box, top);
    }
    return top;
}

bool
hasCode(const std::vector<InvariantViolation> &violations,
        const char *code)
{
    for (const InvariantViolation &v : violations)
        if (v.code == code)
            return true;
    return false;
}

TEST(Invariants, HealthySceneHasNoViolations)
{
    World world;
    buildScene(world);
    for (int i = 0; i < 50; ++i)
        world.step();
    const std::vector<InvariantViolation> violations =
        checkWorldInvariants(world);
    EXPECT_TRUE(violations.empty())
        << violations.size() << " violations, first: "
        << violations[0].message;
}

TEST(Invariants, DetectsNonFiniteBodyState)
{
    World world;
    RigidBody *top = buildScene(world);
    world.step();
    top->setLinearVelocity(
        {std::numeric_limits<double>::quiet_NaN(), 0, 0});
    const std::vector<InvariantViolation> violations =
        checkWorldInvariants(world);
    ASSERT_FALSE(violations.empty());
    EXPECT_TRUE(hasCode(violations, "body-finite"))
        << violations[0].code << ": " << violations[0].message;
}

TEST(Invariants, DetectsSleepingBodyWithMotion)
{
    WorldConfig config;
    config.autoDisable = true;
    World world(config);
    RigidBody *top = buildScene(world);
    for (int i = 0; i < 200; ++i)
        world.step();
    ASSERT_TRUE(top->asleep());
    EXPECT_TRUE(checkWorldInvariants(world).empty());

    // Velocity written behind the sleep system's back (setSleepState
    // preserves the sleep flag, unlike setLinearVelocity which
    // legitimately wakes the body).
    top->setLinearVelocity({1.0, 0, 0});
    top->setSleepState(true, top->sleepCounter());
    EXPECT_TRUE(hasCode(checkWorldInvariants(world), "sleep-motion"));
}

TEST(Invariants, DetectsNonFiniteClothParticle)
{
    WorldConfig config;
    auto world = buildBenchmark(BenchmarkId::Deformable, config, 0.1);
    ASSERT_GT(world->clothCount(), 0u);
    world->step();
    EXPECT_TRUE(checkWorldInvariants(*world).empty());

    auto particles = world->cloths()[0]->particles();
    particles[0].position.y =
        std::numeric_limits<double>::infinity();
    ASSERT_TRUE(world->cloths()[0]->restoreParticles(particles));
    EXPECT_TRUE(
        hasCode(checkWorldInvariants(*world), "cloth-finite"));
}

/** The full violation pipeline: HardFail trips on a NaN, the
 *  process exits via fatal(), and the pre-step snapshot it dumped
 *  reproduces the same violation one step after restore. */
TEST(Invariants, ViolationDumpsSnapshotThatReplaysInOneStep)
{
    const std::string dir = testing::TempDir();
    WorldConfig config;
    config.invariantMode = InvariantMode::HardFail;
    config.snapshotDir = dir;
    config.workerThreads = 0; // No worker threads across the fork.
    World world(config);
    RigidBody *top = buildScene(world);
    for (int i = 0; i < 5; ++i)
        world.step();

    // Scene tag is empty for hand-built scenes; the dump lands at
    // <dir>/invariant_step5.paxsnap (stepCount at time of failure).
    const std::string path = dir + "/invariant_step5.paxsnap";
    std::remove(path.c_str());

    EXPECT_EXIT(
        {
            top->setLinearVelocity(
                {std::numeric_limits<double>::quiet_NaN(), 0, 0});
            world.step();
        },
        testing::ExitedWithCode(1), "invariants violated");

    // The child process (not this one) wrote the snapshot.
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(readSnapshotFile(path, bytes).ok());
    SnapshotInfo info;
    WorldConfig snap_config;
    ASSERT_TRUE(
        describeSnapshot(bytes, info, snap_config).ok());
    EXPECT_EQ(info.stepCount, 5u);

    // Restore into an identically structured world and step once:
    // the violation reproduces immediately.
    WorldConfig replay_config;
    World replay(replay_config);
    buildScene(replay);
    ASSERT_TRUE(replay.restoreState(bytes).ok());
    replay.step();
    const std::vector<InvariantViolation> violations =
        replay.validateInvariants();
    ASSERT_FALSE(violations.empty());
    EXPECT_TRUE(hasCode(violations, "body-finite"));
    std::remove(path.c_str());
}

/** Per-step checking stays clean on a scene exercising all five
 *  pipeline phases, serial and parallel. A violation here aborts the
 *  process (that is the checker's contract), failing the test. */
TEST(Invariants, MixSceneSweepStaysClean)
{
    for (unsigned workers : {0u, 2u}) {
        WorldConfig config;
        config.workerThreads = workers;
        config.invariantMode = InvariantMode::HardFail;
        config.snapshotDir = testing::TempDir();
        auto world = buildBenchmark(BenchmarkId::Mix, config, 0.1);
        for (int i = 0; i < 60; ++i)
            world->step();
        EXPECT_TRUE(world->validateInvariants().empty());
    }
}

} // namespace
} // namespace parallax
