/**
 * @file
 * Integration tests for the World pipeline: phase interplay, stats,
 * threading, and determinism.
 */

#include <gtest/gtest.h>

#include "physics/world.hh"
#include "sim/rng.hh"

namespace parallax
{
namespace
{

/** Drop a grid of spheres onto a plane. */
void
buildSphereRain(World &world, int count)
{
    const SphereShape *s = world.addSphere(0.4);
    const PlaneShape *p = world.addPlane({0, 1, 0}, 0.0);
    world.createGeom(p, world.createStaticBody(Transform()));
    for (int i = 0; i < count; ++i) {
        RigidBody *b = world.createDynamicBody(
            Transform(Quat(),
                      {(i % 5) * 1.0, 1.0 + (i / 5) * 1.0,
                       (i % 3) * 1.0}),
            *s, 1.0);
        world.createGeom(s, b);
    }
}

TEST(World, StepAdvancesTime)
{
    World world;
    EXPECT_DOUBLE_EQ(world.time(), 0.0);
    world.step();
    EXPECT_DOUBLE_EQ(world.time(), 0.01);
    world.stepFrame(); // Paper: 3 substeps per frame.
    EXPECT_NEAR(world.time(), 0.04, 1e-12);
}

TEST(World, StatsFlowThroughPhases)
{
    World world;
    buildSphereRain(world, 10);
    // Let them fall into contact with the ground.
    for (int i = 0; i < 100; ++i)
        world.step();
    const StepStats &stats = world.lastStepStats();
    EXPECT_GT(stats.pairsFound, 0u);
    EXPECT_GT(stats.contactsCreated, 0u);
    EXPECT_GT(stats.contactJointsCreated, 0u);
    EXPECT_GT(stats.islands.size(), 0u);
    EXPECT_GT(stats.solver.rowsBuilt, 0u);
    EXPECT_EQ(stats.narrowphase.pairsTested, stats.pairsFound);
}

TEST(World, IslandSummariesMatchBuilder)
{
    World world;
    buildSphereRain(world, 8);
    for (int i = 0; i < 40; ++i)
        world.step();
    const StepStats &stats = world.lastStepStats();
    std::uint64_t bodies = 0;
    for (const IslandSummary &island : stats.islands)
        bodies += island.bodies;
    EXPECT_EQ(bodies, 8u); // Every dynamic body is in one island.
}

TEST(World, DeterministicAcrossRuns)
{
    auto run = [](unsigned threads) {
        WorldConfig config;
        config.workerThreads = threads;
        World world(config);
        buildSphereRain(world, 15);
        for (int i = 0; i < 60; ++i)
            world.step();
        std::vector<Vec3> positions;
        for (const auto &b : world.bodies())
            positions.push_back(b->position());
        return positions;
    };

    const auto base = run(0);
    const auto again = run(0);
    ASSERT_EQ(base.size(), again.size());
    for (size_t i = 0; i < base.size(); ++i) {
        EXPECT_DOUBLE_EQ(base[i].x, again[i].x);
        EXPECT_DOUBLE_EQ(base[i].y, again[i].y);
        EXPECT_DOUBLE_EQ(base[i].z, again[i].z);
    }
}

TEST(World, ThreadedRunMatchesSingleThreaded)
{
    // Narrowphase partitioning and per-island solving must not change
    // physics results (islands are independent; pairs are disjoint).
    auto run = [](unsigned threads) {
        WorldConfig config;
        config.workerThreads = threads;
        World world(config);
        buildSphereRain(world, 30);
        for (int i = 0; i < 50; ++i)
            world.step();
        std::vector<Vec3> positions;
        for (const auto &b : world.bodies())
            positions.push_back(b->position());
        return positions;
    };

    const auto solo = run(0);
    const auto quad = run(4);
    ASSERT_EQ(solo.size(), quad.size());
    for (size_t i = 0; i < solo.size(); ++i) {
        EXPECT_NEAR(solo[i].x, quad[i].x, 1e-9);
        EXPECT_NEAR(solo[i].y, quad[i].y, 1e-9);
        EXPECT_NEAR(solo[i].z, quad[i].z, 1e-9);
    }
}

TEST(World, AllAwakeIslandsAreStealableWork)
{
    // islandWorkQueueThreshold is a batching hint, not a routing
    // cliff: with workers available, every awake island — the big
    // chain and the lonely single alike — is submitted to the
    // scheduler (small ones packed into shared batches). Nothing is
    // pinned to the main thread.
    auto build = [](World &world) {
        const SphereShape *s = world.addSphere(0.3);
        std::vector<RigidBody *> chain;
        for (int i = 0; i < 12; ++i) {
            RigidBody *b = world.createDynamicBody(
                Transform(Quat(), {i * 0.5, 5, 0}), *s, 1.0);
            world.createGeom(s, b);
            chain.push_back(b);
            if (i > 0) {
                world.createBallJoint(chain[i - 1], chain[i],
                                      {i * 0.5 - 0.25, 5, 0});
            }
        }
        RigidBody *lonely = world.createDynamicBody(
            Transform(Quat(), {100, 5, 0}), *s, 1.0);
        world.createGeom(s, lonely);
    };

    WorldConfig config;
    config.workerThreads = 2;
    config.islandWorkQueueThreshold = 25;
    World world(config);
    build(world);
    world.step();
    const StepStats &stats = world.lastStepStats();
    EXPECT_EQ(stats.islandsToWorkQueue, 2u);
    EXPECT_EQ(stats.islandsOnMainThread, 0u);

    // Single-threaded worlds solve everything inline.
    config.workerThreads = 0;
    World serial(config);
    build(serial);
    serial.step();
    EXPECT_EQ(serial.lastStepStats().islandsToWorkQueue, 0u);
    EXPECT_EQ(serial.lastStepStats().islandsOnMainThread, 2u);
}

TEST(World, DisabledBodiesSkipAllPhases)
{
    World world;
    const SphereShape *s = world.addSphere(0.5);
    const PlaneShape *p = world.addPlane({0, 1, 0}, 0.0);
    world.createGeom(p, world.createStaticBody(Transform()));
    RigidBody *b = world.createDynamicBody(
        Transform(Quat(), {0, 0.4, 0}), *s, 1.0);
    world.createGeom(s, b);
    b->setEnabled(false);

    world.step();
    EXPECT_EQ(world.lastStepStats().pairsFound, 0u);
    EXPECT_EQ(world.lastStepStats().contactsCreated, 0u);
    // Disabled body did not move.
    EXPECT_DOUBLE_EQ(b->position().y, 0.4);
}

TEST(World, LookupByIdReturnsNullOutOfRange)
{
    World world;
    EXPECT_EQ(world.body(0), nullptr);
    EXPECT_EQ(world.geom(42), nullptr);
    EXPECT_EQ(world.joint(7), nullptr);
    const SphereShape *s = world.addSphere(1.0);
    RigidBody *b = world.createDynamicBody(Transform(), *s, 1.0);
    EXPECT_EQ(world.body(b->id()), b);
}

TEST(World, DynamicBodyMassFromDensity)
{
    World world;
    const BoxShape *box = world.addBox({0.5, 0.5, 0.5});
    RigidBody *b = world.createDynamicBody(Transform(), *box, 2.0);
    EXPECT_DOUBLE_EQ(b->mass(), 2.0); // Volume 1 m^3 * density 2.
}

TEST(World, UnboundedShapeRejectsDensityMass)
{
    World world;
    const PlaneShape *p = world.addPlane({0, 1, 0}, 0.0);
    EXPECT_EXIT(world.createDynamicBody(Transform(), *p, 1.0),
                ::testing::ExitedWithCode(1), "unbounded");
}

TEST(World, InvalidConfigRejected)
{
    WorldConfig config;
    config.dt = 0.0;
    EXPECT_EXIT(World bad(config), ::testing::ExitedWithCode(1),
                "dt");
}

} // namespace
} // namespace parallax
