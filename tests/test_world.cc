/**
 * @file
 * Integration tests for the World pipeline: phase interplay, stats,
 * threading, and determinism.
 */

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "physics/world.hh"
#include "sim/rng.hh"
#include "workload/benchmarks.hh"

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
    // Every awake island — the big chain and the lonely single
    // alike — is scheduler work at any worker count (small ones
    // packed into shared batches), and each is solved exactly once.
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

    for (unsigned workers : {0u, 2u}) {
        WorldConfig config;
        config.workerThreads = workers;
        World world(config);
        build(world);
        world.step();
        const StepStats &stats = world.lastStepStats();
        ASSERT_EQ(stats.islands.size(), 2u) << "workers=" << workers;
        EXPECT_EQ(stats.islandsAsleep, 0u) << "workers=" << workers;
        EXPECT_EQ(stats.solver.islandsSolved, 2u)
            << "workers=" << workers;
    }
}

using NamedCounters = std::vector<std::pair<std::string, std::uint64_t>>;

/** Every StepStats counter that describes the scene, by name. Left
 *  out are the ones that measure the schedule: phase times, lane and
 *  task counters, contact-slot growths (arenaGrowths), broadphase
 *  storage growths and solver workspace growths and reuses. */
NamedCounters
sceneCounters(const StepStats &s)
{
    NamedCounters c;
    auto add = [&c](std::string name, std::uint64_t value) {
        c.emplace_back(std::move(name), value);
    };
    auto kernels = [&add](const std::string &prefix,
                          const KernelStats &k) {
        add(prefix + ".kernels.rowsVectorized", k.rowsVectorized);
        add(prefix + ".kernels.remainderRows", k.remainderRows);
        add(prefix + ".kernels.contactUnits", k.contactUnits);
    };
    add("pairsFound", s.pairsFound);
    add("contactsCreated", s.contactsCreated);
    add("contactJointsCreated", s.contactJointsCreated);
    add("jointsBroken", s.jointsBroken);
    add("islands.size", s.islands.size());
    add("islandsAsleep", s.islandsAsleep);
    add("bodiesAsleep", s.bodiesAsleep);
    add("clothColliderInsertions", s.clothColliderInsertions);
    add("broadphase.geomsConsidered", s.broadphase.geomsConsidered);
    add("broadphase.overlapTests", s.broadphase.overlapTests);
    add("broadphase.pairsFound", s.broadphase.pairsFound);
    add("broadphase.structureUpdates", s.broadphase.structureUpdates);
    add("narrowphase.pairsTested", s.narrowphase.pairsTested);
    add("narrowphase.pairsColliding", s.narrowphase.pairsColliding);
    add("narrowphase.contactsCreated", s.narrowphase.contactsCreated);
    for (int i = 0; i < 6; ++i) {
        for (int j = 0; j < 6; ++j) {
            add("narrowphase.testsByType[" + std::to_string(i) + "][" +
                    std::to_string(j) + "]",
                s.narrowphase.testsByType[i][j]);
        }
    }
    add("island.bodiesVisited", s.island.bodiesVisited);
    add("island.jointsVisited", s.island.jointsVisited);
    add("island.unionOps", s.island.unionOps);
    add("island.findOps", s.island.findOps);
    add("island.islandsCreated", s.island.islandsCreated);
    add("island.largestIslandRows", s.island.largestIslandRows);
    add("island.largestIslandBodies", s.island.largestIslandBodies);
    add("solver.islandsSolved", s.solver.islandsSolved);
    add("solver.rowsBuilt", s.solver.rowsBuilt);
    add("solver.rowIterations", s.solver.rowIterations);
    add("solver.bodiesIntegrated", s.solver.bodiesIntegrated);
    kernels("solver", s.solver.kernels);
    add("cloth.clothsStepped", s.cloth.clothsStepped);
    add("cloth.verticesIntegrated", s.cloth.verticesIntegrated);
    add("cloth.constraintRelaxations", s.cloth.constraintRelaxations);
    add("cloth.collisionTests", s.cloth.collisionTests);
    add("cloth.collisionsResolved", s.cloth.collisionsResolved);
    kernels("cloth", s.cloth.kernels);
    return c;
}

TEST(World, StepStatsDoNotDependOnWorkerCount)
{
    // Every phase runs the same chunks at any worker count, so the
    // counters describe the scene, never the schedule — under the
    // Native backend too, whose kernel counters see each batch the
    // chunking hands them.
    for (SimdBackend backend :
         {SimdBackend::Scalar, SimdBackend::Native}) {
        for (BenchmarkId id : allBenchmarks) {
            auto run = [backend, id](unsigned workers) {
                WorldConfig config;
                config.workerThreads = workers;
                config.simdBackend = backend;
                auto world = buildBenchmark(id, config, 0.12);
                std::vector<NamedCounters> steps;
                for (int i = 0; i < 30; ++i) {
                    world->step();
                    steps.push_back(
                        sceneCounters(world->lastStepStats()));
                }
                return steps;
            };
            const std::vector<NamedCounters> base = run(0);
            for (unsigned workers : {1u, 2u, 8u}) {
                const std::vector<NamedCounters> steps = run(workers);
                ASSERT_EQ(steps.size(), base.size());
                int differing = 0;
                std::string first;
                for (std::size_t i = 0; i < base.size(); ++i) {
                    for (std::size_t k = 0; k < base[i].size(); ++k) {
                        if (steps[i][k].second == base[i][k].second)
                            continue;
                        if (differing++ == 0) {
                            first = "step " + std::to_string(i) + " " +
                                    base[i][k].first + ": " +
                                    std::to_string(steps[i][k].second) +
                                    " vs " +
                                    std::to_string(base[i][k].second) +
                                    " at 0 workers";
                        }
                    }
                }
                EXPECT_EQ(differing, 0)
                    << benchmarkInfo(id).shortName << " "
                    << (backend == SimdBackend::Native ? "native"
                                                       : "scalar")
                    << " at " << workers
                    << " workers; first: " << first;
            }
        }
    }
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

TEST(World, JointedBodiesNeverCollide)
{
    // ODE's dAreConnected rule: two bodies joined by a permanent
    // joint never collide. The broadphase drops their pair, so no
    // contact and no contact joint can follow. A third, unjointed
    // sphere overlapping one of them is the control: its pair must
    // still come through.
    for (unsigned workers : {0u, 2u}) {
        SCOPED_TRACE(workers);
        WorldConfig config;
        config.workerThreads = workers;
        config.gravity = {0, 0, 0};
        World world(config);
        const SphereShape *s = world.addSphere(0.5);
        RigidBody *a = world.createDynamicBody(
            Transform(Quat(), {0, 0, 0}), *s, 1.0);
        RigidBody *b = world.createDynamicBody(
            Transform(Quat(), {0.6, 0, 0}), *s, 1.0);
        RigidBody *c = world.createDynamicBody(
            Transform(Quat(), {1.2, 0, 0}), *s, 1.0);
        const GeomId ga = world.createGeom(s, a)->id();
        const GeomId gb = world.createGeom(s, b)->id();
        const GeomId gc = world.createGeom(s, c)->id();
        world.createBallJoint(a, b, {0.3, 0, 0});

        auto joined = [&](GeomId x, GeomId y) {
            return (x == ga && y == gb) || (x == gb && y == ga);
        };
        world.step();
        bool control_pair = false;
        for (const GeomPair &pair : world.lastPairs()) {
            EXPECT_FALSE(joined(pair.a, pair.b));
            control_pair |= (pair.a == gb && pair.b == gc) ||
                            (pair.a == gc && pair.b == gb);
        }
        EXPECT_TRUE(control_pair);
        for (const Contact &contact : world.lastContacts())
            EXPECT_FALSE(joined(contact.geomA, contact.geomB));
        EXPECT_GT(world.lastContactConstraints().size(), 0u);
        for (const ContactConstraint &c :
             world.lastContactConstraints()) {
            const bool ab = (c.bodyA == a && c.bodyB == b) ||
                            (c.bodyA == b && c.bodyB == a);
            EXPECT_FALSE(ab);
        }
    }
}

TEST(World, ClothCollidersFollowAMidStepFracture)
{
    // A fully pinned cloth over a pre-fractured block, and a bomb
    // beside the block that explodes on its first contact. The blast
    // volume reaches the cloth and breaks the block on the next step,
    // between the broadphase and the cloth phase. The cloth collider
    // lists are built after the effects, so on that step they already
    // drop the disabled parent and list the enabled debris that
    // overlap the cloth, and a blast volume is never listed.
    for (unsigned workers : {0u, 2u}) {
        SCOPED_TRACE(workers);
        WorldConfig config;
        config.workerThreads = workers;
        World world(config);
        Cloth *cloth = world.createCloth(5, 5, {0, 1.0, 0}, 0.1, 1.0);
        for (std::uint32_t i = 0; i < 25; ++i)
            cloth->pin(i);
        const Aabb cloth_bounds = cloth->bounds();

        RigidBody *parent =
            world.createStaticBody(Transform(Quat(), {0.2, 0.5, 0.2}));
        world.createGeom(world.addBox({0.5, 0.5, 0.5}), parent);
        const BoxShape *piece = world.addBox({0.2, 0.2, 0.2});
        std::vector<BodyId> debris;
        int debris_reaching = 0;
        for (int i = 0; i < 4; ++i) {
            RigidBody *d = world.createDynamicBody(
                Transform(Quat(), {0.4 * (i % 2), 0.25 + 0.5 * (i / 2),
                                   0.4 * (i % 2)}),
                *piece, 1.0);
            d->setEnabled(false);
            debris_reaching +=
                world.createGeom(piece, d)->bounds().overlaps(cloth_bounds);
            debris.push_back(d->id());
        }
        ASSERT_EQ(debris_reaching, 2);
        world.effects().registerFractureGroup(parent->id(), debris);

        const SphereShape *ball = world.addSphere(0.2);
        Geom *bomb = world.createGeom(
            ball, world.createDynamicBody(
                      Transform(Quat(), {0.85, 0.5, 0.2}), *ball, 1.0));
        bomb->setExplosive(true);
        ASSERT_FALSE(bomb->bounds().overlaps(cloth_bounds));
        world.effects().registerExplosive(bomb->id(),
                                          BlastConfig{2.0, 0.1, 50.0});

        int fracture_step = -1;
        int blast_reaching_steps = 0;
        for (int step = 0; step < 12; ++step) {
            world.step();
            const std::uint64_t listed =
                world.lastStepStats().clothColliderInsertions;
            // Bounds and enabled flags stand as the cloth phase saw
            // them until the next step's broadphase and effects.
            std::uint64_t expected = 0;
            bool blast_reaching = false;
            for (const auto &g : world.geoms()) {
                if (!g->enabled() || !g->bounds().overlaps(cloth_bounds))
                    continue;
                if (g->isBlast())
                    blast_reaching = true;
                else
                    ++expected;
            }
            blast_reaching_steps += blast_reaching;
            EXPECT_EQ(listed, expected) << "step " << step;
            if (fracture_step < 0 &&
                world.effects().stats().objectsFractured > 0) {
                fracture_step = step;
                EXPECT_FALSE(parent->enabled());
                EXPECT_EQ(listed, 2u) << "the debris over the block";
            } else if (fracture_step < 0) {
                EXPECT_EQ(listed, 1u) << "the block, step " << step;
            }
        }
        EXPECT_EQ(fracture_step, 1);
        EXPECT_GT(blast_reaching_steps, 0);
    }
}

TEST(World, ContactPairKeysNeverDecrease)
{
    // Island creation warm-starts each contact through a cursor that
    // only moves forward over the key-sorted warm cache. That is
    // correct only while the narrowphase emits contacts in ascending
    // geom-pair order, on the serial and the chunked path alike.
    for (const BenchmarkId id : allBenchmarks) {
        for (unsigned workers : {0u, 2u}) {
            SCOPED_TRACE(std::string(benchmarkInfo(id).shortName) +
                         " workers=" + std::to_string(workers));
            WorldConfig config;
            config.workerThreads = workers;
            auto world = buildBenchmark(id, config, 0.12);
            std::size_t contacts = 0;
            for (int step = 0; step < 30; ++step) {
                world->step();
                std::uint64_t previous = 0;
                for (const Contact &c : world->lastContacts()) {
                    const std::uint64_t key =
                        (static_cast<std::uint64_t>(
                             std::min(c.geomA, c.geomB))
                         << 32) |
                        std::max(c.geomA, c.geomB);
                    ASSERT_GE(key, previous) << "step " << step;
                    previous = key;
                }
                contacts += world->lastContacts().size();
            }
            EXPECT_GT(contacts, 0u);
        }
    }
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
