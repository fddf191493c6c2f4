/**
 * @file
 * Tests for invariant policy modes and fault containment
 * (InvariantMode::Warn / Quarantine + WorldConfig::faultPlan).
 *
 * The contract under test: a scripted fault corrupts exactly the
 * state it targets; under Quarantine only the offending island is
 * frozen (restored to its last good state) while the rest of the
 * world keeps simulating; Warn counts violations without intervening;
 * thawed islands retry at reduced dt and turn permanent after their
 * retry budget; and containment decisions are deterministic.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "physics/debug/invariants.hh"
#include "physics/world.hh"
#include "workload/benchmarks.hh"

namespace parallax
{
namespace
{

WorldConfig
quarantineConfig()
{
    WorldConfig config;
    config.invariantMode = InvariantMode::Quarantine;
    config.snapshotDir = testing::TempDir();
    // No bounce: the dropped boxes settle into persistent plane
    // contacts (the contact-corruption fault needs a live contact).
    config.defaultMaterial.restitution = 0.0;
    return config;
}

/** Ground plane + two single-box islands far apart: body index 0 is
 *  the fault target, the other is the control island. */
struct TwoIslands
{
    RigidBody *victim;
    RigidBody *witness;
};

TwoIslands
buildTwoIslands(World &world)
{
    const PlaneShape *p = world.addPlane({0, 1, 0}, 0.0);
    world.createGeom(p, world.createStaticBody(Transform()));
    const BoxShape *box = world.addBox({0.5, 0.5, 0.5});
    TwoIslands scene;
    scene.victim = world.createDynamicBody(
        Transform(Quat(), {0, 2.0, 0}), *box, 100.0);
    world.createGeom(box, scene.victim);
    scene.witness = world.createDynamicBody(
        Transform(Quat(), {50.0, 2.0, 0}), *box, 100.0);
    world.createGeom(box, scene.witness);
    return scene;
}

FaultEvent
nanAt(std::uint64_t step, std::uint32_t target = 0)
{
    FaultEvent e;
    e.step = step;
    e.kind = FaultKind::NanVelocity;
    e.target = target;
    return e;
}

TEST(Quarantine, NanFreezesOnlyTheOffendingIsland)
{
    WorldConfig config = quarantineConfig();
    config.faultPlan.events = {nanAt(10)};
    World world(config);
    const TwoIslands scene = buildTwoIslands(world);

    for (int i = 0; i < 40; ++i)
        world.step();

    // The fault was observed and contained, and the run completed.
    EXPECT_EQ(world.stepCount(), 40u);
    EXPECT_GE(world.invariantViolationCount(), 1u);
    EXPECT_EQ(world.quarantineEventCount(), 1u);
    EXPECT_EQ(world.activeQuarantines(), 1u);
    ASSERT_EQ(world.quarantineRecords().size(), 1u);
    const World::QuarantineRecord &record =
        world.quarantineRecords()[0];
    EXPECT_EQ(record.step, 10u);
    EXPECT_EQ(record.body,
              static_cast<std::int64_t>(scene.victim->id()));
    EXPECT_TRUE(record.permanent); // quarantineThawSteps == 0.
    EXPECT_EQ(record.code, "body-finite");

    // The victim is frozen at its restored last-good state: disabled,
    // finite, at rest.
    EXPECT_FALSE(scene.victim->enabled());
    EXPECT_TRUE(std::isfinite(scene.victim->position().y));
    EXPECT_DOUBLE_EQ(scene.victim->linearVelocity().y, 0.0);

    // The witness island never stopped simulating: it fell to rest
    // on the plane, far from its spawn height.
    EXPECT_TRUE(scene.witness->enabled());
    EXPECT_LT(scene.witness->position().y, 1.5);

    // Containment leaves a healthy world behind.
    EXPECT_TRUE(checkWorldInvariants(world).empty());
}

TEST(Quarantine, HugeImpulseIsSurvived)
{
    WorldConfig config = quarantineConfig();
    config.workerThreads = 2;
    FaultEvent e;
    e.step = 15;
    e.kind = FaultKind::HugeImpulse;
    e.target = 5;
    e.magnitude = 1.0e4;
    config.faultPlan.events = {e};
    auto world = buildBenchmark(BenchmarkId::Mix, config, 0.12);

    for (int i = 0; i < 40; ++i)
        world->step();

    // An oversized-but-finite impulse either dissipates (clean
    // recovery) or trips an invariant and is quarantined; both count
    // as containment, a crash or a corrupt final world does not.
    EXPECT_EQ(world->stepCount(), 40u);
    EXPECT_TRUE(checkWorldInvariants(*world).empty());
}

TEST(Quarantine, CorruptContactNormalIsContained)
{
    WorldConfig config = quarantineConfig();
    config.faultPlan.events = {[] {
        FaultEvent e;
        // The boxes free-fall ~45 steps; by 60 both rest in plane
        // contacts.
        e.step = 60;
        e.kind = FaultKind::CorruptContactNormal;
        return e;
    }()};
    World world(config);
    const TwoIslands scene = buildTwoIslands(world);

    for (int i = 0; i < 90; ++i)
        world.step();

    EXPECT_EQ(world.stepCount(), 90u);
    EXPECT_GE(world.invariantViolationCount(), 1u);
    EXPECT_GE(world.quarantineEventCount(), 1u);
    EXPECT_TRUE(checkWorldInvariants(world).empty());
    (void)scene;
}

TEST(Quarantine, WarnModeCountsViolationsAndKeepsStepping)
{
    WorldConfig config = quarantineConfig();
    config.invariantMode = InvariantMode::Warn;
    config.faultPlan.events = {nanAt(10)};
    World world(config);
    const TwoIslands scene = buildTwoIslands(world);

    for (int i = 0; i < 25; ++i)
        world.step();

    // Warn observes (and keeps observing: the NaN is never repaired)
    // but does not intervene.
    EXPECT_EQ(world.stepCount(), 25u);
    EXPECT_GT(world.invariantViolationCount(), 1u);
    EXPECT_EQ(world.quarantineEventCount(), 0u);
    EXPECT_EQ(world.activeQuarantines(), 0u);
    EXPECT_TRUE(scene.victim->enabled());
    EXPECT_FALSE(checkWorldInvariants(world).empty());
}

TEST(Quarantine, ThawRetriesThenTurnsPermanent)
{
    WorldConfig config = quarantineConfig();
    config.quarantineThawSteps = 5;
    config.quarantineMaxRetries = 1;
    config.quarantineProbationSteps = 8;
    // Two scripted corruptions of the same body: the first freeze is
    // temporary and the thawed body rehabilitates (the fault source
    // is one-shot); the second spends its retry budget.
    config.faultPlan.events = {nanAt(5), nanAt(25)};
    World world(config);
    const TwoIslands scene = buildTwoIslands(world);

    for (int i = 0; i < 8; ++i)
        world.step();
    EXPECT_EQ(world.activeQuarantines(), 1u);
    EXPECT_FALSE(scene.victim->enabled());

    // Frozen at step 5 + thawSteps 5: enabled again (on probation,
    // stepping at reduced dt) by step 10.
    for (int i = 0; i < 4; ++i)
        world.step();
    EXPECT_EQ(world.activeQuarantines(), 0u);
    EXPECT_TRUE(scene.victim->enabled());

    // Probation passes without a re-violation, then the second fault
    // lands with the retry budget already spent: permanent freeze.
    for (int i = 0; i < 28; ++i)
        world.step();
    EXPECT_EQ(world.stepCount(), 40u);
    EXPECT_EQ(world.quarantineEventCount(), 2u);
    EXPECT_EQ(world.activeQuarantines(), 1u);
    EXPECT_FALSE(scene.victim->enabled());
    ASSERT_EQ(world.quarantineRecords().size(), 2u);
    EXPECT_FALSE(world.quarantineRecords()[0].permanent);
    EXPECT_TRUE(world.quarantineRecords()[1].permanent);
    EXPECT_TRUE(checkWorldInvariants(world).empty());
}

TEST(Quarantine, ContainmentIsBitwiseDeterministicAcrossWorkers)
{
    auto run = [](unsigned workers) {
        WorldConfig config = quarantineConfig();
        config.workerThreads = workers;
        config.faultPlan.events = {nanAt(12, 3)};
        auto world = buildBenchmark(BenchmarkId::Mix, config, 0.12);
        for (int i = 0; i < 40; ++i)
            world->step();
        std::vector<double> state;
        for (const auto &body : world->bodies()) {
            const Vec3 &p = body->position();
            state.insert(state.end(), {p.x, p.y, p.z});
        }
        struct Result
        {
            std::vector<double> state;
            std::vector<World::QuarantineRecord> records;
            std::uint64_t violations;
        };
        return Result{std::move(state), world->quarantineRecords(),
                      world->invariantViolationCount()};
    };

    const auto base = run(0);
    ASSERT_GE(base.records.size(), 1u);
    for (unsigned workers : {2u, 8u}) {
        const auto other = run(workers);
        EXPECT_EQ(other.violations, base.violations);
        ASSERT_EQ(other.records.size(), base.records.size());
        for (std::size_t i = 0; i < base.records.size(); ++i) {
            EXPECT_EQ(other.records[i].step, base.records[i].step);
            EXPECT_EQ(other.records[i].body, base.records[i].body);
            EXPECT_EQ(other.records[i].code, base.records[i].code);
        }
        ASSERT_EQ(other.state.size(), base.state.size());
        EXPECT_EQ(std::memcmp(other.state.data(), base.state.data(),
                              base.state.size() * sizeof(double)),
                  0)
            << "post-containment state diverged at " << workers
            << " workers";
    }
}

} // namespace
} // namespace parallax
