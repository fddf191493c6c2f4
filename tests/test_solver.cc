/**
 * @file
 * Tests for the projected Gauss-Seidel solver: physical behaviour of
 * bodies under contacts and joints, driven through the World API.
 */

#include <bit>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "physics/world.hh"

namespace parallax
{
namespace
{

WorldConfig
quietConfig()
{
    WorldConfig config;
    config.defaultMaterial.restitution = 0.0;
    return config;
}

TEST(Solver, FreeFallMatchesGravity)
{
    World world;
    const SphereShape *s = world.addSphere(0.5);
    RigidBody *body = world.createDynamicBody(
        Transform(Quat(), {0, 100, 0}), *s, 1.0);
    world.createGeom(s, body);

    const Real t = 0.5;
    const int steps = static_cast<int>(t / world.config().dt);
    for (int i = 0; i < steps; ++i)
        world.step();

    // y = y0 - 1/2 g t^2 (semi-implicit Euler is slightly below).
    const Real expected = 100.0 - 0.5 * 9.81 * t * t;
    EXPECT_NEAR(body->position().y, expected, 0.2);
    EXPECT_NEAR(body->linearVelocity().y, -9.81 * t, 0.1);
}

TEST(Solver, SphereRestsOnPlane)
{
    World world(quietConfig());
    const SphereShape *s = world.addSphere(0.5);
    const PlaneShape *p = world.addPlane({0, 1, 0}, 0.0);
    RigidBody *ball = world.createDynamicBody(
        Transform(Quat(), {0, 2.0, 0}), *s, 1.0);
    world.createGeom(s, ball);
    world.createGeom(p, world.createStaticBody(Transform()));

    for (int i = 0; i < 300; ++i)
        world.step();

    // Ball should be resting on the plane with its center ~radius up.
    EXPECT_NEAR(ball->position().y, 0.5, 0.05);
    EXPECT_NEAR(ball->linearVelocity().length(), 0.0, 0.1);
}

TEST(Solver, BoxStackRemainsStanding)
{
    World world(quietConfig());
    const BoxShape *box = world.addBox({0.5, 0.5, 0.5});
    const PlaneShape *p = world.addPlane({0, 1, 0}, 0.0);
    world.createGeom(p, world.createStaticBody(Transform()));

    std::vector<RigidBody *> stack;
    for (int i = 0; i < 3; ++i) {
        RigidBody *b = world.createDynamicBody(
            Transform(Quat(), {0, 0.5 + i * 1.001, 0}), *box, 1.0);
        world.createGeom(box, b);
        stack.push_back(b);
    }

    for (int i = 0; i < 200; ++i)
        world.step();

    for (int i = 0; i < 3; ++i) {
        EXPECT_NEAR(stack[i]->position().y, 0.5 + i * 1.0, 0.15)
            << "box " << i << " moved";
        EXPECT_NEAR(stack[i]->position().x, 0.0, 0.1);
    }
}

TEST(Solver, RestitutionBouncesBall)
{
    WorldConfig config;
    config.defaultMaterial.restitution = 0.8;
    World world(config);
    const SphereShape *s = world.addSphere(0.5);
    const PlaneShape *p = world.addPlane({0, 1, 0}, 0.0);
    RigidBody *ball = world.createDynamicBody(
        Transform(Quat(), {0, 3.0, 0}), *s, 1.0);
    world.createGeom(s, ball);
    world.createGeom(p, world.createStaticBody(Transform()));

    Real apex_after_bounce = 0.0;
    bool bounced = false;
    for (int i = 0; i < 400; ++i) {
        world.step();
        if (ball->linearVelocity().y > 0.1)
            bounced = true;
        if (bounced) {
            apex_after_bounce =
                std::max(apex_after_bounce, ball->position().y);
        }
    }
    EXPECT_TRUE(bounced);
    // With e = 0.8 the rebound apex should be a significant fraction
    // of the 2.5 m drop height (energy ratio e^2 = 0.64).
    EXPECT_GT(apex_after_bounce, 1.0);
    EXPECT_LT(apex_after_bounce, 2.6);
}

TEST(Solver, FrictionStopsSlidingBox)
{
    World world(quietConfig());
    const BoxShape *box = world.addBox({0.5, 0.5, 0.5});
    const PlaneShape *p = world.addPlane({0, 1, 0}, 0.0);
    RigidBody *b = world.createDynamicBody(
        Transform(Quat(), {0, 0.5, 0}), *box, 1.0);
    b->setLinearVelocity({3.0, 0, 0});
    world.createGeom(box, b);
    world.createGeom(p, world.createStaticBody(Transform()));

    for (int i = 0; i < 300; ++i)
        world.step();

    // Friction (mu = 0.8) must bring the box to rest.
    EXPECT_NEAR(b->linearVelocity().x, 0.0, 0.05);
    EXPECT_GT(b->position().x, 0.1); // It did slide some distance.
}

TEST(Solver, FrictionlessSurfaceKeepsSliding)
{
    WorldConfig config = quietConfig();
    config.defaultMaterial.friction = 0.0;
    World world(config);
    const BoxShape *box = world.addBox({0.5, 0.5, 0.5});
    const PlaneShape *p = world.addPlane({0, 1, 0}, 0.0);
    RigidBody *b = world.createDynamicBody(
        Transform(Quat(), {0, 0.5, 0}), *box, 1.0);
    b->setLinearVelocity({3.0, 0, 0});
    world.createGeom(box, b);
    world.createGeom(p, world.createStaticBody(Transform()));

    for (int i = 0; i < 100; ++i)
        world.step();

    EXPECT_NEAR(b->linearVelocity().x, 3.0, 0.1);
}

TEST(Solver, BallJointKeepsBodiesLinked)
{
    World world(quietConfig());
    const SphereShape *s = world.addSphere(0.2);
    // Pendulum: anchor body is static, bob swings below.
    RigidBody *anchor = world.createStaticBody(
        Transform(Quat(), {0, 5, 0}));
    RigidBody *bob = world.createDynamicBody(
        Transform(Quat(), {1, 5, 0}), *s, 1.0);
    world.createGeom(s, bob);
    world.createBallJoint(bob, anchor, {0, 5, 0});

    for (int i = 0; i < 300; ++i) {
        world.step();
        // The bob must stay ~1 m from the anchor at all times
        // (Baumgarte stabilization allows a few percent stretch at
        // the bottom of the swing where centripetal load peaks).
        const Real dist = (bob->position() - Vec3{0, 5, 0}).length();
        ASSERT_NEAR(dist, 1.0, 0.12) << "at step " << i;
    }
    // And it should have swung downward.
    EXPECT_LT(bob->position().y, 5.0);
}

TEST(Solver, FixedJointMovesBodiesTogether)
{
    World world(quietConfig());
    const BoxShape *box = world.addBox({0.5, 0.5, 0.5});
    RigidBody *a = world.createDynamicBody(
        Transform(Quat(), {0, 10, 0}), *box, 1.0);
    RigidBody *b = world.createDynamicBody(
        Transform(Quat(), {1.2, 10, 0}), *box, 1.0);
    world.createGeom(box, a);
    world.createGeom(box, b);
    world.createFixedJoint(a, b);

    const Vec3 initial_offset = b->position() - a->position();
    for (int i = 0; i < 100; ++i)
        world.step();
    const Vec3 final_offset = b->position() - a->position();
    EXPECT_NEAR((final_offset - initial_offset).length(), 0.0, 0.05);
    // Both fell together.
    EXPECT_LT(a->position().y, 9.0);
}

TEST(Solver, BreakableJointSnapsUnderLoad)
{
    World world(quietConfig());
    const BoxShape *box = world.addBox({0.5, 0.5, 0.5});
    RigidBody *anchor = world.createStaticBody(Transform());
    RigidBody *hanging = world.createDynamicBody(
        Transform(Quat(), {0, -1.2, 0}), *box, 50.0); // Heavy.
    world.createGeom(box, hanging);
    BallJoint *j = world.createBallJoint(hanging, anchor, {0, 0, 0});
    // Threshold far below the hanging weight (50 kg * 9.81).
    j->setBreakForce(100.0);

    std::uint64_t broke_at_step = 0;
    for (int i = 0; i < 100; ++i) {
        world.step();
        if (j->broken() && broke_at_step == 0)
            broke_at_step = i + 1;
    }
    EXPECT_TRUE(j->broken());
    EXPECT_GT(broke_at_step, 0u);
    // After breaking, the body falls freely.
    EXPECT_LT(hanging->position().y, -2.0);
}

TEST(Solver, StrongJointHoldsLoad)
{
    World world(quietConfig());
    const BoxShape *box = world.addBox({0.5, 0.5, 0.5});
    RigidBody *anchor = world.createStaticBody(Transform());
    RigidBody *hanging = world.createDynamicBody(
        Transform(Quat(), {0, -1.2, 0}), *box, 1.0);
    world.createGeom(box, hanging);
    BallJoint *j = world.createBallJoint(hanging, anchor, {0, 0, 0});
    j->setBreakForce(1000.0); // Far above 1 kg * 9.81 N.

    for (int i = 0; i < 100; ++i)
        world.step();
    EXPECT_FALSE(j->broken());
    EXPECT_GT(hanging->position().y, -2.0);
}

TEST(Solver, EnergyDoesNotExplode)
{
    // Property: a pile of spheres settles; kinetic energy must decay,
    // not blow up (solver stability check).
    World world(quietConfig());
    const SphereShape *s = world.addSphere(0.4);
    const PlaneShape *p = world.addPlane({0, 1, 0}, 0.0);
    world.createGeom(p, world.createStaticBody(Transform()));
    std::vector<RigidBody *> balls;
    for (int i = 0; i < 20; ++i) {
        RigidBody *b = world.createDynamicBody(
            Transform(Quat(), {(i % 4) * 0.7, 1.0 + (i / 4) * 0.9,
                               (i % 3) * 0.7}),
            *s, 1.0);
        world.createGeom(s, b);
        balls.push_back(b);
    }

    auto kinetic = [&] {
        Real e = 0;
        for (const RigidBody *b : balls)
            e += 0.5 * b->mass() * b->linearVelocity().lengthSquared();
        return e;
    };

    for (int i = 0; i < 400; ++i) {
        world.step();
        ASSERT_LT(kinetic(), 1e4) << "energy explosion at step " << i;
    }
    // Spheres may still be rolling apart (rolling is frictionless in
    // the tangent plane), but the pile must have calmed well below
    // its impact energy.
    EXPECT_LT(kinetic(), 50.0);
}

TEST(Solver, StatsCountRowsAndIterations)
{
    World world(quietConfig());
    const SphereShape *s = world.addSphere(0.5);
    const PlaneShape *p = world.addPlane({0, 1, 0}, 0.0);
    RigidBody *ball = world.createDynamicBody(
        Transform(Quat(), {0, 0.4, 0}), *s, 1.0);
    world.createGeom(s, ball);
    world.createGeom(p, world.createStaticBody(Transform()));
    world.step();

    const SolverStats &stats = world.lastStepStats().solver;
    // One contact: 3 rows, 20 iterations each.
    EXPECT_EQ(stats.rowsBuilt, 3u);
    EXPECT_EQ(stats.rowIterations, 60u);
    EXPECT_GE(stats.islandsSolved, 1u);
}

/**
 * One island solved straight through PgsSolver: four unit bodies
 * pressed into the static ground (four contacts each, falling at
 * 1 m/s) and against their neighbours (one contact per adjacent
 * pair), optionally plus a ball joint between the end bodies.
 */
struct ContactIsland
{
    std::vector<std::unique_ptr<RigidBody>> bodies;
    std::vector<RigidBody *> ptrs;
    std::vector<ContactConstraint> contacts;
    std::unique_ptr<BallJoint> joint;
    std::vector<Joint *> joints;
    IslandBuilder builder;
    std::vector<Island> islands;

    explicit ContactIsland(bool with_joint)
    {
        for (int i = 0; i < 4; ++i) {
            bodies.push_back(std::make_unique<RigidBody>(
                static_cast<BodyId>(i),
                Transform(Quat(), {1.0 * i, 0.45, 0.1 * i}), 1.0,
                Mat3::identity() * (1.0 / 6.0)));
            bodies.back()->setLinearVelocity({0.2 * i, -1.0, 0.0});
            ptrs.push_back(bodies.back().get());
        }
        for (int i = 0; i < 4; ++i) {
            for (const Real dx : {-0.5, 0.5}) {
                for (const Real dz : {-0.5, 0.5}) {
                    Contact c;
                    c.position = ptrs[i]->position() +
                                 Vec3{dx, -0.45, dz};
                    c.normal = {0, 1, 0};
                    c.depth = 0.05;
                    contacts.push_back({ptrs[i], nullptr, c});
                }
            }
        }
        for (int i = 0; i + 1 < 4; ++i) {
            Contact c;
            c.position = ptrs[i]->position() + Vec3{0.5, 0, 0};
            c.normal = {-1, 0, 0};
            c.depth = 0.01;
            contacts.push_back({ptrs[i], ptrs[i + 1], c});
        }
        if (with_joint) {
            joint = std::make_unique<BallJoint>(
                0, ptrs[0], ptrs[3],
                (ptrs[0]->position() + ptrs[3]->position()) * 0.5);
            joints.push_back(joint.get());
        }
        builder.build(ptrs, joints, contacts, islands);
    }

    /** Solve the one island on `backend`; returns the solver's
     *  kernel counters. */
    KernelStats
    solve(const KernelBackend &backend)
    {
        EXPECT_EQ(islands.size(), 1u);
        PgsSolver solver;
        solver.setBackend(&backend);
        solver.reserve(bodies.size(), islands[0].rows, joints.size());
        SolverParams params;
        solver.solve(islands[0], params, ContactMaterial{});
        return solver.stats().kernels;
    }
};

TEST(Solver, NativeFusesAnIslandOfContactsOnly)
{
    const KernelBackend *native = nativeKernelBackend();
    if (native == nullptr)
        GTEST_SKIP() << "host has no AVX2; Native runs Scalar";
    ContactIsland island(false);
    ASSERT_EQ(island.islands.size(), 1u);
    ASSERT_EQ(island.islands[0].contacts.size(), 19u);
    EXPECT_EQ(island.solve(*native).contactUnits, 19u);

    // The solved impulses land in each contact's record: every
    // ground contact pushes up, inside the friction pyramid.
    const Real mu = ContactMaterial{}.friction;
    for (std::size_t k = 0; k < 16; ++k) {
        const Real *l = island.contacts[k].solved;
        EXPECT_GT(l[0], 0.0) << "contact " << k;
        EXPECT_LE(std::fabs(l[1]), mu * l[0] * (1.0 + 1e-5));
        EXPECT_LE(std::fabs(l[2]), mu * l[0] * (1.0 + 1e-5));
    }
}

TEST(Solver, NativeRunsAnIslandWithAJointLikeScalar)
{
    const KernelBackend *native = nativeKernelBackend();
    if (native == nullptr)
        GTEST_SKIP() << "host has no AVX2; Native runs Scalar";
    // One ball joint in the island sends it to the scalar reference
    // sweep: no fused units, and every velocity and stored impulse
    // equals the Scalar solve bit for bit.
    ContactIsland scalar(true);
    ContactIsland vec(true);
    EXPECT_EQ(scalar.solve(scalarKernelBackend()).contactUnits, 0u);
    EXPECT_EQ(vec.solve(*native).contactUnits, 0u);
    auto bits = [](Real x) { return std::bit_cast<std::uint64_t>(x); };
    for (std::size_t i = 0; i < scalar.bodies.size(); ++i) {
        const RigidBody &s = *scalar.bodies[i];
        const RigidBody &v = *vec.bodies[i];
        for (int k = 0; k < 3; ++k) {
            EXPECT_EQ(bits(v.linearVelocity()[k]),
                      bits(s.linearVelocity()[k]))
                << "body " << i;
            EXPECT_EQ(bits(v.angularVelocity()[k]),
                      bits(s.angularVelocity()[k]))
                << "body " << i;
        }
    }
    for (std::size_t c = 0; c < scalar.contacts.size(); ++c) {
        for (int k = 0; k < 3; ++k) {
            EXPECT_EQ(bits(vec.contacts[c].solved[k]),
                      bits(scalar.contacts[c].solved[k]))
                << "contact " << c;
        }
    }
    EXPECT_GT(scalar.contacts[0].solved[0], 0.0);
}

} // namespace
} // namespace parallax
