/**
 * @file
 * Analytic oracles: the engine against closed forms, not against
 * itself. Each case runs under the Scalar and the Native backend
 * (Native degrades to Scalar on a host without SIMD).
 *
 *  - A lone sphere in free flight follows semi-implicit Euler
 *    exactly: v_n = v0 + n g dt and x_n = x0 + dt (n v0 +
 *    g dt n(n+1)/2).
 *  - An unpinned cloth with no colliders falls as one piece: every
 *    particle keeps its x and z and moves by the sum of the Verlet
 *    displacements d_k = 0.995 d_{k-1} + g dt², the damping of
 *    Cloth::step, so the distance constraints never act.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "physics/world.hh"

namespace parallax
{
namespace
{

/** Both backends, named for failure messages. */
constexpr SimdBackend backends[] = {SimdBackend::Scalar,
                                    SimdBackend::Native};

const char *
nameOf(SimdBackend backend)
{
    return backend == SimdBackend::Scalar ? "scalar" : "native";
}

/** 200 steps hold both oracles within 1.1e-13 m on a 4-cpu x86-64
 *  host under either backend; the bound leaves room for others. */
constexpr Real tolerance = 1e-9;
constexpr int steps = 200;

TEST(Oracle, LoneSphereFollowsSemiImplicitEuler)
{
    for (const SimdBackend backend : backends) {
        WorldConfig config;
        config.simdBackend = backend;
        World world(config);
        const Vec3 x0{1.0, 20.0, -2.0};
        const Vec3 v0{3.0, 4.0, -1.0};
        const SphereShape *shape = world.addSphere(0.5);
        RigidBody *body = world.createDynamicBody(
            Transform(Quat(), x0), *shape, 1000.0);
        world.createGeom(shape, body);
        body->setLinearVelocity(v0);

        const Vec3 g = config.gravity;
        const Real dt = config.dt;
        for (int n = 1; n <= steps; ++n) {
            world.step();
            const Real k = static_cast<Real>(n);
            const Vec3 v = v0 + g * (k * dt);
            const Vec3 x =
                x0 + (v0 * k + g * (dt * k * (k + 1.0) / 2.0)) * dt;
            const Vec3 dv = body->linearVelocity() - v;
            const Vec3 dx = body->position() - x;
            ASSERT_LT(dv.length(), tolerance)
                << nameOf(backend) << " step " << n;
            ASSERT_LT(dx.length(), tolerance)
                << nameOf(backend) << " step " << n;
        }
        EXPECT_EQ(body->angularVelocity().length(), 0.0)
            << nameOf(backend);
    }
}

TEST(Oracle, FreeClothFallsAsOnePiece)
{
    for (const SimdBackend backend : backends) {
        WorldConfig config;
        config.simdBackend = backend;
        World world(config);
        const Cloth *cloth =
            world.createCloth(12, 9, {-1.0, 5.0, 2.0}, 0.1, 1.0);
        const std::vector<Cloth::Particle> start = cloth->particles();

        const Real gdt2 = config.gravity.y * config.dt * config.dt;
        Real d = 0.0;
        Real drop = 0.0;
        for (int n = 1; n <= steps; ++n) {
            world.step();
            d = 0.995 * d + gdt2;
            drop += d;
        }
        ASSERT_LT(drop, -1.0) << "the cloth must really fall";
        const std::vector<Cloth::Particle> &end = cloth->particles();
        ASSERT_EQ(end.size(), start.size());
        for (std::size_t i = 0; i < end.size(); ++i) {
            const Vec3 &p = end[i].position;
            const Vec3 &p0 = start[i].position;
            ASSERT_LT(std::fabs(p.x - p0.x), tolerance)
                << nameOf(backend) << " particle " << i;
            ASSERT_LT(std::fabs(p.z - p0.z), tolerance)
                << nameOf(backend) << " particle " << i;
            ASSERT_LT(std::fabs(p.y - (p0.y + drop)), tolerance)
                << nameOf(backend) << " particle " << i;
        }
    }
}

} // namespace
} // namespace parallax
