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
 *  - Two spheres colliding off centre without gravity conserve the
 *    total linear momentum and the angular momentum about the
 *    origin (orbital plus spin): every contact impulse acts on both
 *    bodies equal and opposite at one point. Under Native the
 *    contact is a fused fp32 unit, so this holds that path to a
 *    physical law rather than to the scalar sweep.
 */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "physics/kernels/kernel_backend.hh"
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

/** The 300 steps below drift the total momentum by at most 1.3e-16
 *  (linear) and 1.1e-14 (angular), relative, under Scalar on a
 *  4-cpu x86-64 host, and by 9.6e-8 and 4.0e-8 under Native
 *  (avx512), whose contact streams are fp32. The bounds leave room
 *  for other hosts. */
constexpr Real scalarMomentumDrift = 1e-12;
constexpr Real nativeMomentumDrift = 1e-6;

TEST(Oracle, IsolatedCollisionConservesMomentum)
{
    for (const SimdBackend backend : backends) {
        WorldConfig config;
        config.simdBackend = backend;
        config.gravity = Vec3{};
        World world(config);
        auto sphere = [&world](Real radius, Real density,
                               const Vec3 &at) {
            const SphereShape *shape = world.addSphere(radius);
            RigidBody *body = world.createDynamicBody(
                Transform(Quat(), at), *shape, density);
            world.createGeom(shape, body);
            return body;
        };
        RigidBody *a = sphere(0.5, 1000.0, {-3.0, 1.0, 0.2});
        RigidBody *b = sphere(0.8, 700.0, {3.0, 1.5, -0.3});
        a->setLinearVelocity({4.0, 0.1, 0.0});
        a->setAngularVelocity({0.0, 1.0, 2.0});
        b->setLinearVelocity({-2.0, 0.0, 0.3});

        auto linear = [a, b] {
            return a->linearVelocity() * a->mass() +
                   b->linearVelocity() * b->mass();
        };
        auto angular = [a, b] {
            Vec3 l;
            for (const RigidBody *body : {a, b}) {
                l += body->position().cross(body->linearVelocity() *
                                            body->mass());
                l += body->invInertiaWorld().inverse() *
                     body->angularVelocity();
            }
            return l;
        };
        const Vec3 p0 = linear();
        const Vec3 l0 = angular();

        Real worstLinear = 0.0, worstAngular = 0.0;
        std::uint64_t contacts = 0, units = 0;
        for (int n = 0; n < 300; ++n) {
            world.step();
            const StepStats &stats = world.lastStepStats();
            contacts += stats.narrowphase.contactsCreated;
            units += stats.solver.kernels.contactUnits;
            worstLinear = std::max(
                worstLinear, (linear() - p0).length() / p0.length());
            worstAngular = std::max(
                worstAngular, (angular() - l0).length() / l0.length());
        }
        ASSERT_GT(contacts, 0u) << nameOf(backend)
                                << ": the spheres never met";
        if (backend == SimdBackend::Native && nativeSimdAvailable()) {
            EXPECT_GT(units, 0u) << "the fused contact path never ran";
        }
        const Real bound = backend == SimdBackend::Scalar
                               ? scalarMomentumDrift
                               : nativeMomentumDrift;
        EXPECT_LT(worstLinear, bound) << nameOf(backend);
        EXPECT_LT(worstAngular, bound) << nameOf(backend);
    }
}

} // namespace
} // namespace parallax
