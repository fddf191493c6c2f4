/**
 * @file
 * Tests for the position-based cloth simulation.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <ostream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "physics/world.hh"

namespace parallax
{
namespace
{

TEST(Cloth, GridConstruction)
{
    World world;
    Cloth *cloth = world.createCloth(5, 5, {0, 2, 0}, 0.1, 1.0);
    EXPECT_EQ(cloth->vertexCount(), 25);
    // Structural: 2*5*4 = 40; shear diagonals: 4*4 = 16.
    EXPECT_EQ(cloth->constraintCount(), 56);
}

TEST(Cloth, PaperSizes)
{
    World world;
    // Large cloth objects use 625 vertices; small ones use 25.
    Cloth *large = world.createCloth(25, 25, {0, 5, 0}, 0.2, 2.0);
    Cloth *small = world.createCloth(5, 5, {10, 5, 0}, 0.1, 0.3);
    EXPECT_EQ(large->vertexCount(), 625);
    EXPECT_EQ(small->vertexCount(), 25);
}

TEST(Cloth, FreeClothFallsUnderGravity)
{
    World world;
    Cloth *cloth = world.createCloth(5, 5, {0, 10, 0}, 0.1, 1.0);
    for (int i = 0; i < 50; ++i)
        world.step();
    for (const auto &p : cloth->particles())
        EXPECT_LT(p.position.y, 10.0);
}

TEST(Cloth, PinnedCornersHoldTheSheet)
{
    World world;
    Cloth *cloth = world.createCloth(10, 10, {0, 5, 0}, 0.1, 1.0);
    cloth->pin(0);
    cloth->pin(9);
    const Vec3 corner0 = cloth->particles()[0].position;
    for (int i = 0; i < 100; ++i)
        world.step();
    // Pinned corners stay put.
    EXPECT_NEAR(
        (cloth->particles()[0].position - corner0).length(), 0.0,
        1e-9);
    // The free middle sags below the pinned row.
    const auto &mid = cloth->particles()[55];
    EXPECT_LT(mid.position.y, 5.0);
    // But the sheet hasn't fallen away: constraints hold it.
    EXPECT_GT(mid.position.y, 3.0);
}

TEST(Cloth, ConstraintsPreserveEdgeLengths)
{
    World world;
    Cloth *cloth = world.createCloth(8, 8, {0, 5, 0}, 0.1, 1.0);
    cloth->pin(0);
    cloth->pin(7);
    for (int i = 0; i < 150; ++i)
        world.step();
    // After settling, stretched edge error should be bounded.
    Real worst = 0.0;
    for (const auto &c : cloth->constraints()) {
        const Real len = (cloth->particles()[c.a].position -
                          cloth->particles()[c.b].position)
                             .length();
        worst = std::max(worst,
                         std::fabs(len - c.restLength) / c.restLength);
    }
    EXPECT_LT(worst, 0.15);
}

/** Collider shapes the drape oracle drops a cloth onto. */
enum class DrapeShape
{
    Sphere,
    Box,
    Capsule,
    Heightfield,
};

/**
 * Drop a 10x10 cloth onto one static collider under the given kernel
 * backend. After 200 steps no particle may lie more than 0.03 inside
 * the shape, and the last step must still resolve collisions (the
 * cloth rests on the shape rather than having slid off it).
 */
void
expectDrapeWithoutPenetration(DrapeShape kind, SimdBackend backend)
{
    WorldConfig config;
    config.simdBackend = backend;
    World world(config);
    const Vec3 center{0.45, 2.0, 0.45};
    const Real tolerance = 0.03;
    const Geom *geom = nullptr;
    switch (kind) {
      case DrapeShape::Sphere:
        geom = world.createGeom(
            world.addSphere(1.0),
            world.createStaticBody(Transform(Quat(), center)));
        break;
      case DrapeShape::Box:
        // Turned about two axes: the cloth lands on a tilted top
        // face and hangs over its edges.
        geom = world.createGeom(
            world.addBox({0.6, 0.3, 0.6}),
            world.createStaticBody(Transform(
                Quat::fromAxisAngle({1, 0, 0}, 0.25) *
                    Quat::fromAxisAngle({0, 0, 1}, 0.2),
                center)));
        break;
      case DrapeShape::Capsule:
        // A bar lying 20 degrees off horizontal.
        geom = world.createGeom(
            world.addCapsule(0.3, 0.6),
            world.createStaticBody(Transform(
                Quat::fromAxisAngle({0, 0, 1}, 1.92), center)));
        break;
      case DrapeShape::Heightfield: {
        std::mt19937_64 rng(7);
        std::uniform_real_distribution<Real> height(0.0, 0.3);
        std::vector<Real> heights(8 * 8);
        for (Real &h : heights)
            h = height(rng);
        geom = world.createGeom(
            world.addHeightfield(heights, 8, 8, 0.25),
            world.createStaticBody(
                Transform(Quat(), {-0.4, 1.5, -0.4})));
        break;
      }
    }
    Cloth *cloth = world.createCloth(10, 10, {0, 3.2, 0}, 0.1, 1.0);
    for (int i = 0; i < 200; ++i)
        world.step();
    EXPECT_GT(world.lastStepStats().cloth.collisionsResolved, 0u);

    // Depth of a point inside the shape (<= 0 outside it).
    const Transform pose = geom->worldPose();
    auto depth = [&](const Vec3 &p) -> Real {
        switch (kind) {
          case DrapeShape::Sphere: {
            const auto &s =
                static_cast<const SphereShape &>(geom->shape());
            return s.radius() - (p - pose.position).length();
          }
          case DrapeShape::Box: {
            const Vec3 h =
                static_cast<const BoxShape &>(geom->shape())
                    .halfExtents();
            const Vec3 local = pose.applyInverse(p);
            return std::min({h.x - std::fabs(local.x),
                             h.y - std::fabs(local.y),
                             h.z - std::fabs(local.z)});
          }
          case DrapeShape::Capsule: {
            const auto &c =
                static_cast<const CapsuleShape &>(geom->shape());
            Vec3 a, b;
            c.segment(pose, a, b);
            const Vec3 ab = b - a;
            const Real t = std::clamp(
                (p - a).dot(ab) / ab.lengthSquared(), 0.0, 1.0);
            return c.radius() - (p - (a + ab * t)).length();
          }
          case DrapeShape::Heightfield: {
            const auto &hf =
                static_cast<const HeightfieldShape &>(geom->shape());
            const Vec3 local = p - pose.position;
            if (local.x < 0 || local.x > hf.width() || local.z < 0 ||
                local.z > hf.depth()) {
                return -1.0;
            }
            return hf.sampleHeight(local.x, local.z) - local.y;
          }
        }
        return -1.0;
    };
    for (const auto &p : cloth->particles()) {
        if (p.invMass != 0.0) {
            EXPECT_LT(depth(p.position), tolerance);
        }
    }
}

TEST(Cloth, DrapesOverSphereWithoutPenetration)
{
    for (SimdBackend backend : {SimdBackend::Scalar, SimdBackend::Native})
        expectDrapeWithoutPenetration(DrapeShape::Sphere, backend);
}

/** One drape oracle run: a collider shape under a kernel backend. */
struct DrapeCase
{
    DrapeShape shape;
    SimdBackend backend;
    const char *name;
};

// Printed as its name, which ctest then uses as the test suffix.
void
PrintTo(const DrapeCase &c, std::ostream *os)
{
    *os << c.name;
}

class ClothDrape : public ::testing::TestWithParam<DrapeCase>
{
};

TEST_P(ClothDrape, DrapesWithoutPenetration)
{
    expectDrapeWithoutPenetration(GetParam().shape, GetParam().backend);
}

INSTANTIATE_TEST_SUITE_P(
    Colliders, ClothDrape,
    ::testing::Values(
        DrapeCase{DrapeShape::Box, SimdBackend::Scalar, "BoxScalar"},
        DrapeCase{DrapeShape::Box, SimdBackend::Native, "BoxNative"},
        DrapeCase{DrapeShape::Capsule, SimdBackend::Scalar,
                  "CapsuleScalar"},
        DrapeCase{DrapeShape::Capsule, SimdBackend::Native,
                  "CapsuleNative"},
        DrapeCase{DrapeShape::Heightfield, SimdBackend::Scalar,
                  "HeightfieldScalar"},
        DrapeCase{DrapeShape::Heightfield, SimdBackend::Native,
                  "HeightfieldNative"}));

TEST(Cloth, RestsOnPlane)
{
    World world;
    const PlaneShape *plane = world.addPlane({0, 1, 0}, 0.0);
    world.createGeom(plane, world.createStaticBody(Transform()));
    Cloth *cloth = world.createCloth(6, 6, {0, 1.0, 0}, 0.2, 1.0);
    for (int i = 0; i < 200; ++i)
        world.step();
    for (const auto &p : cloth->particles()) {
        EXPECT_GT(p.position.y, -0.01);
        EXPECT_LT(p.position.y, 0.2);
    }
}

TEST(Cloth, AttachmentFollowsBody)
{
    World world;
    const SphereShape *s = world.addSphere(0.3);
    RigidBody *carrier = world.createDynamicBody(
        Transform(Quat(), {0, 5, 0}), *s, 1.0);
    world.createGeom(s, carrier);
    carrier->setLinearVelocity({2, 9.81 * 0.5, 0});

    Cloth *cloth = world.createCloth(5, 5, {0, 5, 0}, 0.1, 0.3);
    world.attachClothParticle(cloth, 0, carrier, {0, 0.3, 0});

    for (int i = 0; i < 30; ++i)
        world.step();
    // The pinned particle tracks the carrier's current pose.
    const Vec3 expected = carrier->pose().apply({0, 0.3, 0});
    EXPECT_NEAR((cloth->particles()[0].position - expected).length(),
                0.0, 1e-9);
    EXPECT_GT(cloth->particles()[0].position.x, 0.3);
}

TEST(Cloth, BoundsCoverAllParticles)
{
    World world;
    Cloth *cloth = world.createCloth(5, 5, {1, 2, 3}, 0.25, 1.0);
    const Aabb b = cloth->bounds(0.0);
    for (const auto &p : cloth->particles())
        EXPECT_TRUE(b.contains(p.position));
}

TEST(Cloth, StatsAccumulate)
{
    World world;
    // Two listed colliders: a ground plane no vertex reaches and a
    // sphere under the middle of the sheet that some vertices do.
    world.createGeom(world.addPlane({0, 1, 0}, 0.0),
                     world.createStaticBody(Transform()));
    world.createGeom(world.addSphere(0.15),
                     world.createStaticBody(
                         Transform(Quat(), {0.2, 5.0, 0.2})));
    world.createCloth(5, 5, {0, 5, 0}, 0.1, 1.0);
    world.step();
    const ClothStats &stats = world.lastStepStats().cloth;
    const auto sweeps =
        static_cast<std::uint64_t>(world.config().clothIterations);
    EXPECT_EQ(stats.clothsStepped, 1u);
    EXPECT_EQ(stats.verticesIntegrated, 25u);
    // 56 constraints x clothIterations sweeps.
    EXPECT_EQ(stats.constraintRelaxations, 56u * sweeps);
    // Every (free vertex, listed collider) pair counts each sweep,
    // whether or not its reach box culls it.
    EXPECT_EQ(stats.collisionTests, 25u * 2u * sweeps);
    EXPECT_GT(stats.collisionsResolved, 0u);
}

/** Region the reach test samples: the reach box (or, where the reach
 *  is empty, the shape's own box), with infinite bounds cut at 4 m. */
Aabb
sampleRegion(const ClothCollider &c)
{
    Aabb r = c.reach.valid() ? c.reach : c.geom->shape().bounds(c.pose);
    for (int i = 0; i < 3; ++i) {
        if (std::isinf(r.lo[i]))
            r.lo[i] = -4.0;
        if (std::isinf(r.hi[i]))
            r.hi[i] = 4.0;
    }
    return r;
}

bool
sameBits(const Vec3 &a, const Vec3 &b)
{
    return std::memcmp(&a, &b, sizeof(Vec3)) == 0;
}

TEST(Cloth, ReachBoxNeverHidesAProjection)
{
    World world;
    const Real margin = 0.02;
    auto place = [&world](const Shape *shape, const Transform &pose) {
        return world.createGeom(shape, world.createStaticBody(pose));
    };
    std::mt19937_64 rng(16);
    std::uniform_real_distribution<Real> unit(0.0, 1.0);
    std::vector<Real> heights(6 * 5);
    for (Real &h : heights)
        h = 0.6 * unit(rng) - 0.1;
    const std::vector<Geom *> geoms{
        place(world.addSphere(0.4), Transform(Quat(), {1.0, 2.0, -0.5})),
        place(world.addCapsule(0.15, 0.5),
              Transform(Quat::fromAxisAngle({0, 0, 1}, 0.52),
                        {-1.0, 1.0, 0.5})),
        place(world.addBox({0.5, 0.3, 0.2}),
              Transform(Quat::fromAxisAngle({1, 0, 0}, 0.6) *
                            Quat::fromAxisAngle({0, 1, 0}, 0.8),
                        {0.5, 1.5, 1.0})),
        place(world.addPlane({0.3, 1.0, -0.2}, 0.4), Transform()),
        place(world.addHeightfield(heights, 6, 5, 0.4),
              Transform(Quat(), {-1.0, 0.2, -0.8})),
        place(world.addTriMesh({{0, 0, 0}, {2, 0, 0}, {0, 0.5, 2}},
                               {{0, 1, 2}}),
              Transform(Quat(), {0.5, 0.0, 0.0})),
        // The six axis planes, whose reach is a half-space box.
        place(world.addPlane({0, 1, 0}, 0.4), Transform()),
        place(world.addPlane({0, -1, 0}, -2.0), Transform()),
        place(world.addPlane({1, 0, 0}, -0.7), Transform()),
        place(world.addPlane({-1, 0, 0}, 0.3), Transform()),
        place(world.addPlane({0, 0, 1}, 1.1), Transform()),
        place(world.addPlane({0, 0, -1}, -0.5), Transform())};
    const std::size_t first_axis_plane = 6;

    const Real nan = std::numeric_limits<Real>::quiet_NaN();
    const Real inf = std::numeric_limits<Real>::infinity();
    for (std::size_t gi = 0; gi < geoms.size(); ++gi) {
        Geom *g = geoms[gi];
        const std::string name = std::string(shapeTypeName(
                                     g->shape().type())) +
            " #" + std::to_string(gi);
        const ClothCollider c = poseClothCollider(*g, margin);
        const Aabb region = sampleRegion(c);
        int hidden = 0;
        int projected = 0;
        auto check = [&](const Vec3 &p) {
            Vec3 q = p;
            const bool moved = clothProjectOut(c, q, margin);
            projected += moved;
            if (clothReachSkips(c, p) && (moved || !sameBits(p, q)))
                ++hidden;
        };

        // Seeded points in a box twice the size of the reach box.
        const Vec3 mid = region.center();
        const Vec3 half = region.extents() * 2.0;
        for (int i = 0; i < 10000; ++i) {
            check({mid.x + half.x * (2 * unit(rng) - 1),
                   mid.y + half.y * (2 * unit(rng) - 1),
                   mid.z + half.z * (2 * unit(rng) - 1)});
        }
        EXPECT_EQ(hidden, 0) << name << ": random points";
        if (g->shape().type() == ShapeType::TriMesh)
            EXPECT_EQ(projected, 0) << name;
        else
            EXPECT_GT(projected, 0) << name << ": vacuous sample";

        // A grid on each finite reach-box face, one ulp outward:
        // every such point is culled, and none may project.
        hidden = 0;
        int kept = 0;
        int faces = 0;
        const int n = 101;
        for (int axis = 0; axis < 3 && c.reach.valid(); ++axis) {
            const int u = (axis + 1) % 3;
            const int v = (axis + 2) % 3;
            for (int side = 0; side < 2; ++side) {
                const Real bound = side == 0 ? c.reach.lo[axis]
                                             : c.reach.hi[axis];
                if (!std::isfinite(bound))
                    continue;
                ++faces;
                for (int i = 0; i < n; ++i) {
                    for (int j = 0; j < n; ++j) {
                        Vec3 p;
                        p[axis] = std::nextafter(
                            bound, side == 0 ? -inf : inf);
                        p[u] = region.lo[u] +
                            (region.hi[u] - region.lo[u]) * i / (n - 1);
                        p[v] = region.lo[v] +
                            (region.hi[v] - region.lo[v]) * j / (n - 1);
                        kept += !clothReachSkips(c, p);
                        check(p);
                    }
                }
            }
        }
        EXPECT_EQ(kept, 0) << name << ": face points not culled";
        EXPECT_EQ(hidden, 0) << name << ": face points";
        if (g->shape().type() == ShapeType::Plane) {
            EXPECT_EQ(faces, gi >= first_axis_plane ? 1 : 0) << name;
        } else if (g->shape().type() != ShapeType::TriMesh) {
            EXPECT_GE(faces, 5) << name;
        }

        // A non-finite coordinate is never culled, however far out
        // the other two lie.
        for (const Real bad : {nan, inf, -inf}) {
            for (int axis = 0; axis < 3; ++axis) {
                Vec3 p{100.0, -100.0, 100.0};
                p[axis] = bad;
                EXPECT_FALSE(clothReachSkips(c, p))
                    << name << " culls a non-finite vertex";
            }
        }

        // A collider whose pose holds a NaN never culls any point.
        const Transform good = g->body()->pose();
        for (const Transform &bad_pose :
             {Transform(good.rotation, {nan, 0.0, 0.0}),
              Transform(Quat(nan, 0.0, 0.0, 0.0), good.position)}) {
            g->body()->setPose(bad_pose);
            const ClothCollider posed = poseClothCollider(*g, margin);
            int culled = 0;
            for (int i = 0; i < 1000; ++i) {
                culled += clothReachSkips(
                    posed, {16 * unit(rng) - 8, 16 * unit(rng) - 8,
                            16 * unit(rng) - 8});
            }
            EXPECT_EQ(culled, 0) << name << " culls for a NaN pose";
        }
        g->body()->setPose(good);
    }

    // An axis plane at a NaN or infinite offset: a NaN bound never
    // culls, and where an infinite one culls, the exact test would
    // not have moved the point either.
    for (const Real offset : {nan, inf, -inf}) {
        for (int axis = 0; axis < 3; ++axis) {
            for (const Real sign : {1.0, -1.0}) {
                Vec3 normal;
                normal[axis] = sign;
                const PlaneShape plane(normal, offset);
                const Geom geom(0, &plane, nullptr, Transform());
                const ClothCollider c = poseClothCollider(geom, margin);
                int hidden = 0;
                int culled = 0;
                for (int i = 0; i < 1000; ++i) {
                    const Vec3 p{16 * unit(rng) - 8, 16 * unit(rng) - 8,
                                 16 * unit(rng) - 8};
                    Vec3 q = p;
                    const bool moved = clothProjectOut(c, q, margin);
                    const bool skipped = clothReachSkips(c, p);
                    culled += skipped;
                    hidden += skipped && (moved || !sameBits(p, q));
                }
                EXPECT_EQ(hidden, 0) << "offset " << offset;
                if (std::isnan(offset)) {
                    EXPECT_EQ(culled, 0) << "a NaN plane culls";
                }
            }
        }
    }

    // A bodiless geom keeps its offset's rotation as given. This one
    // is not a unit quaternion, so it is not a rotation and the box
    // rule does not bound it: the reach must be unbounded.
    const BoxShape squashed_box({0.5, 0.3, 0.2});
    const Geom squashed(0, &squashed_box, nullptr,
                        Transform(Quat(0.0, 0.5, 0.0, 0.0), {}));
    const ClothCollider sc = poseClothCollider(squashed, margin);
    Vec3 above{0.0, 0.5, 0.0};
    EXPECT_FALSE(clothReachSkips(sc, above));
    EXPECT_TRUE(clothProjectOut(sc, above, margin));

    // The same through Cloth::step, which hoists the finite half of
    // the rule out of its collider loop. A heightfield posed at
    // y = +inf (unbounded reach) lifts every vertex to y = +inf; each
    // vertex must then still meet the exact test of a box no finite
    // vertex can reach, and that test reports it as resolved. One
    // sweep, so relaxation never sees the infinite coordinate.
    const HeightfieldShape ground({0, 0, 0, 0}, 2, 2, 1.0);
    const Geom lifted(0, &ground, nullptr,
                      Transform(Quat(), {-0.5, inf, -0.5}));
    const BoxShape far_box({0.5, 0.5, 0.5});
    const Geom far(1, &far_box, nullptr,
                   Transform(Quat(), {100.0, 0.0, 0.0}));
    Cloth cloth(0, 3, 3, {0, 0, 0}, 0.1, 1.0);
    ClothStats stats;
    cloth.step(0.01, {0, -9.81, 0}, 1, {&lifted, &far}, stats);
    EXPECT_EQ(stats.collisionTests, 9u * 2u);
    EXPECT_EQ(stats.collisionsResolved, 9u * 2u);
}

/**
 * The documented cloth step, written out vertex by vertex: scalar
 * Verlet integration, relaxation over constraints() in construction
 * order, then each free vertex meets every listed collider in list
 * order through the skip rule and the exact projection, dragging its
 * previous position half way along each projection. Cloth::step
 * (wavefront relaxation order, tile-culled collider-major
 * projection) must match it bit for bit.
 */
struct ReferenceCloth
{
    std::vector<Real> px, py, pz, qx, qy, qz, w;
    std::vector<std::int32_t> a, b;
    std::vector<Real> rest;
    ClothStats stats;

    explicit ReferenceCloth(const Cloth &cloth)
    {
        for (const Cloth::Particle &p : cloth.particles()) {
            px.push_back(p.position.x);
            py.push_back(p.position.y);
            pz.push_back(p.position.z);
            qx.push_back(p.previous.x);
            qy.push_back(p.previous.y);
            qz.push_back(p.previous.z);
            w.push_back(p.invMass);
        }
        for (const Cloth::DistanceConstraint &c : cloth.constraints()) {
            a.push_back(static_cast<std::int32_t>(c.a));
            b.push_back(static_cast<std::int32_t>(c.b));
            rest.push_back(c.restLength);
        }
    }

    void
    step(Real dt, const Vec3 &gravity, int iterations,
         const std::vector<const Geom *> &colliders)
    {
        const KernelBackend &scalar = scalarKernelBackend();
        ClothParticlesView pv;
        pv.count = px.size();
        pv.px = px.data(); pv.py = py.data(); pv.pz = pz.data();
        pv.qx = qx.data(); pv.qy = qy.data(); pv.qz = qz.data();
        pv.w = w.data();
        ClothConstraintsView cv;
        cv.count = a.size();
        cv.a = a.data(); cv.b = b.data(); cv.rest = rest.data();

        ++stats.clothsStepped;
        scalar.clothIntegrate(pv, gravity * (dt * dt), 0.995,
                              stats.kernels);
        stats.verticesIntegrated += px.size();
        const Real margin = 0.02;
        std::vector<ClothCollider> posed;
        for (const Geom *g : colliders)
            posed.push_back(poseClothCollider(*g, margin));
        for (int it = 0; it < iterations; ++it) {
            scalar.clothRelax(pv, cv, stats.kernels);
            stats.constraintRelaxations += a.size();
            for (std::size_t i = 0; i < px.size(); ++i) {
                if (w[i] == 0.0)
                    continue;
                Vec3 pos{px[i], py[i], pz[i]};
                Vec3 prev{qx[i], qy[i], qz[i]};
                for (const ClothCollider &c : posed) {
                    ++stats.collisionTests;
                    if (clothReachSkips(c, pos) ||
                        !clothProjectOut(c, pos, margin)) {
                        continue;
                    }
                    ++stats.collisionsResolved;
                    prev = prev + (pos - prev) * 0.5;
                }
                px[i] = pos.x; py[i] = pos.y; pz[i] = pos.z;
                qx[i] = prev.x; qy[i] = prev.y; qz[i] = prev.z;
            }
        }
    }
};

/**
 * Step `cloth` and its reference side by side under `gravity` and
 * require bit-identical positions, previous positions and stats
 * after every step. Returns the reference's stats.
 */
ClothStats
expectMatchesReference(Cloth &cloth,
                       const std::vector<const Geom *> &colliders,
                       int steps, int iterations, const Vec3 &gravity,
                       const std::string &name)
{
    ReferenceCloth ref(cloth);
    ClothStats stats;
    const Real dt = 1.0 / 60.0;
    for (int s = 0; s < steps; ++s) {
        cloth.step(dt, gravity, iterations, colliders, stats);
        ref.step(dt, gravity, iterations, colliders);
        int differing = 0;
        for (std::size_t i = 0; i < ref.px.size(); ++i) {
            const Cloth::Particle &p = cloth.particles()[i];
            differing +=
                !sameBits(p.position, {ref.px[i], ref.py[i], ref.pz[i]}) ||
                !sameBits(p.previous, {ref.qx[i], ref.qy[i], ref.qz[i]});
        }
        EXPECT_EQ(differing, 0) << name << ", step " << s;
        EXPECT_EQ(stats.clothsStepped, ref.stats.clothsStepped) << name;
        EXPECT_EQ(stats.verticesIntegrated, ref.stats.verticesIntegrated)
            << name;
        EXPECT_EQ(stats.constraintRelaxations,
                  ref.stats.constraintRelaxations) << name;
        EXPECT_EQ(stats.collisionTests, ref.stats.collisionTests) << name;
        EXPECT_EQ(stats.collisionsResolved, ref.stats.collisionsResolved)
            << name << ", step " << s;
        if (differing != 0 ||
            stats.collisionsResolved != ref.stats.collisionsResolved) {
            break;
        }
    }
    return ref.stats;
}

TEST(Cloth, StepMatchesPerVertexReference)
{
    const Vec3 gravity{0.0, -9.81, 0.0};
    const Real nan = std::numeric_limits<Real>::quiet_NaN();
    std::mt19937_64 rng(21);
    std::uniform_real_distribution<Real> unit(0.0, 1.0);

    // Every collider shape under a cloth that falls onto them, the
    // ground plane first, for each grid size, with seeded jitter and
    // some particles pinned.
    const PlaneShape ground({0, 1, 0}, 0.0);
    const SphereShape ball(0.3);
    const CapsuleShape bar(0.1, 0.3);
    const BoxShape crate({0.3, 0.15, 0.2});
    std::vector<Real> heights(5 * 4);
    for (Real &h : heights)
        h = 0.25 * unit(rng);
    const HeightfieldShape bumps(heights, 5, 4, 0.15);
    const TriMeshShape ramp({{0, 0, 0}, {1, 0, 0}, {0, 0.3, 1}},
                            {{0, 1, 2}});
    for (const auto [nx, ny] : {std::pair{25, 25}, std::pair{5, 5},
                                std::pair{7, 3}}) {
        const std::string name =
            std::to_string(nx) + "x" + std::to_string(ny);
        const Real width = 0.1 * (nx - 1);
        const Real depth = 0.1 * (ny - 1);
        const Vec3 mid{width * 0.5, 0.0, depth * 0.5};
        const Geom plane(0, &ground, nullptr);
        const Geom sphere(1, &ball, nullptr,
                          Transform(Quat(), mid + Vec3{0.0, 0.3, 0.0}));
        const Geom capsule(
            2, &bar, nullptr,
            Transform(Quat::fromAxisAngle({0, 0, 1}, 1.3),
                      {width * 0.2, 0.25, depth * 0.3}));
        const Geom box(3, &crate, nullptr,
                       Transform(Quat::fromAxisAngle({1, 0, 0}, 0.4) *
                                     Quat::fromAxisAngle({0, 1, 0}, 0.7),
                                 {width * 0.8, 0.2, depth * 0.7}));
        const Geom field(4, &bumps, nullptr,
                         Transform(Quat(), {width * 0.1, 0.0, depth * 0.6}));
        const Geom mesh(5, &ramp, nullptr,
                        Transform(Quat(), {0.0, 0.0, 0.0}));
        const std::vector<const Geom *> colliders{
            &plane, &sphere, &capsule, &box, &field, &mesh};

        Cloth cloth(0, nx, ny, {0.0, 0.45, 0.0}, 0.1, 1.0);
        std::vector<Cloth::Particle> jittered = cloth.particles();
        for (Cloth::Particle &p : jittered) {
            p.position += Vec3{unit(rng), unit(rng), unit(rng)} * 0.02;
            p.previous = p.position;
        }
        ASSERT_TRUE(cloth.restoreParticles(jittered));
        for (int i = 0; i <= nx * ny / 50; ++i)
            cloth.pin(static_cast<std::uint32_t>(unit(rng) * nx * ny));
        const ClothStats stats =
            expectMatchesReference(cloth, colliders, 60, 8, gravity, name);
        EXPECT_GT(stats.collisionsResolved, 0u) << name;
    }

    // A sphere whose reach box meets only positions the plane
    // projection produces: the cloth starts under the plane, and the
    // plane lifts a vertex into the sphere within the same sweep, so
    // the sphere must see the lifted position, not the box bounded
    // before the plane moved it.
    {
        const Geom plane(0, &ground, nullptr);
        const SphereShape pebble(0.05);
        const Geom sphere(1, &pebble, nullptr,
                          Transform(Quat(), {0.3, 0.03, 0.1}));
        Cloth cloth(0, 7, 3, {0.0, -0.3, 0.0}, 0.1, 1.0);
        const ClothCollider posed = poseClothCollider(sphere, 0.02);
        ASSERT_GT(posed.reach.lo.y, -0.25);
        const ClothStats first = expectMatchesReference(
            cloth, {&plane, &sphere}, 1, 1, gravity, "plane, then sphere");
        // The plane lifts all 21 vertices; the sphere moves more.
        EXPECT_GT(first.collisionsResolved, 21u);
        expectMatchesReference(cloth, {&plane, &sphere}, 20, 4, gravity,
                               "plane, then sphere, settling");
    }

    // One NaN particle: its NaN spreads through relaxation, and a
    // vertex with a non-finite coordinate is never culled, so each
    // collider's exact test meets every such vertex.
    {
        const Geom plane(0, &ground, nullptr);
        const Geom sphere(1, &ball, nullptr,
                          Transform(Quat(), {2.0, 0.2, 0.3}));
        const Geom box(2, &crate, nullptr,
                       Transform(Quat(), {0.4, 0.2, 2.0}));
        Cloth cloth(0, 25, 25, {0.0, 0.4, 0.0}, 0.1, 1.0);
        std::vector<Cloth::Particle> poisoned = cloth.particles();
        poisoned[312].position.x = nan;
        ASSERT_TRUE(cloth.restoreParticles(poisoned));
        cloth.pin(0);
        expectMatchesReference(cloth, {&plane, &sphere, &box}, 3, 4,
                               gravity, "NaN particle");
    }

    // A vertex exactly on a reach face: without gravity or strain
    // the cloth does not move, and its first column lies on the
    // sphere's +x reach face. The strict rule keeps it for the exact
    // test, which leaves it where it is.
    {
        const Geom sphere(0, &ball, nullptr,
                          Transform(Quat(), {0.0, 1.0, 0.0}));
        const Aabb reach = poseClothCollider(sphere, 0.02).reach;
        Cloth cloth(0, 5, 5, {reach.hi.x, 1.0, -0.2}, 0.1, 1.0);
        const Geom plane(1, &ground, nullptr);
        const ClothStats stats = expectMatchesReference(
            cloth, {&sphere, &plane}, 3, 2, Vec3{}, "on a reach face");
        EXPECT_EQ(stats.collisionsResolved, 0u);
        EXPECT_EQ(cloth.particles()[0].position.x, reach.hi.x);
    }
}

TEST(Cloth, InvalidConstructionRejected)
{
    World world;
    EXPECT_EXIT(world.createCloth(1, 5, {0, 0, 0}, 0.1, 1.0),
                ::testing::ExitedWithCode(1), "2x2");
    EXPECT_EXIT(world.createCloth(5, 5, {0, 0, 0}, -0.1, 1.0),
                ::testing::ExitedWithCode(1), "positive");
}

} // namespace
} // namespace parallax
