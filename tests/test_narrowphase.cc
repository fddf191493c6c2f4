/**
 * @file
 * Tests for narrowphase contact generation across shape pairs.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "physics/narrowphase/collide.hh"
#include "physics/shapes/primitives.hh"
#include "physics/shapes/static_shapes.hh"
#include "sim/rng.hh"

namespace parallax
{
namespace
{

/** Owns shapes/bodies/geoms for collision tests. */
class NarrowphaseTest : public ::testing::Test
{
  protected:
    Geom *
    makeGeom(std::unique_ptr<Shape> shape, const Transform &pose)
    {
        shapes_.push_back(std::move(shape));
        const auto body_id = static_cast<BodyId>(bodies_.size());
        bodies_.push_back(std::make_unique<RigidBody>(
            body_id, pose, 1.0, Mat3::identity()));
        const auto geom_id = static_cast<GeomId>(geoms_.size());
        geoms_.push_back(std::make_unique<Geom>(
            geom_id, shapes_.back().get(), bodies_.back().get()));
        return geoms_.back().get();
    }

    std::vector<Contact>
    collide(Geom *a, Geom *b)
    {
        std::vector<Contact> contacts;
        np_.collide(*a, *b, contacts);
        return contacts;
    }

    Narrowphase np_;
    std::vector<std::unique_ptr<Shape>> shapes_;
    std::vector<std::unique_ptr<RigidBody>> bodies_;
    std::vector<std::unique_ptr<Geom>> geoms_;
};

TEST_F(NarrowphaseTest, SphereSphereOverlap)
{
    Geom *a = makeGeom(std::make_unique<SphereShape>(1.0),
                       Transform(Quat(), {0, 0, 0}));
    Geom *b = makeGeom(std::make_unique<SphereShape>(1.0),
                       Transform(Quat(), {1.5, 0, 0}));
    const auto contacts = collide(a, b);
    ASSERT_EQ(contacts.size(), 1u);
    EXPECT_NEAR(contacts[0].depth, 0.5, 1e-9);
    // Normal points from b toward a: -x direction.
    EXPECT_NEAR(contacts[0].normal.x, -1.0, 1e-9);
    EXPECT_EQ(contacts[0].geomA, a->id());
    EXPECT_EQ(contacts[0].geomB, b->id());
}

TEST_F(NarrowphaseTest, SphereSphereSeparated)
{
    Geom *a = makeGeom(std::make_unique<SphereShape>(1.0),
                       Transform(Quat(), {0, 0, 0}));
    Geom *b = makeGeom(std::make_unique<SphereShape>(1.0),
                       Transform(Quat(), {3.0, 0, 0}));
    EXPECT_TRUE(collide(a, b).empty());
}

TEST_F(NarrowphaseTest, SphereSphereCoincidentCenters)
{
    Geom *a = makeGeom(std::make_unique<SphereShape>(1.0),
                       Transform(Quat(), {0, 0, 0}));
    Geom *b = makeGeom(std::make_unique<SphereShape>(1.0),
                       Transform(Quat(), {0, 0, 0}));
    const auto contacts = collide(a, b);
    ASSERT_EQ(contacts.size(), 1u);
    EXPECT_NEAR(contacts[0].depth, 2.0, 1e-9);
    EXPECT_NEAR(contacts[0].normal.length(), 1.0, 1e-9);
}

TEST_F(NarrowphaseTest, SphereSphereExactTouchAndCoincidentCenters)
{
    // Exact touch: dist² == (r₁ + r₂)² is a hit with depth exactly 0,
    // its point on both surfaces.
    Geom *a = makeGeom(std::make_unique<SphereShape>(1.0),
                       Transform(Quat(), {0, 0, 0}));
    Geom *b = makeGeom(std::make_unique<SphereShape>(1.0),
                       Transform(Quat(), {2.0, 0, 0}));
    const auto touch = collide(a, b);
    ASSERT_EQ(touch.size(), 1u);
    EXPECT_EQ(touch[0].depth, 0.0);
    EXPECT_EQ(touch[0].normal.x, -1.0);
    EXPECT_EQ(touch[0].position.x, 1.0);

    // Coincident centres have no direction to separate along: the
    // pair resolves along +Y.
    Geom *c = makeGeom(std::make_unique<SphereShape>(0.5),
                       Transform(Quat(), {1, 2, 3}));
    Geom *d = makeGeom(std::make_unique<SphereShape>(0.5),
                       Transform(Quat(), {1, 2, 3}));
    const auto same = collide(c, d);
    ASSERT_EQ(same.size(), 1u);
    EXPECT_EQ(same[0].depth, 1.0);
    EXPECT_EQ(same[0].normal.x, 0.0);
    EXPECT_EQ(same[0].normal.y, 1.0);
    EXPECT_EQ(same[0].normal.z, 0.0);
}

TEST_F(NarrowphaseTest, SpherePlaneResting)
{
    Geom *s = makeGeom(std::make_unique<SphereShape>(1.0),
                       Transform(Quat(), {0, 0.5, 0}));
    Geom *p = makeGeom(std::make_unique<PlaneShape>(Vec3{0, 1, 0}, 0.0),
                       Transform());
    const auto contacts = collide(s, p);
    ASSERT_EQ(contacts.size(), 1u);
    EXPECT_NEAR(contacts[0].depth, 0.5, 1e-9);
    EXPECT_NEAR(contacts[0].normal.y, 1.0, 1e-9);
    EXPECT_NEAR(contacts[0].position.y, 0.0, 1e-9);
}

TEST_F(NarrowphaseTest, PlaneSphereFlippedNormal)
{
    Geom *p = makeGeom(std::make_unique<PlaneShape>(Vec3{0, 1, 0}, 0.0),
                       Transform());
    Geom *s = makeGeom(std::make_unique<SphereShape>(1.0),
                       Transform(Quat(), {0, 0.5, 0}));
    const auto contacts = collide(p, s);
    ASSERT_EQ(contacts.size(), 1u);
    // Normal must point from the sphere (B) toward the plane (A).
    EXPECT_NEAR(contacts[0].normal.y, -1.0, 1e-9);
    EXPECT_EQ(contacts[0].geomA, p->id());
    EXPECT_EQ(contacts[0].geomB, s->id());
}

TEST_F(NarrowphaseTest, SphereBoxFaceContact)
{
    Geom *s = makeGeom(std::make_unique<SphereShape>(0.5),
                       Transform(Quat(), {0, 1.3, 0}));
    Geom *b = makeGeom(std::make_unique<BoxShape>(Vec3{1, 1, 1}),
                       Transform());
    const auto contacts = collide(s, b);
    ASSERT_EQ(contacts.size(), 1u);
    EXPECT_NEAR(contacts[0].depth, 0.2, 1e-9);
    EXPECT_NEAR(contacts[0].normal.y, 1.0, 1e-9);
}

TEST_F(NarrowphaseTest, SphereBoxExactTouchAndRotatedBox)
{
    // A sphere exactly r from a face touches it: a hit with depth 0.
    Geom *b = makeGeom(std::make_unique<BoxShape>(Vec3{1, 1, 1}),
                       Transform());
    Geom *t = makeGeom(std::make_unique<SphereShape>(0.5),
                       Transform(Quat(), {0, 1.5, 0}));
    const auto touch = collide(t, b);
    ASSERT_EQ(touch.size(), 1u);
    EXPECT_EQ(touch[0].depth, 0.0);
    EXPECT_EQ(touch[0].normal.y, 1.0);
    EXPECT_EQ(touch[0].position.y, 1.0);

    // A box turned 45° about z: the contact follows the turned +x
    // face, and a box-first pair flips the normal toward the box.
    const Vec3 n{std::sqrt(0.5), std::sqrt(0.5), 0.0};
    Geom *turned = makeGeom(
        std::make_unique<BoxShape>(Vec3{1, 1, 1}),
        Transform(Quat::fromAxisAngle({0, 0, 1}, M_PI / 4),
                  {3, 0, 0}));
    Geom *r = makeGeom(std::make_unique<SphereShape>(0.5),
                       Transform(Quat(), Vec3{3, 0, 0} + n * 1.3));
    for (const bool sphere_first : {true, false}) {
        const auto hit = sphere_first ? collide(r, turned)
                                      : collide(turned, r);
        ASSERT_EQ(hit.size(), 1u);
        const Real sign = sphere_first ? 1.0 : -1.0;
        EXPECT_NEAR(hit[0].depth, 0.2, 1e-9);
        EXPECT_NEAR(hit[0].normal.x, sign * n.x, 1e-9);
        EXPECT_NEAR(hit[0].normal.y, sign * n.y, 1e-9);
        EXPECT_NEAR(hit[0].normal.z, 0.0, 1e-9);
        EXPECT_NEAR(hit[0].position.x, 3.0 + n.x, 1e-9);
        EXPECT_NEAR(hit[0].position.y, n.y, 1e-9);
        EXPECT_EQ(hit[0].geomA, sphere_first ? r->id() : turned->id());
    }
}

TEST_F(NarrowphaseTest, SphereInsideBoxPushesOutNearestFace)
{
    Geom *s = makeGeom(std::make_unique<SphereShape>(0.1),
                       Transform(Quat(), {0.9, 0, 0}));
    Geom *b = makeGeom(std::make_unique<BoxShape>(Vec3{1, 1, 1}),
                       Transform());
    const auto contacts = collide(s, b);
    ASSERT_EQ(contacts.size(), 1u);
    EXPECT_NEAR(contacts[0].normal.x, 1.0, 1e-9);
    EXPECT_NEAR(contacts[0].depth, 0.2, 1e-9);
}

TEST_F(NarrowphaseTest, SphereCapsuleSideContact)
{
    Geom *s = makeGeom(std::make_unique<SphereShape>(0.5),
                       Transform(Quat(), {0.8, 0, 0}));
    Geom *c = makeGeom(std::make_unique<CapsuleShape>(0.5, 1.0),
                       Transform());
    const auto contacts = collide(s, c);
    ASSERT_EQ(contacts.size(), 1u);
    EXPECT_NEAR(contacts[0].depth, 0.2, 1e-9);
    EXPECT_NEAR(contacts[0].normal.x, 1.0, 1e-9);
}

TEST_F(NarrowphaseTest, CapsuleCapsuleParallel)
{
    Geom *a = makeGeom(std::make_unique<CapsuleShape>(0.5, 1.0),
                       Transform(Quat(), {0, 0, 0}));
    Geom *b = makeGeom(std::make_unique<CapsuleShape>(0.5, 1.0),
                       Transform(Quat(), {0.8, 0, 0}));
    const auto contacts = collide(a, b);
    ASSERT_EQ(contacts.size(), 1u);
    EXPECT_NEAR(contacts[0].depth, 0.2, 1e-9);
}

TEST_F(NarrowphaseTest, CapsulePlaneBothEndsTouch)
{
    // Horizontal capsule lying just below radius height.
    Geom *c = makeGeom(
        std::make_unique<CapsuleShape>(0.5, 1.0),
        Transform(Quat::fromAxisAngle({0, 0, 1}, M_PI / 2),
                  {0, 0.4, 0}));
    Geom *p = makeGeom(std::make_unique<PlaneShape>(Vec3{0, 1, 0}, 0.0),
                       Transform());
    const auto contacts = collide(c, p);
    EXPECT_EQ(contacts.size(), 2u);
    for (const Contact &contact : contacts)
        EXPECT_NEAR(contact.depth, 0.1, 1e-9);
}

TEST_F(NarrowphaseTest, BoxPlaneRestingManifold)
{
    Geom *b = makeGeom(std::make_unique<BoxShape>(Vec3{1, 1, 1}),
                       Transform(Quat(), {0, 0.9, 0}));
    Geom *p = makeGeom(std::make_unique<PlaneShape>(Vec3{0, 1, 0}, 0.0),
                       Transform());
    const auto contacts = collide(b, p);
    ASSERT_EQ(contacts.size(), 4u);
    for (const Contact &contact : contacts) {
        EXPECT_NEAR(contact.depth, 0.1, 1e-9);
        EXPECT_NEAR(contact.normal.y, 1.0, 1e-9);
    }
}

TEST_F(NarrowphaseTest, BoxBoxAxisAlignedOverlap)
{
    Geom *a = makeGeom(std::make_unique<BoxShape>(Vec3{1, 1, 1}),
                       Transform(Quat(), {0, 0, 0}));
    Geom *b = makeGeom(std::make_unique<BoxShape>(Vec3{1, 1, 1}),
                       Transform(Quat(), {1.8, 0, 0}));
    const auto contacts = collide(a, b);
    ASSERT_FALSE(contacts.empty());
    for (const Contact &contact : contacts) {
        EXPECT_NEAR(std::fabs(contact.normal.x), 1.0, 1e-9);
        EXPECT_NEAR(contact.depth, 0.2, 1e-9);
    }
}

TEST_F(NarrowphaseTest, BoxBoxSeparated)
{
    Geom *a = makeGeom(std::make_unique<BoxShape>(Vec3{1, 1, 1}),
                       Transform(Quat(), {0, 0, 0}));
    Geom *b = makeGeom(std::make_unique<BoxShape>(Vec3{1, 1, 1}),
                       Transform(Quat(), {2.5, 0, 0}));
    EXPECT_TRUE(collide(a, b).empty());
}

TEST_F(NarrowphaseTest, BoxBoxRotatedSeparatedByCrossAxis)
{
    // Boxes whose face axes overlap but a cross-product axis
    // separates them (diagonal arrangement).
    Geom *a = makeGeom(std::make_unique<BoxShape>(Vec3{1, 0.1, 0.1}),
                       Transform(Quat(), {0, 0, 0}));
    Geom *b = makeGeom(
        std::make_unique<BoxShape>(Vec3{1, 0.1, 0.1}),
        Transform(Quat::fromAxisAngle({0, 1, 0}, M_PI / 2),
                  {0, 0.5, 0}));
    EXPECT_TRUE(collide(a, b).empty());
}

TEST_F(NarrowphaseTest, BoxBoxOctagonManifoldKeepsFourDeepest)
{
    // The incident box is turned 45 degrees about the contact normal
    // (y), so its bottom face clipped against the reference box's top
    // face is an octagon: the clip grows the polygon past four
    // vertices. A slight tilt about a skew horizontal axis makes the
    // eight depths distinct, so the four deepest are one definite,
    // ordered set.
    Geom *ref = makeGeom(std::make_unique<BoxShape>(Vec3{1, 1, 1}),
                         Transform(Quat(), {0, 0, 0}));
    const Transform inc_pose(
        Quat::fromAxisAngle({0, 1, 0}, M_PI / 4) *
            Quat::fromAxisAngle(Vec3{1, 0, 0.37}.normalized(), 0.02),
        {0, 3.9, 0});
    Geom *inc =
        makeGeom(std::make_unique<BoxShape>(Vec3{1, 3, 1}), inc_pose);

    // Oracle: where the incident bottom face's edges cross the
    // reference face's side planes x = +-1 and z = +-1, with depth
    // measured below the reference face at y = 1.
    const Vec3 corner[4] = {inc_pose.apply({1, -3, 1}),
                            inc_pose.apply({1, -3, -1}),
                            inc_pose.apply({-1, -3, -1}),
                            inc_pose.apply({-1, -3, 1})};
    std::vector<Vec3> octagon;
    for (int e = 0; e < 4; ++e) {
        const Vec3 p = corner[e];
        const Vec3 q = corner[(e + 1) % 4];
        for (const Real side : {-1.0, 1.0}) {
            const Real tx = (side - p.x) / (q.x - p.x);
            const Vec3 on_x = p + (q - p) * tx;
            if (tx > 0 && tx < 1 && std::fabs(on_x.z) <= 1)
                octagon.push_back(on_x);
            const Real tz = (side - p.z) / (q.z - p.z);
            const Vec3 on_z = p + (q - p) * tz;
            if (tz > 0 && tz < 1 && std::fabs(on_z.x) <= 1)
                octagon.push_back(on_z);
        }
    }
    ASSERT_EQ(octagon.size(), 8u);
    std::sort(octagon.begin(), octagon.end(),
              [](const Vec3 &a, const Vec3 &b) { return a.y < b.y; });
    for (int i = 0; i < 4; ++i) {
        ASSERT_LT(octagon[i].y + 1e-6, octagon[i + 1].y)
            << "octagon vertices " << i << " and " << i + 1 << " tie";
    }

    const auto contacts = collide(ref, inc);
    ASSERT_EQ(contacts.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        // Deepest first, each one of the four deepest vertices.
        EXPECT_NEAR(contacts[i].depth, 1.0 - octagon[i].y, 1e-9);
        EXPECT_NEAR((contacts[i].position - octagon[i]).length(), 0.0,
                    1e-9);
    }
}

TEST_F(NarrowphaseTest, SphereHeightfieldContact)
{
    std::vector<Real> heights(9, 1.0); // Flat at height 1.
    Geom *hf = makeGeom(std::make_unique<HeightfieldShape>(
                            std::move(heights), 3, 3, 5.0),
                        Transform());
    Geom *s = makeGeom(std::make_unique<SphereShape>(0.5),
                       Transform(Quat(), {5.0, 1.3, 5.0}));
    const auto contacts = collide(s, hf);
    ASSERT_EQ(contacts.size(), 1u);
    EXPECT_NEAR(contacts[0].depth, 0.2, 1e-9);
    EXPECT_NEAR(contacts[0].normal.y, 1.0, 1e-9);
}

TEST_F(NarrowphaseTest, SphereHeightfieldOutsideFootprint)
{
    std::vector<Real> heights(9, 1.0);
    Geom *hf = makeGeom(std::make_unique<HeightfieldShape>(
                            std::move(heights), 3, 3, 5.0),
                        Transform());
    Geom *s = makeGeom(std::make_unique<SphereShape>(0.5),
                       Transform(Quat(), {-50.0, 0.5, 5.0}));
    EXPECT_TRUE(collide(s, hf).empty());
}

TEST_F(NarrowphaseTest, SphereTriMeshContact)
{
    std::vector<Vec3> verts{
        {0, 0, 0}, {10, 0, 0}, {10, 0, 10}, {0, 0, 10}};
    std::vector<TriMeshShape::Triangle> tris{{0, 2, 1}, {0, 3, 2}};
    Geom *mesh = makeGeom(std::make_unique<TriMeshShape>(
                              std::move(verts), std::move(tris)),
                          Transform());
    Geom *s = makeGeom(std::make_unique<SphereShape>(0.5),
                       Transform(Quat(), {5, 0.3, 5}));
    const auto contacts = collide(s, mesh);
    ASSERT_FALSE(contacts.empty());
    EXPECT_GT(contacts[0].depth, 0.0);
}

TEST_F(NarrowphaseTest, BoxCapsuleContact)
{
    Geom *b = makeGeom(std::make_unique<BoxShape>(Vec3{1, 1, 1}),
                       Transform(Quat(), {0, 0, 0}));
    Geom *c = makeGeom(std::make_unique<CapsuleShape>(0.4, 0.5),
                       Transform(Quat(), {0, 1.6, 0}));
    const auto contacts = collide(b, c);
    ASSERT_FALSE(contacts.empty());
    // Normal points from the capsule (B) toward the box (A): -y.
    EXPECT_LT(contacts[0].normal.y, 0.0);
}

TEST_F(NarrowphaseTest, CapsuleHeightfieldContact)
{
    std::vector<Real> heights(9, 0.0);
    Geom *hf = makeGeom(std::make_unique<HeightfieldShape>(
                            std::move(heights), 3, 3, 5.0),
                        Transform());
    Geom *c = makeGeom(std::make_unique<CapsuleShape>(0.5, 1.0),
                       Transform(Quat(), {5.0, 1.2, 5.0}));
    const auto contacts = collide(c, hf);
    ASSERT_FALSE(contacts.empty());
    EXPECT_GT(contacts[0].depth, 0.0);
}

TEST_F(NarrowphaseTest, StatsCountPairsAndContacts)
{
    Geom *a = makeGeom(std::make_unique<SphereShape>(1.0),
                       Transform(Quat(), {0, 0, 0}));
    Geom *b = makeGeom(std::make_unique<SphereShape>(1.0),
                       Transform(Quat(), {1.5, 0, 0}));
    Geom *c = makeGeom(std::make_unique<SphereShape>(1.0),
                       Transform(Quat(), {10, 0, 0}));
    collide(a, b);
    collide(a, c);
    EXPECT_EQ(np_.stats().pairsTested, 2u);
    EXPECT_EQ(np_.stats().pairsColliding, 1u);
    EXPECT_EQ(np_.stats().contactsCreated, 1u);
    const int sphere_idx = static_cast<int>(ShapeType::Sphere);
    EXPECT_EQ(np_.stats().testsByType[sphere_idx][sphere_idx], 2u);
}

// Property: for random overlapping sphere pairs, pushing A along the
// normal by depth separates the spheres.
class SphereSeparationProperty
    : public NarrowphaseTest,
      public ::testing::WithParamInterface<int>
{
};

TEST_P(SphereSeparationProperty, NormalTimesDepthSeparates)
{
    Rng rng(GetParam());
    const Real ra = rng.uniform(0.2, 2.0);
    const Real rb = rng.uniform(0.2, 2.0);
    // Force overlap.
    const Vec3 dir = Vec3{rng.uniform(-1, 1), rng.uniform(-1, 1),
                          rng.uniform(-1, 1)}
                         .normalized();
    const Real dist = (ra + rb) * rng.uniform(0.3, 0.95);
    Geom *a = makeGeom(std::make_unique<SphereShape>(ra),
                       Transform(Quat(), dir * dist));
    Geom *b = makeGeom(std::make_unique<SphereShape>(rb), Transform());
    const auto contacts = collide(a, b);
    ASSERT_EQ(contacts.size(), 1u);
    const Contact &c = contacts[0];
    // Move A out along the normal; the spheres should now just touch.
    const Vec3 new_center = dir * dist + c.normal * c.depth;
    EXPECT_NEAR((new_center - Vec3{}).length(), ra + rb, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomOverlaps, SphereSeparationProperty,
                         ::testing::Range(1, 17));

} // namespace
} // namespace parallax
