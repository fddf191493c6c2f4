/**
 * @file
 * Tests for union-find island creation.
 */

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "physics/island/island.hh"
#include "physics/joints/articulated_joints.hh"

namespace parallax
{
namespace
{

class IslandTest : public ::testing::Test
{
  protected:
    RigidBody *
    makeBody(const Vec3 &pos, bool is_static = false)
    {
        const auto id = static_cast<BodyId>(bodies_.size());
        if (is_static) {
            bodies_.push_back(std::make_unique<RigidBody>(
                RigidBody::makeStatic(id, Transform(Quat(), pos))));
        } else {
            bodies_.push_back(std::make_unique<RigidBody>(
                id, Transform(Quat(), pos), 1.0, Mat3::identity()));
        }
        ptrs_.push_back(bodies_.back().get());
        return bodies_.back().get();
    }

    Joint *
    link(RigidBody *a, RigidBody *b)
    {
        const auto id = static_cast<JointId>(joints_.size());
        joints_.push_back(std::make_unique<BallJoint>(
            id, a, b, (a->position() + (b ? b->position() : Vec3{})) *
                          0.5));
        jointPtrs_.push_back(joints_.back().get());
        return joints_.back().get();
    }

    std::vector<std::unique_ptr<RigidBody>> bodies_;
    std::vector<RigidBody *> ptrs_;
    std::vector<std::unique_ptr<Joint>> joints_;
    std::vector<Joint *> jointPtrs_;
    IslandBuilder builder_;
};

TEST_F(IslandTest, UnconnectedBodiesAreSingletons)
{
    makeBody({0, 0, 0});
    makeBody({5, 0, 0});
    makeBody({10, 0, 0});
    const auto islands = builder_.build(ptrs_, {});
    EXPECT_EQ(islands.size(), 3u);
    for (const auto &island : islands) {
        EXPECT_EQ(island.bodies.size(), 1u);
        EXPECT_TRUE(island.joints.empty());
    }
}

TEST_F(IslandTest, JointMergesComponents)
{
    RigidBody *a = makeBody({0, 0, 0});
    RigidBody *b = makeBody({1, 0, 0});
    makeBody({10, 0, 0});
    link(a, b);
    const auto islands = builder_.build(ptrs_, jointPtrs_);
    ASSERT_EQ(islands.size(), 2u);
    EXPECT_EQ(islands[0].bodies.size() + islands[1].bodies.size(), 3u);
}

TEST_F(IslandTest, ChainFormsOneIsland)
{
    std::vector<RigidBody *> chain;
    for (int i = 0; i < 10; ++i)
        chain.push_back(makeBody({static_cast<Real>(i), 0, 0}));
    for (int i = 0; i + 1 < 10; ++i)
        link(chain[i], chain[i + 1]);
    const auto islands = builder_.build(ptrs_, jointPtrs_);
    ASSERT_EQ(islands.size(), 1u);
    EXPECT_EQ(islands[0].bodies.size(), 10u);
    EXPECT_EQ(islands[0].joints.size(), 9u);
    EXPECT_EQ(islands[0].rows, 27); // 9 ball joints x 3 rows.
}

TEST_F(IslandTest, StaticBodiesDoNotMergeIslands)
{
    // Two dynamic bodies both jointed to the same static anchor must
    // remain in separate islands (the static world does not conduct).
    RigidBody *anchor = makeBody({0, 0, 0}, true);
    RigidBody *a = makeBody({-1, 0, 0});
    RigidBody *b = makeBody({1, 0, 0});
    link(a, anchor);
    link(b, anchor);
    const auto islands = builder_.build(ptrs_, jointPtrs_);
    EXPECT_EQ(islands.size(), 2u);
    // Each island still owns its joint to the anchor.
    for (const auto &island : islands)
        EXPECT_EQ(island.joints.size(), 1u);
}

TEST_F(IslandTest, StaticBodiesGetNoIsland)
{
    RigidBody *s = makeBody({0, 0, 0}, true);
    makeBody({1, 0, 0});
    builder_.build(ptrs_, {});
    EXPECT_EQ(s->islandId(), ~std::uint32_t(0));
}

TEST_F(IslandTest, DisabledBodiesExcluded)
{
    RigidBody *a = makeBody({0, 0, 0});
    RigidBody *b = makeBody({1, 0, 0});
    link(a, b);
    b->setEnabled(false);
    const auto islands = builder_.build(ptrs_, jointPtrs_);
    ASSERT_EQ(islands.size(), 1u);
    EXPECT_EQ(islands[0].bodies.size(), 1u);
    EXPECT_EQ(islands[0].bodies[0], a);
}

TEST_F(IslandTest, BrokenJointsDoNotConnect)
{
    RigidBody *a = makeBody({0, 0, 0});
    RigidBody *b = makeBody({1, 0, 0});
    Joint *j = link(a, b);
    j->setBreakForce(1.0);
    j->recordAppliedImpulse(100.0, 0.01);
    ASSERT_TRUE(j->broken());
    const auto islands = builder_.build(ptrs_, jointPtrs_);
    EXPECT_EQ(islands.size(), 2u);
}

TEST_F(IslandTest, BodyIslandIdsMatchMembership)
{
    RigidBody *a = makeBody({0, 0, 0});
    RigidBody *b = makeBody({1, 0, 0});
    RigidBody *c = makeBody({10, 0, 0});
    link(a, b);
    const auto islands = builder_.build(ptrs_, jointPtrs_);
    EXPECT_EQ(a->islandId(), b->islandId());
    EXPECT_NE(a->islandId(), c->islandId());
    for (size_t i = 0; i < islands.size(); ++i) {
        for (const RigidBody *body : islands[i].bodies)
            EXPECT_EQ(body->islandId(), i);
    }
}

TEST_F(IslandTest, StatsTrackLargestIsland)
{
    RigidBody *a = makeBody({0, 0, 0});
    RigidBody *b = makeBody({1, 0, 0});
    RigidBody *c = makeBody({2, 0, 0});
    makeBody({10, 0, 0});
    link(a, b);
    link(b, c);
    builder_.build(ptrs_, jointPtrs_);
    EXPECT_EQ(builder_.stats().islandsCreated, 2u);
    EXPECT_EQ(builder_.stats().largestIslandBodies, 3u);
    EXPECT_EQ(builder_.stats().largestIslandRows, 6u);
    EXPECT_GE(builder_.stats().unionOps, 2u);
}

TEST_F(IslandTest, DeterministicOutputOrder)
{
    for (int i = 0; i < 20; ++i)
        makeBody({static_cast<Real>(i * 3), 0, 0});
    link(ptrs_[4], ptrs_[5]);
    link(ptrs_[10], ptrs_[11]);
    const auto first = builder_.build(ptrs_, jointPtrs_);
    IslandBuilder other;
    const auto second = other.build(ptrs_, jointPtrs_);
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
        ASSERT_EQ(first[i].bodies.size(), second[i].bodies.size());
        for (size_t k = 0; k < first[i].bodies.size(); ++k)
            EXPECT_EQ(first[i].bodies[k], second[i].bodies[k]);
    }
}

TEST_F(IslandTest, ContactMergesSeparateBodies)
{
    // Two bodies with no joint between them: a contact alone joins
    // their islands.
    RigidBody *a = makeBody({0, 0, 0});
    RigidBody *b = makeBody({1, 0, 0});
    ASSERT_EQ(builder_.build(ptrs_, {}).size(), 2u);
    std::vector<ContactConstraint> pool{
        ContactConstraint{a, b, Contact{}}};
    const auto islands = builder_.build(ptrs_, {}, pool);
    ASSERT_EQ(islands.size(), 1u);
    EXPECT_EQ(islands[0].bodies.size(), 2u);
    EXPECT_TRUE(islands[0].joints.empty());
    ASSERT_EQ(islands[0].contacts.size(), 1u);
    EXPECT_EQ(islands[0].contacts[0], &pool[0]);
    EXPECT_EQ(islands[0].rows, 3);
}

TEST_F(IslandTest, ContactsFollowJointsInPoolOrder)
{
    // Islands {a, b} (a ball joint plus two contacts) and {c, d}
    // (contacts only). Joints stay in `joints`, and each island's
    // contacts are its pool entries in pool order.
    RigidBody *a = makeBody({0, 0, 0});
    RigidBody *b = makeBody({1, 0, 0});
    RigidBody *c = makeBody({5, 0, 0});
    RigidBody *d = makeBody({6, 0, 0});
    RigidBody *ground = makeBody({0, -1, 0}, true);
    Joint *j = link(a, b);
    std::vector<ContactConstraint> pool{
        ContactConstraint{c, d, Contact{}},
        ContactConstraint{b, nullptr, Contact{}},
        ContactConstraint{d, ground, Contact{}},
        ContactConstraint{a, b, Contact{}}};
    const auto islands = builder_.build(ptrs_, jointPtrs_, pool);
    ASSERT_EQ(islands.size(), 2u);

    const Island &ab = islands[a->islandId()];
    ASSERT_EQ(ab.bodies.size(), 2u);
    ASSERT_EQ(ab.joints.size(), 1u);
    EXPECT_EQ(ab.joints[0], j);
    ASSERT_EQ(ab.contacts.size(), 2u);
    EXPECT_EQ(ab.contacts[0], &pool[1]);
    EXPECT_EQ(ab.contacts[1], &pool[3]);
    EXPECT_EQ(ab.rows, j->numRows() + 3 * 2);

    const Island &cd = islands[c->islandId()];
    EXPECT_EQ(d->islandId(), c->islandId());
    EXPECT_TRUE(cd.joints.empty());
    ASSERT_EQ(cd.contacts.size(), 2u);
    EXPECT_EQ(cd.contacts[0], &pool[0]);
    EXPECT_EQ(cd.contacts[1], &pool[2]);
    EXPECT_EQ(cd.rows, 3 * 2);

    // The visit count covers the joint and every contact.
    EXPECT_EQ(builder_.stats().jointsVisited, 1u + pool.size());
    EXPECT_EQ(builder_.stats().largestIslandRows,
              static_cast<std::uint64_t>(ab.rows));
}

} // namespace
} // namespace parallax
