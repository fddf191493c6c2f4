/**
 * @file
 * Tests for joint row construction and breakable-joint behaviour.
 */

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "physics/joints/articulated_joints.hh"
#include "physics/joints/contact_constraint.hh"

namespace parallax
{
namespace
{

class JointTest : public ::testing::Test
{
  protected:
    RigidBody *
    makeBody(const Vec3 &pos, Real mass = 1.0)
    {
        const auto id = static_cast<BodyId>(bodies_.size());
        bodies_.push_back(std::make_unique<RigidBody>(
            id, Transform(Quat(), pos), mass, Mat3::identity() * mass));
        return bodies_.back().get();
    }

    SolverParams params_;
    std::vector<std::unique_ptr<RigidBody>> bodies_;
};

TEST_F(JointTest, ContactConstraintProducesThreeRows)
{
    RigidBody *a = makeBody({0, 1, 0});
    RigidBody *b = makeBody({0, -1, 0});
    Contact c;
    c.position = {0, 0, 0};
    c.normal = {0, 1, 0};
    c.depth = 0.1;
    ContactConstraint contact{a, b, c};
    contact.warm[0] = 0.25;
    contact.warm[2] = -0.5;
    RowBuffer rows;
    buildContactRows(contact, ContactMaterial{}, params_, rows);
    ASSERT_EQ(rows.size(), 3u);

    // Normal row: non-negative impulse bound, positive bias from
    // penetration.
    EXPECT_DOUBLE_EQ(rows[0].lo, 0.0);
    EXPECT_GT(rows[0].rhs, 0.0);
    EXPECT_EQ(rows[0].normalRow, -1);

    // Friction rows reference the normal row and carry mu.
    EXPECT_EQ(rows[1].normalRow, 0);
    EXPECT_EQ(rows[2].normalRow, 0);
    EXPECT_GT(rows[1].mu, 0.0);
    // Friction directions are orthogonal to the normal.
    EXPECT_NEAR(rows[1].jLinA.dot(c.normal), 0.0, 1e-12);
    EXPECT_NEAR(rows[2].jLinA.dot(c.normal), 0.0, 1e-12);
    EXPECT_NEAR(rows[1].jLinA.dot(rows[2].jLinA), 0.0, 1e-12);
    // Body B's Jacobian is the exact negation of A's linear part.
    for (std::size_t r = 0; r < 3; ++r) {
        EXPECT_EQ(rows[r].jLinB.x, -rows[r].jLinA.x);
        EXPECT_EQ(rows[r].jLinB.y, -rows[r].jLinA.y);
        EXPECT_EQ(rows[r].jLinB.z, -rows[r].jLinA.z);
    }
    // Each row starts from the contact's warm impulse.
    EXPECT_EQ(rows[0].lambda, 0.25);
    EXPECT_EQ(rows[1].lambda, 0.0);
    EXPECT_EQ(rows[2].lambda, -0.5);
}

TEST_F(JointTest, ContactRestitutionAddsBounceBias)
{
    RigidBody *a = makeBody({0, 1, 0});
    a->setLinearVelocity({0, -5, 0}); // Fast approach.
    Contact c;
    c.position = {0, 0, 0};
    c.normal = {0, 1, 0};
    c.depth = 0.01;
    ContactMaterial mat;
    mat.restitution = 0.5;
    RowBuffer rows;
    buildContactRows(ContactConstraint{a, nullptr, c}, mat, params_,
                     rows);
    // Bias should demand a rebound velocity ~ e * |vn| = 2.5.
    EXPECT_NEAR(rows[0].rhs, 2.5, 0.3);
}

TEST_F(JointTest, BallJointRowsOpposeSeparation)
{
    RigidBody *a = makeBody({-1, 0, 0});
    RigidBody *b = makeBody({1, 0, 0});
    BallJoint joint(0, a, b, {0, 0, 0});
    RowBuffer rows;
    joint.buildRows(params_, rows);
    ASSERT_EQ(rows.size(), 3u);
    // At creation the anchors coincide: zero bias.
    for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_NEAR(rows.rhs[i], 0.0, 1e-12);

    // Separate the bodies: bias now pulls them together.
    b->setPose(Transform(Quat(), {1.5, 0, 0}));
    rows.clear();
    joint.buildRows(params_, rows);
    EXPECT_GT(std::fabs(rows[0].rhs), 0.0);
}

TEST_F(JointTest, BallJointAnchorsTrackBodies)
{
    RigidBody *a = makeBody({-1, 0, 0});
    RigidBody *b = makeBody({1, 0, 0});
    BallJoint joint(0, a, b, {0, 0, 0});
    EXPECT_NEAR((joint.anchorOnA() - joint.anchorOnB()).length(), 0.0,
                1e-12);
    a->setPose(Transform(Quat(), {-2, 0, 0}));
    EXPECT_NEAR(joint.anchorOnA().x, -1.0, 1e-12);
}

TEST_F(JointTest, HingeJointHasFiveRows)
{
    RigidBody *a = makeBody({0, 0, 0});
    RigidBody *b = makeBody({2, 0, 0});
    HingeJoint joint(0, a, b, {1, 0, 0}, {0, 0, 1});
    EXPECT_EQ(joint.numRows(), 5);
    RowBuffer rows;
    joint.buildRows(params_, rows);
    EXPECT_EQ(rows.size(), 5u);
    EXPECT_NEAR(joint.axisWorld().z, 1.0, 1e-12);
}

TEST_F(JointTest, SliderJointHasFiveRows)
{
    RigidBody *a = makeBody({0, 0, 0});
    RigidBody *b = makeBody({0, 1, 0});
    SliderJoint joint(0, a, b, {0, 1, 0});
    EXPECT_EQ(joint.numRows(), 5);
    RowBuffer rows;
    joint.buildRows(params_, rows);
    EXPECT_EQ(rows.size(), 5u);
    // The two positional rows must be perpendicular to the axis.
    EXPECT_NEAR(rows[3].jLinA.dot(joint.axisWorld()), 0.0, 1e-12);
    EXPECT_NEAR(rows[4].jLinA.dot(joint.axisWorld()), 0.0, 1e-12);
}

TEST_F(JointTest, FixedJointHasSixRows)
{
    RigidBody *a = makeBody({0, 0, 0});
    RigidBody *b = makeBody({1, 0, 0});
    FixedJoint joint(0, a, b);
    EXPECT_EQ(joint.numRows(), 6);
    RowBuffer rows;
    joint.buildRows(params_, rows);
    EXPECT_EQ(rows.size(), 6u);
}

TEST_F(JointTest, JointToWorldSupported)
{
    RigidBody *a = makeBody({0, 0, 0});
    BallJoint joint(0, a, nullptr, {0, 1, 0});
    RowBuffer rows;
    joint.buildRows(params_, rows);
    ASSERT_EQ(rows.size(), 3u);
    // No body B: its Jacobian stays zero.
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_DOUBLE_EQ(rows.jLinB[i].lengthSquared(), 0.0);
        EXPECT_DOUBLE_EQ(rows.jAngB[i].lengthSquared(), 0.0);
    }
}

TEST_F(JointTest, BreakableJointBreaksOnSingleStrongForce)
{
    RigidBody *a = makeBody({0, 0, 0});
    RigidBody *b = makeBody({1, 0, 0});
    FixedJoint joint(0, a, b);
    joint.setBreakForce(100.0);
    EXPECT_TRUE(joint.breakable());
    EXPECT_FALSE(joint.broken());

    // Applied force = impulse / dt = 2.0 / 0.01 = 200 N > 100 N.
    joint.recordAppliedImpulse(2.0, 0.01);
    EXPECT_TRUE(joint.broken());
}

TEST_F(JointTest, BreakableJointBreaksByAccumulation)
{
    RigidBody *a = makeBody({0, 0, 0});
    RigidBody *b = makeBody({1, 0, 0});
    FixedJoint joint(0, a, b);
    joint.setBreakForce(100.0);

    // Sustained 90% load: below the instant threshold, but the decayed
    // accumulator converges toward 2x the per-step load and crosses
    // the 2x threshold after a few steps... it converges to 180 < 200,
    // so it must NOT break.
    for (int i = 0; i < 50; ++i)
        joint.recordAppliedImpulse(0.9, 0.01);
    EXPECT_FALSE(joint.broken());

    // Sustained 101% load converges to ~202 > 200: breaks.
    FixedJoint hot(1, a, b);
    hot.setBreakForce(100.0);
    for (int i = 0; i < 50; ++i)
        hot.recordAppliedImpulse(1.01, 0.01);
    EXPECT_TRUE(hot.broken());
}

TEST_F(JointTest, NonBreakableNeverBreaks)
{
    RigidBody *a = makeBody({0, 0, 0});
    FixedJoint joint(0, a, nullptr);
    EXPECT_FALSE(joint.breakable());
    joint.recordAppliedImpulse(1e9, 0.01);
    EXPECT_FALSE(joint.broken());
}

TEST_F(JointTest, TypeNames)
{
    EXPECT_STREQ(jointTypeName(JointType::Contact), "contact");
    EXPECT_STREQ(jointTypeName(JointType::Ball), "ball");
    EXPECT_STREQ(jointTypeName(JointType::Hinge), "hinge");
    EXPECT_STREQ(jointTypeName(JointType::Slider), "slider");
    EXPECT_STREQ(jointTypeName(JointType::Fixed), "fixed");
}

} // namespace
} // namespace parallax
