#include "articulated_joints.hh"

#include <algorithm>
#include <cmath>

namespace parallax
{

namespace
{

/** Two unit vectors orthogonal to `axis` and to each other. */
void
perpBasis(const Vec3 &axis, Vec3 &u, Vec3 &v)
{
    if (std::fabs(axis.x) > 0.7071)
        u = Vec3{axis.y, -axis.x, 0.0}.normalized();
    else
        u = Vec3{0.0, axis.z, -axis.y}.normalized();
    v = axis.cross(u);
}

/**
 * Append a positional row pinning the anchor points together along
 * direction `dir`.
 *
 * J*v = (va + wa x ra - vb - wb x rb) . dir is the rate at which
 * anchor A moves away from anchor B along `dir`. With separation
 * err = (anchor_b - anchor_a) . dir, the Baumgarte bias demands
 * J*v = +erp * err / dt so A chases B (and vice versa).
 */
void
pointRow(RowBuffer &out, const SolverParams &params, RigidBody *a,
         RigidBody *b, const Vec3 &anchor_a, const Vec3 &anchor_b,
         const Vec3 &dir)
{
    ConstraintRow row;
    const Vec3 ra = anchor_a - a->position();
    row.jLinA = dir;
    row.jAngA = ra.cross(dir);
    if (b != nullptr) {
        const Vec3 rb = anchor_b - b->position();
        row.jLinB = -dir;
        row.jAngB = -rb.cross(dir);
    }
    const Real err = (anchor_b - anchor_a).dot(dir);
    Real bias = params.erp * err / params.dt;
    bias = std::clamp(bias, -params.maxCorrectingVel,
                      params.maxCorrectingVel);
    row.rhs = bias;
    row.cfm = params.cfm;
    out.push_back(row);
}

/**
 * Append an angular row constraining relative rotation about `axis`.
 *
 * J*v = (wa - wb) . axis. `err` is the angle (radians) by which body
 * B is ahead of body A about `axis`; the bias demands
 * J*v = +erp * err / dt so A catches up / B falls back.
 */
void
angularRow(RowBuffer &out, const SolverParams &params, RigidBody *b,
           const Vec3 &axis, Real err)
{
    ConstraintRow row;
    row.jAngA = axis;
    if (b != nullptr)
        row.jAngB = -axis;
    Real bias = params.erp * err / params.dt;
    bias = std::clamp(bias, -params.maxCorrectingVel,
                      params.maxCorrectingVel);
    row.rhs = bias;
    row.cfm = params.cfm;
    out.push_back(row);
}

/** Small-angle relative rotation error vector between orientations. */
Vec3
rotationError(const Quat &qa, const Quat &qb, const Quat &rel0)
{
    // Error quaternion: how far qb is from qa * rel0.
    const Quat target = (qa * rel0).normalized();
    const Quat err = (qb * target.conjugate()).normalized();
    // For small angles the vector part ~ half the rotation vector.
    const Real sign = err.w >= 0 ? 1.0 : -1.0;
    return Vec3{err.x, err.y, err.z} * (2.0 * sign);
}

} // namespace

BallJoint::BallJoint(JointId id, RigidBody *body_a, RigidBody *body_b,
                     const Vec3 &anchor)
    : Joint(id, body_a, body_b)
{
    localA_ = body_a->pose().applyInverse(anchor);
    localB_ = body_b != nullptr ? body_b->pose().applyInverse(anchor)
                                : anchor;
}

Vec3
BallJoint::anchorOnA() const
{
    return bodyA()->pose().apply(localA_);
}

Vec3
BallJoint::anchorOnB() const
{
    return bodyB() != nullptr ? bodyB()->pose().apply(localB_)
                              : localB_;
}

void
BallJoint::buildRows(const SolverParams &params,
                     RowBuffer &out)
{
    const Vec3 pa = anchorOnA();
    const Vec3 pb = anchorOnB();
    const Vec3 axes[3] = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
    for (const Vec3 &dir : axes)
        pointRow(out, params, bodyA(), bodyB(), pa, pb, dir);
}

HingeJoint::HingeJoint(JointId id, RigidBody *body_a,
                       RigidBody *body_b, const Vec3 &anchor,
                       const Vec3 &axis)
    : BallJoint(id, body_a, body_b, anchor)
{
    const Vec3 unit = axis.normalized();
    axisLocalA_ = body_a->pose().rotation.conjugate().rotate(unit);
    axisLocalB_ = body_b != nullptr
        ? body_b->pose().rotation.conjugate().rotate(unit)
        : unit;
}

Vec3
HingeJoint::axisWorld() const
{
    return bodyA()->pose().rotation.rotate(axisLocalA_);
}

void
HingeJoint::buildRows(const SolverParams &params,
                      RowBuffer &out)
{
    BallJoint::buildRows(params, out);

    // Constrain rotation perpendicular to the hinge axis: the two
    // bodies' axes must stay aligned.
    const Vec3 axis_a = axisWorld();
    const Vec3 axis_b = bodyB() != nullptr
        ? bodyB()->pose().rotation.rotate(axisLocalB_)
        : axisLocalB_;
    Vec3 u, v;
    perpBasis(axis_a, u, v);
    // axis_a x axis_b = theta * u for a misalignment of B's axis by
    // theta about u: exactly "B ahead of A" in angularRow's terms.
    const Vec3 err = axis_a.cross(axis_b);
    angularRow(out, params, bodyB(), u, err.dot(u));
    angularRow(out, params, bodyB(), v, err.dot(v));
}

SliderJoint::SliderJoint(JointId id, RigidBody *body_a,
                         RigidBody *body_b, const Vec3 &axis)
    : Joint(id, body_a, body_b)
{
    const Vec3 unit = axis.normalized();
    axisLocalA_ = body_a->pose().rotation.conjugate().rotate(unit);
    const Vec3 b_pos = body_b != nullptr ? body_b->position() : Vec3{};
    offsetLocalA_ = body_a->pose().applyInverse(b_pos);
    const Quat qb = body_b != nullptr ? body_b->orientation() : Quat();
    relRotation_ = (body_a->orientation().conjugate() * qb)
        .normalized();
}

Vec3
SliderJoint::axisWorld() const
{
    return bodyA()->pose().rotation.rotate(axisLocalA_);
}

void
SliderJoint::buildRows(const SolverParams &params,
                       RowBuffer &out)
{
    RigidBody *a = bodyA();
    RigidBody *b = bodyB();

    // Lock all three relative rotations.
    const Vec3 err = rotationError(
        a->orientation(),
        b != nullptr ? b->orientation() : Quat(), relRotation_);
    const Vec3 axes[3] = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
    for (int i = 0; i < 3; ++i)
        angularRow(out, params, b, axes[i], err[i]);

    // Lock translation perpendicular to the slide axis.
    const Vec3 axis = axisWorld();
    Vec3 u, v;
    perpBasis(axis, u, v);
    const Vec3 target = a->pose().apply(offsetLocalA_);
    const Vec3 b_pos = b != nullptr ? b->position() : Vec3{};
    for (const Vec3 &dir : {u, v})
        pointRow(out, params, a, b, target, b_pos, dir);
}

FixedJoint::FixedJoint(JointId id, RigidBody *body_a,
                       RigidBody *body_b)
    : Joint(id, body_a, body_b)
{
    const Vec3 b_pos = body_b != nullptr ? body_b->position() : Vec3{};
    offsetLocalA_ = body_a->pose().applyInverse(b_pos);
    const Quat qb = body_b != nullptr ? body_b->orientation() : Quat();
    relRotation_ = (body_a->orientation().conjugate() * qb)
        .normalized();
}

void
FixedJoint::buildRows(const SolverParams &params,
                      RowBuffer &out)
{
    RigidBody *a = bodyA();
    RigidBody *b = bodyB();

    const Vec3 err = rotationError(
        a->orientation(),
        b != nullptr ? b->orientation() : Quat(), relRotation_);
    const Vec3 axes[3] = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
    for (int i = 0; i < 3; ++i)
        angularRow(out, params, b, axes[i], err[i]);

    const Vec3 target = a->pose().apply(offsetLocalA_);
    const Vec3 b_pos = b != nullptr ? b->position() : Vec3{};
    for (const Vec3 &dir : axes)
        pointRow(out, params, a, b, target, b_pos, dir);
}

} // namespace parallax
