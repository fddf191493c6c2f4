/**
 * @file
 * Constraint (joint) base class and the solver row representation.
 *
 * Joints connect bodies with ideal constraints following ODE's
 * constraint-based approach. Each joint contributes rows to the
 * island's LCP: a row is one scalar velocity constraint with a
 * 12-element Jacobian, bounds on its impulse, and a bias velocity.
 */

#ifndef PARALLAX_PHYSICS_JOINTS_JOINT_HH
#define PARALLAX_PHYSICS_JOINTS_JOINT_HH

#include <cstdint>
#include <vector>

#include "physics/body.hh"
#include "physics/math/vec3.hh"

namespace parallax
{

/** Identifier of a joint within its World. */
using JointId = std::uint32_t;

/** Joint type discriminator (drives per-type memory sizes too;
 *  Contact names the records of the world's contact pool, which are
 *  not Joint objects). */
enum class JointType
{
    Contact,
    Ball,
    Hinge,
    Slider,
    Fixed,
};

/** Human-readable joint type name. */
const char *jointTypeName(JointType type);

/**
 * One scalar constraint row of the island LCP.
 *
 * The Jacobian maps the two bodies' (linear, angular) velocities to
 * the constraint-space velocity. The solver finds an impulse lambda
 * in [lo, hi] driving J*v toward rhs. Friction rows carry `mu` and
 * the index of their normal row; their bounds are recomputed from
 * the normal impulse each sweep (a friction-cone pyramid).
 */
struct ConstraintRow
{
    Vec3 jLinA;
    Vec3 jAngA;
    Vec3 jLinB;
    Vec3 jAngB;
    Real rhs = 0.0;
    Real cfm = 1e-9;
    Real lo = -1e30;
    Real hi = 1e30;
    Real lambda = 0.0;
    /** Index (within the island's row array) of the friction row's
     *  normal row, or -1 for non-friction rows. */
    int normalRow = -1;
    Real mu = 0.0;
};

/** Parameters shared by row construction. */
struct SolverParams
{
    Real dt = 0.01;
    /** Error reduction parameter (Baumgarte stabilization). */
    Real erp = 0.2;
    /** Global constraint force mixing (softness). */
    Real cfm = 1e-9;
    /** Penetration depth correction cap per step (meters). */
    Real maxCorrectingVel = 10.0;
};

/**
 * Structure-of-arrays storage for an island's constraint rows.
 *
 * The relaxation sweep reads each field of every row once per
 * iteration; splitting the fields into parallel arrays lets those
 * reads stream linearly (and the lambda/bounds updates vectorize)
 * instead of striding over 11-field structs. Joints and contacts
 * still emit rows one at a time via push_back(), which scatters the
 * AoS ConstraintRow into the arrays; operator[] gathers one back for
 * callers (tests, debugging) that want the struct view.
 *
 * clear() keeps capacity, so a persistent RowBuffer stops allocating
 * once it has seen the largest island.
 */
class RowBuffer
{
  public:
    void
    push_back(const ConstraintRow &row)
    {
        jLinA.push_back(row.jLinA);
        jAngA.push_back(row.jAngA);
        jLinB.push_back(row.jLinB);
        jAngB.push_back(row.jAngB);
        rhs.push_back(row.rhs);
        cfm.push_back(row.cfm);
        lo.push_back(row.lo);
        hi.push_back(row.hi);
        lambda.push_back(row.lambda);
        mu.push_back(row.mu);
        normalRow.push_back(row.normalRow);
    }

    /** Gather row `i` back into the AoS view. */
    ConstraintRow
    operator[](std::size_t i) const
    {
        ConstraintRow row;
        row.jLinA = jLinA[i];
        row.jAngA = jAngA[i];
        row.jLinB = jLinB[i];
        row.jAngB = jAngB[i];
        row.rhs = rhs[i];
        row.cfm = cfm[i];
        row.lo = lo[i];
        row.hi = hi[i];
        row.lambda = lambda[i];
        row.mu = mu[i];
        row.normalRow = normalRow[i];
        return row;
    }

    std::size_t size() const { return rhs.size(); }
    bool empty() const { return rhs.empty(); }

    void
    clear()
    {
        jLinA.clear();
        jAngA.clear();
        jLinB.clear();
        jAngB.clear();
        rhs.clear();
        cfm.clear();
        lo.clear();
        hi.clear();
        lambda.clear();
        mu.clear();
        normalRow.clear();
    }

    void
    reserve(std::size_t n)
    {
        jLinA.reserve(n);
        jAngA.reserve(n);
        jLinB.reserve(n);
        jAngB.reserve(n);
        rhs.reserve(n);
        cfm.reserve(n);
        lo.reserve(n);
        hi.reserve(n);
        lambda.reserve(n);
        mu.reserve(n);
        normalRow.reserve(n);
    }

    // Field arrays, all size() long. Public: the solver's inner loop
    // indexes them directly, which is the point of the layout.
    std::vector<Vec3> jLinA, jAngA, jLinB, jAngB;
    std::vector<Real> rhs, cfm, lo, hi, lambda, mu;
    std::vector<int> normalRow;
};

/** Abstract joint. bodyB may be null, meaning the static world. */
class Joint
{
  public:
    Joint(JointId id, RigidBody *body_a, RigidBody *body_b);
    virtual ~Joint() = default;

    JointId id() const { return id_; }
    RigidBody *bodyA() const { return bodyA_; }
    RigidBody *bodyB() const { return bodyB_; }

    virtual JointType type() const = 0;

    /** Number of constraint rows (degrees of freedom removed). */
    virtual int numRows() const = 0;

    /** Append this joint's rows to the island's row list. */
    virtual void buildRows(const SolverParams &params,
                           RowBuffer &out) = 0;

    /**
     * Breakable joints (Table 2): the joint breaks when the applied
     * load exceeds the threshold, either instantaneously or by
     * accumulation across steps.
     */
    bool breakable() const { return breakForce_ > 0.0; }
    void setBreakForce(Real threshold) { breakForce_ = threshold; }
    Real breakForce() const { return breakForce_; }
    bool broken() const { return broken_; }

    /**
     * Feed back the impulse magnitude applied by the solver this
     * step; updates accumulated load and the broken flag.
     *
     * @param impulse Total constraint impulse magnitude (N*s).
     * @param dt Step length used to convert impulse to force.
     */
    void recordAppliedImpulse(Real impulse, Real dt);

    /** Force magnitude applied in the most recent step (N). */
    Real lastAppliedForce() const { return lastForce_; }

    /** Accumulated applied load across steps (N, decaying). */
    Real accumulatedForce() const { return accumForce_; }

    /** Restore exact break bookkeeping (snapshot replay). */
    void
    restoreBreakState(bool broken, Real last_force, Real accum_force)
    {
        broken_ = broken;
        lastForce_ = last_force;
        accumForce_ = accum_force;
    }

  private:
    JointId id_;
    RigidBody *bodyA_;
    RigidBody *bodyB_;
    Real breakForce_ = 0.0;
    Real lastForce_ = 0.0;
    Real accumForce_ = 0.0;
    bool broken_ = false;
};

} // namespace parallax

#endif // PARALLAX_PHYSICS_JOINTS_JOINT_HH
