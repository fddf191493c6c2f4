/**
 * @file
 * Contact constraints: non-penetration plus pyramid friction, kept as
 * plain records that the solver turns into rows.
 */

#ifndef PARALLAX_PHYSICS_JOINTS_CONTACT_CONSTRAINT_HH
#define PARALLAX_PHYSICS_JOINTS_CONTACT_CONSTRAINT_HH

#include "joint.hh"
#include "physics/narrowphase/contact.hh"

namespace parallax
{

/** Surface interaction parameters for a contact. */
struct ContactMaterial
{
    Real friction = 0.8;
    Real restitution = 0.1;
    /** Relative normal speed below which restitution is ignored. */
    Real restitutionThreshold = 0.5;
};

/**
 * One contact point between two bodies, as the world's contact pool
 * holds it. bodyA is dynamic; bodyB is null for the static world.
 * Impulses are ordered (normal, friction1, friction2): `warm` seeds
 * this step's solve (the previous step's impulses, damped; zero for
 * a fresh contact), and the solver writes its result into `solved`,
 * from which the world rebuilds its warm cache.
 */
struct ContactConstraint
{
    RigidBody *bodyA = nullptr;
    RigidBody *bodyB = nullptr;
    Contact contact;
    Real warm[3] = {0.0, 0.0, 0.0};
    Real solved[3] = {0.0, 0.0, 0.0};
};

/**
 * Append a contact's three rows to `rows`: the normal row (lambda
 * >= 0, bias from penetration depth and restitution), then two
 * friction rows along a tangent basis, bounded by the material's
 * friction coefficient times the normal row's lambda. Each row's
 * lambda starts at the contact's warm impulse.
 *
 * The Native fused contact sweep (PgsScratch) relies on this shape
 * without checking it: all three rows share one body pair and cfm,
 * body B's linear Jacobian is the exact negation of A's, and the
 * friction rows have zero rhs.
 */
void buildContactRows(const ContactConstraint &contact,
                      const ContactMaterial &material,
                      const SolverParams &params, RowBuffer &rows);

} // namespace parallax

#endif // PARALLAX_PHYSICS_JOINTS_CONTACT_CONSTRAINT_HH
