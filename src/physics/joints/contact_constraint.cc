#include "contact_constraint.hh"

#include <algorithm>
#include <cmath>

namespace parallax
{

namespace
{

/** Build two tangent directions orthogonal to a unit normal. */
void
tangentBasis(const Vec3 &n, Vec3 &t1, Vec3 &t2)
{
    if (std::fabs(n.x) > 0.7071)
        t1 = Vec3{n.y, -n.x, 0.0}.normalized();
    else
        t1 = Vec3{0.0, n.z, -n.y}.normalized();
    t2 = n.cross(t1);
}

} // namespace

void
buildContactRows(const ContactConstraint &contact,
                 const ContactMaterial &material,
                 const SolverParams &params, RowBuffer &out)
{
    const RigidBody *a = contact.bodyA;
    const RigidBody *b = contact.bodyB;
    const Vec3 &n = contact.contact.normal;
    const Vec3 &p = contact.contact.position;
    const Vec3 ra = p - a->position();
    const Vec3 rb = b != nullptr ? p - b->position() : Vec3{};

    // Relative normal velocity for restitution.
    Vec3 rel_vel = a->velocityAt(p);
    if (b != nullptr)
        rel_vel -= b->velocityAt(p);
    const Real vn = rel_vel.dot(n);

    // Normal row: J = [n, ra x n, -n, -(rb x n)], Jv >= bias.
    ConstraintRow normal;
    normal.jLinA = n;
    normal.jAngA = ra.cross(n);
    if (b != nullptr) {
        normal.jLinB = -n;
        normal.jAngB = -rb.cross(n);
    }
    Real bias = params.erp * contact.contact.depth / params.dt;
    bias = std::min(bias, params.maxCorrectingVel);
    if (-vn > material.restitutionThreshold)
        bias = std::max(bias, -material.restitution * vn);
    normal.rhs = bias;
    normal.cfm = params.cfm;
    normal.lo = 0.0;
    normal.hi = 1e30;
    normal.lambda = contact.warm[0]; // 0 for fresh contacts.
    const int normal_index = static_cast<int>(out.size());
    out.push_back(normal);

    // Two friction rows along the tangent basis, clamped by the
    // normal impulse through `mu` during solving.
    Vec3 t1, t2;
    tangentBasis(n, t1, t2);
    int tangent_index = 1;
    for (const Vec3 &t : {t1, t2}) {
        ConstraintRow fr;
        fr.jLinA = t;
        fr.jAngA = ra.cross(t);
        if (b != nullptr) {
            fr.jLinB = -t;
            fr.jAngB = -rb.cross(t);
        }
        fr.rhs = 0.0;
        fr.cfm = params.cfm;
        fr.normalRow = normal_index;
        fr.mu = material.friction;
        fr.lambda = contact.warm[tangent_index++];
        out.push_back(fr);
    }
}

} // namespace parallax
