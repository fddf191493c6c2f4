#include "pgs_solver.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace parallax
{

PgsSolver::PgsSolver(int iterations, Real sor)
    : iterations_(iterations), sor_(sor)
{
    if (iterations < 1)
        fatal("solver iterations must be >= 1 (got %d)", iterations);
    if (sor <= 0.0 || sor > 2.0)
        fatal("SOR factor must be in (0, 2] (got %g)", sor);
}

std::size_t
PgsSolver::Workspace::capacitySum() const
{
    return linVel.capacity() + invInertia.capacity() +
           rows.rhs.capacity() + invDiag.capacity() +
           slices.capacity();
}

void
PgsSolver::reserve(std::size_t bodies, std::size_t rows,
                   std::size_t joints)
{
    const std::size_t capacity_before = ws_.capacitySum();
    // Bodies get the extra zero-velocity slot solve() appends.
    ws_.linVel.reserve(bodies + 1);
    ws_.angVel.reserve(bodies + 1);
    ws_.invMass.reserve(bodies);
    ws_.invInertia.reserve(bodies);
    ws_.rows.reserve(rows);
    ws_.mLinA.reserve(rows);
    ws_.mAngA.reserve(rows);
    ws_.mLinB.reserve(rows);
    ws_.mAngB.reserve(rows);
    ws_.invDiag.reserve(rows);
    ws_.bodyA.reserve(rows);
    ws_.bodyB.reserve(rows);
    ws_.slices.reserve(joints);
    if (ws_.capacitySum() > capacity_before)
        ++stats_.workspaceGrowths;
    if (backend_ != nullptr)
        backend_->pgsReserve(bodies, rows, scratch_);
}

void
PgsSolver::solve(Island &island, const SolverParams &params,
                 const ContactMaterial &material)
{
    ++stats_.islandsSolved;
    const std::size_t capacity_before = ws_.capacitySum();

    // Gather the island's body working set. Bodies are addressed by
    // the dense solverIndex() stamped during island build — no hash
    // map. A static, disabled, or null body reads as -1 (its stamp,
    // if any, is stale and must not be trusted).
    const std::size_t n_bodies = island.bodies.size();
    // One extra, always-zero velocity slot: the vector backend's
    // gather streams remap body index -1 (static/absent) to it, so
    // those lanes contribute exactly 0 to J·v without branching.
    ws_.linVel.resize(n_bodies + 1);
    ws_.angVel.resize(n_bodies + 1);
    ws_.linVel[n_bodies] = Vec3{};
    ws_.angVel[n_bodies] = Vec3{};
    ws_.invMass.resize(n_bodies);
    ws_.invInertia.resize(n_bodies);
    for (std::size_t i = 0; i < n_bodies; ++i) {
        const RigidBody *b = island.bodies[i];
        ws_.linVel[i] = b->linearVelocity();
        ws_.angVel[i] = b->angularVelocity();
        ws_.invMass[i] = b->invMass();
        ws_.invInertia[i] = b->invInertiaWorld();
    }
    Vec3 *lin_vel = ws_.linVel.data();
    Vec3 *ang_vel = ws_.angVel.data();

    // Build rows into the SoA buffer: the joints' rows, remembering
    // each joint's slice for write-back, then three rows per contact.
    RowBuffer &rows = ws_.rows;
    rows.clear();
    ws_.slices.clear();
    for (Joint *j : island.joints) {
        if (j->broken())
            continue;
        const std::size_t begin = rows.size();
        j->buildRows(params, rows);
        ws_.slices.push_back(
            Workspace::JointSlice{j, begin, rows.size() - begin});
    }
    const std::size_t contact_begin = rows.size();
    for (const ContactConstraint *c : island.contacts)
        buildContactRows(*c, material, params, rows);
    const std::size_t n_rows = rows.size();
    stats_.rowsBuilt += n_rows;
    if (n_rows == 0) {
        stats_.bodiesIntegrated += n_bodies;
        if (ws_.capacitySum() > capacity_before)
            ++stats_.workspaceGrowths;
        else
            ++stats_.workspaceReuses;
        return;
    }

    // Precompute M^-1 J^T and row diagonals. Body indices come from
    // the joint recorded in each slice and from each contact, so
    // rows need no joint->body hash lookup either.
    ws_.mLinA.resize(n_rows);
    ws_.mAngA.resize(n_rows);
    ws_.mLinB.resize(n_rows);
    ws_.mAngB.resize(n_rows);
    ws_.invDiag.resize(n_rows);
    ws_.bodyA.resize(n_rows);
    ws_.bodyB.resize(n_rows);

    auto indexOf = [](const RigidBody *b) -> int {
        if (b == nullptr || b->isStatic() || !b->enabled())
            return -1;
        return b->solverIndex();
    };

    auto precompute = [&](std::size_t begin, std::size_t count,
                          const RigidBody *a, const RigidBody *b) {
        const int ia = indexOf(a);
        const int ib = indexOf(b);
        for (std::size_t r = begin; r < begin + count; ++r) {
            ws_.bodyA[r] = ia;
            ws_.bodyB[r] = ib;

            Real diag = rows.cfm[r];
            if (ia >= 0) {
                ws_.mLinA[r] = rows.jLinA[r] * ws_.invMass[ia];
                ws_.mAngA[r] = ws_.invInertia[ia] * rows.jAngA[r];
                diag += rows.jLinA[r].dot(ws_.mLinA[r]) +
                        rows.jAngA[r].dot(ws_.mAngA[r]);
            }
            if (ib >= 0) {
                ws_.mLinB[r] = rows.jLinB[r] * ws_.invMass[ib];
                ws_.mAngB[r] = ws_.invInertia[ib] * rows.jAngB[r];
                diag += rows.jLinB[r].dot(ws_.mLinB[r]) +
                        rows.jAngB[r].dot(ws_.mAngB[r]);
            }
            ws_.invDiag[r] = diag > 1e-18 ? 1.0 / diag : 0.0;
        }
    };
    for (const Workspace::JointSlice &slice : ws_.slices) {
        precompute(slice.begin, slice.count, slice.joint->bodyA(),
                   slice.joint->bodyB());
    }
    std::size_t contact_row = contact_begin;
    for (const ContactConstraint *c : island.contacts) {
        precompute(contact_row, 3, c->bodyA, c->bodyB);
        contact_row += 3;
    }

    // Warm start: rows carrying a previous-step impulse apply it
    // before iterating, so resting contacts start converged.
    for (std::size_t r = 0; r < n_rows; ++r) {
        const Real l0 = rows.lambda[r];
        if (l0 == 0.0)
            continue;
        const int ia = ws_.bodyA[r];
        const int ib = ws_.bodyB[r];
        if (ia >= 0) {
            lin_vel[ia] += ws_.mLinA[r] * l0;
            ang_vel[ia] += ws_.mAngA[r] * l0;
        }
        if (ib >= 0) {
            lin_vel[ib] += ws_.mLinB[r] * l0;
            ang_vel[ib] += ws_.mAngB[r] * l0;
        }
    }

    // Relaxation sweeps, delegated to the kernel backend. Each
    // (row, iteration) is one independent fine-grain task in the
    // ParallAX mapping; every per-row field is a separate linear
    // array, so each sweep streams the row data front to back. The
    // Scalar backend replays the exact pre-seam loop (bitwise
    // reference). Native runs an all-contact island as fused fp32
    // contact units in color-major order, and any other island
    // through that same scalar loop.
    PgsSweepCtx ctx;
    ctx.rows = n_rows;
    ctx.contacts = island.contacts.size();
    ctx.jLinA = rows.jLinA.data();
    ctx.jAngA = rows.jAngA.data();
    ctx.jLinB = rows.jLinB.data();
    ctx.jAngB = rows.jAngB.data();
    ctx.mLinA = ws_.mLinA.data();
    ctx.mAngA = ws_.mAngA.data();
    ctx.mLinB = ws_.mLinB.data();
    ctx.mAngB = ws_.mAngB.data();
    ctx.rhs = rows.rhs.data();
    ctx.cfm = rows.cfm.data();
    ctx.invDiag = ws_.invDiag.data();
    ctx.mu = rows.mu.data();
    ctx.lo = rows.lo.data();
    ctx.hi = rows.hi.data();
    ctx.lambda = rows.lambda.data();
    ctx.normalRow = rows.normalRow.data();
    ctx.bodyA = ws_.bodyA.data();
    ctx.bodyB = ws_.bodyB.data();
    ctx.bodies = n_bodies;
    ctx.invMass = ws_.invMass.data();
    ctx.linVel = lin_vel;
    ctx.angVel = ang_vel;
    ctx.iterations = iterations_;
    ctx.sor = sor_;
    const KernelBackend &backend =
        backend_ != nullptr ? *backend_ : scalarKernelBackend();
    backend.pgsSweep(ctx, scratch_, stats_.kernels);
    // One count per (row, sweep).
    stats_.rowIterations +=
        n_rows * static_cast<std::uint64_t>(iterations_);

    // Write back velocities.
    for (std::size_t i = 0; i < n_bodies; ++i) {
        island.bodies[i]->setLinearVelocity(ws_.linVel[i]);
        island.bodies[i]->setAngularVelocity(ws_.angVel[i]);
    }
    stats_.bodiesIntegrated += n_bodies;

    // Feed solved impulses back: the joints' for breakage checks,
    // the contacts' for the next step's warm start.
    for (const Workspace::JointSlice &slice : ws_.slices) {
        Real applied = 0;
        for (std::size_t r = slice.begin;
             r < slice.begin + slice.count; ++r) {
            applied += std::fabs(rows.lambda[r]);
        }
        slice.joint->recordAppliedImpulse(applied, params.dt);
    }
    const Real *solved = rows.lambda.data() + contact_begin;
    for (ContactConstraint *c : island.contacts) {
        std::copy_n(solved, 3, c->solved);
        solved += 3;
    }

    if (ws_.capacitySum() > capacity_before)
        ++stats_.workspaceGrowths;
    else
        ++stats_.workspaceReuses;
}

} // namespace parallax
