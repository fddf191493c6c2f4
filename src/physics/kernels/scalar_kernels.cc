/**
 * @file
 * Scalar reference backend: a verbatim transplant of the pre-seam
 * hot loops. Every expression keeps the original operand order so
 * trajectories stay bitwise identical to the engine before the
 * kernel seam existed (asserted by tools/state_hash).
 */

#include <algorithm>
#include <cmath>

#include "kernel_backend.hh"

namespace parallax
{

namespace
{

class ScalarBackend final : public KernelBackend
{
  public:
    SimdBackend kind() const override { return SimdBackend::Scalar; }
    const char *name() const override { return "scalar"; }
    int width() const override { return 1; }

    void
    pgsSweep(const PgsSweepCtx &ctx, PgsScratch &,
             KernelStats &) const override
    {
        Vec3 *lin_vel = ctx.linVel;
        Vec3 *ang_vel = ctx.angVel;
        const std::size_t n_rows = ctx.rows;
        for (int it = 0; it < ctx.iterations; ++it) {
            for (std::size_t r = 0; r < n_rows; ++r) {
                // Friction rows: refresh bounds from the normal
                // impulse.
                const int normal_row = ctx.normalRow[r];
                if (normal_row >= 0) {
                    const Real limit =
                        ctx.mu[r] * ctx.lambda[normal_row];
                    ctx.lo[r] = -limit;
                    ctx.hi[r] = limit;
                }

                const int ia = ctx.bodyA[r];
                const int ib = ctx.bodyB[r];
                Real jv = 0.0;
                if (ia >= 0) {
                    jv += ctx.jLinA[r].dot(lin_vel[ia]) +
                          ctx.jAngA[r].dot(ang_vel[ia]);
                }
                if (ib >= 0) {
                    jv += ctx.jLinB[r].dot(lin_vel[ib]) +
                          ctx.jAngB[r].dot(ang_vel[ib]);
                }

                const Real delta =
                    ctx.sor *
                    (ctx.rhs[r] - jv - ctx.cfm[r] * ctx.lambda[r]) *
                    ctx.invDiag[r];
                const Real new_lambda = std::clamp(
                    ctx.lambda[r] + delta, ctx.lo[r], ctx.hi[r]);
                const Real dl = new_lambda - ctx.lambda[r];
                ctx.lambda[r] = new_lambda;
                if (dl == 0.0)
                    continue;

                if (ia >= 0) {
                    lin_vel[ia] += ctx.mLinA[r] * dl;
                    ang_vel[ia] += ctx.mAngA[r] * dl;
                }
                if (ib >= 0) {
                    lin_vel[ib] += ctx.mLinB[r] * dl;
                    ang_vel[ib] += ctx.mAngB[r] * dl;
                }
            }
        }
    }

    void
    clothIntegrate(const ClothParticlesView &p, const Vec3 &accelTerm,
                   Real damping, KernelStats &) const override
    {
        for (std::size_t i = 0; i < p.count; ++i) {
            if (p.w[i] == 0.0)
                continue;
            // velocity = (position - previous) * damping;
            // previous = position; position += velocity + accel.
            const Real vx = (p.px[i] - p.qx[i]) * damping;
            const Real vy = (p.py[i] - p.qy[i]) * damping;
            const Real vz = (p.pz[i] - p.qz[i]) * damping;
            p.qx[i] = p.px[i];
            p.qy[i] = p.py[i];
            p.qz[i] = p.pz[i];
            p.px[i] = p.px[i] + (vx + accelTerm.x);
            p.py[i] = p.py[i] + (vy + accelTerm.y);
            p.pz[i] = p.pz[i] + (vz + accelTerm.z);
        }
    }

    void
    clothRelax(const ClothParticlesView &p,
               const ClothConstraintsView &c,
               KernelStats &) const override
    {
        // The cloth's wavefront order: each particle meets its
        // constraints in construction order, so this is the
        // bitwise reference, yet neighbouring constraints rarely
        // depend on each other.
        for (std::size_t i = 0; i < c.count; ++i) {
            const std::size_t a = static_cast<std::size_t>(c.a[i]);
            const std::size_t b = static_cast<std::size_t>(c.b[i]);
            const Real wa = p.w[a];
            const Real wb = p.w[b];
            const Real wsum = wa + wb;
            if (wsum == 0.0)
                continue;
            const Real dx = p.px[b] - p.px[a];
            const Real dy = p.py[b] - p.py[a];
            const Real dz = p.pz[b] - p.pz[a];
            const Real len =
                std::sqrt(dx * dx + dy * dy + dz * dz);
            if (len < 1e-12)
                continue;
            const Real diff = (len - c.rest[i]) / (len * wsum);
            const Real sa = diff * wa;
            const Real sb = diff * wb;
            p.px[a] += dx * sa;
            p.py[a] += dy * sa;
            p.pz[a] += dz * sa;
            p.px[b] -= dx * sb;
            p.py[b] -= dy * sb;
            p.pz[b] -= dz * sb;
        }
    }
};

} // namespace

const KernelBackend &
scalarKernelBackend()
{
    static const ScalarBackend backend;
    return backend;
}

} // namespace parallax
