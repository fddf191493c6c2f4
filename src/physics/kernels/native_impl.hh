/**
 * @file
 * Width-generic vectorized kernels, templated on a simd_pack type
 * (the double-precision cloth kernels) and an fp32 ops policy (the
 * fused contact PGS sweep). Included ONLY by the target-specific TUs
 * (native_avx2.cc, native_avx512.cc, native_neon.cc) so intrinsic
 * code never leaks into the portable build. Cloth integration, the
 * one elementwise kernel, uses the same IEEE op sequence as the
 * scalar reference — no FMA — so its lanes are bitwise identical to
 * Scalar. The fused contact sweep is tolerance-bounded (fp32 streams,
 * color-major order) and free to fuse; a PGS island that is not all
 * contacts runs the scalar reference sweep itself.
 */

#ifndef PARALLAX_PHYSICS_KERNELS_NATIVE_IMPL_HH
#define PARALLAX_PHYSICS_KERNELS_NATIVE_IMPL_HH

#include <type_traits>

#include "kernel_backend.hh"
#include "simd_pack.hh"

namespace parallax
{

/**
 * The fused contact-triplet PGS sweep (see PgsScratch): one
 * fp32 lane = one contact, velocities gathered once and scattered
 * once per unit per iteration, friction J·v corrected in-register
 * via the precomputed coupling scalars. Templated on a small fp32
 * ops policy `F` supplied by the ISA TU:
 *
 *   F::W                 lane count
 *   F::R / F::I / F::M   fp32 / index / lane-mask register types
 *   F::idx(p)            load W int32 gather indices
 *   F::valid(i, dummy3)  mask of lanes whose index != dummy3
 *   F::gather(base, i)   base[i] per lane (fp32)
 *   F::scatter(b, i, m, v)  masked per-lane store b[i] = v
 *   F::load/store/zero, add/sub/mul/min/max,
 *   F::fmadd(a,b,c) = a*b + c, F::fnmadd(a,b,c) = c - a*b
 *
 * Color regions are padded to whole packs (inert dummy lanes), so
 * there is no vector remainder; units past the 64-color budget run
 * through relaxPgsContactUnitScalar each iteration.
 */
template <typename F>
inline void
pgsContactSweep(const PgsSweepCtx &ctx, PgsScratch &sc, KernelStats &stats)
{
    constexpr int W = F::W;
    using R = typename F::R;

    buildPgsContactUnits(ctx, sc, W);
    pgsContactLoadVelocities(ctx, sc);
    float *lvf = sc.lvf.data();
    float *avf = sc.avf.data();
    const std::int32_t dummy3 =
        3 * static_cast<std::int32_t>(ctx.bodies);

    for (int it = 0; it < ctx.iterations; ++it) {
        for (std::size_t c = 0; c < sc.colors; ++c) {
            const std::size_t end = sc.colorOffsets[c + 1];
            for (std::size_t s = sc.colorOffsets[c]; s < end;
                 s += W) {
                const auto ia = F::idx(&sc.idxA3[s]);
                const auto ib = F::idx(&sc.idxB3[s]);
                const auto mA = F::valid(ia, dummy3);
                const auto mB = F::valid(ib, dummy3);

                R vAl[3], vAa[3], vBl[3], vBa[3];
                for (int k = 0; k < 3; ++k) {
                    vAl[k] = F::gather(lvf + k, ia);
                    vAa[k] = F::gather(avf + k, ia);
                    vBl[k] = F::gather(lvf + k, ib);
                    vBa[k] = F::gather(avf + k, ib);
                }
                R dvl[3];
                for (int k = 0; k < 3; ++k)
                    dvl[k] = F::sub(vAl[k], vBl[k]);

                // Three J·v chains off the same gathered velocities
                // (J_lin applies to vA - vB since jLinB = -jLinA).
                R jv[3], jrow[3][9];
                for (int r = 0; r < 3; ++r) {
                    for (int k = 0; k < 9; ++k)
                        jrow[r][k] = F::load(&sc.J[r][k][s]);
                    R a = F::mul(jrow[r][0], dvl[0]);
                    R b = F::mul(jrow[r][3], vAa[0]);
                    R g = F::mul(jrow[r][6], vBa[0]);
                    a = F::fmadd(jrow[r][1], dvl[1], a);
                    b = F::fmadd(jrow[r][4], vAa[1], b);
                    g = F::fmadd(jrow[r][7], vBa[1], g);
                    a = F::fmadd(jrow[r][2], dvl[2], a);
                    b = F::fmadd(jrow[r][5], vAa[2], b);
                    g = F::fmadd(jrow[r][8], vBa[2], g);
                    jv[r] = F::add(a, F::add(b, g));
                }

                const R cfm = F::load(&sc.cfmU[s]);
                // Normal row: clamp to [0, +inf).
                const R lamN = F::load(&sc.lam[0][s]);
                R d = F::fnmadd(cfm, lamN, F::load(&sc.rhsN[s]));
                d = F::sub(d, jv[0]);
                d = F::mul(d, F::load(&sc.sid[0][s]));
                const R newN =
                    F::max(F::add(lamN, d), F::zero());
                const R dl0 = F::sub(newN, lamN);
                F::store(&sc.lam[0][s], newN);
                const R limit =
                    F::mul(F::load(&sc.mu[s]), newN);
                const R nlimit = F::sub(F::zero(), limit);

                // Friction rows: rhs == 0 folded out; J·v picks up
                // the earlier rows' impulses through the coupling
                // scalars instead of re-gathering velocities.
                const R lamF = F::load(&sc.lam[1][s]);
                d = F::fmadd(F::load(&sc.c10[s]), dl0, jv[1]);
                d = F::fmadd(cfm, lamF, d);
                d = F::fnmadd(d, F::load(&sc.sid[1][s]), lamF);
                const R newF = F::min(F::max(d, nlimit), limit);
                const R dl1 = F::sub(newF, lamF);
                F::store(&sc.lam[1][s], newF);

                const R lamG = F::load(&sc.lam[2][s]);
                d = F::fmadd(F::load(&sc.c20[s]), dl0, jv[2]);
                d = F::fmadd(F::load(&sc.c21[s]), dl1, d);
                d = F::fmadd(cfm, lamG, d);
                d = F::fnmadd(d, F::load(&sc.sid[2][s]), lamG);
                const R newG = F::min(F::max(d, nlimit), limit);
                const R dl2 = F::sub(newG, lamG);
                F::store(&sc.lam[2][s], newG);

                // Combined velocity update; one masked scatter per
                // component. Within a color the touched bodies are
                // disjoint, so lanes never race on a slot.
                const R imAv = F::load(&sc.imA[s]);
                const R imBv = F::load(&sc.imB[s]);
                for (int k = 0; k < 3; ++k) {
                    R P = F::mul(jrow[0][k], dl0);
                    P = F::fmadd(jrow[1][k], dl1, P);
                    P = F::fmadd(jrow[2][k], dl2, P);
                    vAl[k] = F::fmadd(imAv, P, vAl[k]);
                    vBl[k] = F::fnmadd(imBv, P, vBl[k]);
                    R aa = F::fmadd(F::load(&sc.maA[0][k][s]), dl0,
                                    vAa[k]);
                    aa = F::fmadd(F::load(&sc.maA[1][k][s]), dl1,
                                  aa);
                    vAa[k] = F::fmadd(F::load(&sc.maA[2][k][s]),
                                      dl2, aa);
                    R bb = F::fmadd(F::load(&sc.maB[0][k][s]), dl0,
                                    vBa[k]);
                    bb = F::fmadd(F::load(&sc.maB[1][k][s]), dl1,
                                  bb);
                    vBa[k] = F::fmadd(F::load(&sc.maB[2][k][s]),
                                      dl2, bb);
                    F::scatter(lvf + k, ia, mA, vAl[k]);
                    F::scatter(avf + k, ia, mA, vAa[k]);
                    F::scatter(lvf + k, ib, mB, vBl[k]);
                    F::scatter(avf + k, ib, mB, vBa[k]);
                }
            }
        }
        for (std::size_t s = sc.tailStart;
             s < sc.tailStart + sc.tailUnits; ++s)
            relaxPgsContactUnitScalar(sc, s);
    }

    pgsContactStoreResults(ctx, sc);
    const std::uint64_t iters =
        static_cast<std::uint64_t>(ctx.iterations);
    stats.rowsVectorized +=
        3 * (sc.units - sc.tailUnits) * iters;
    stats.remainderRows += 3 * sc.tailUnits * iters;
    stats.contactUnits += sc.units;
}

template <typename Pack, typename FOps = void>
class NativeBackend final : public KernelBackend
{
    static constexpr int W = Pack::W;

  public:
    explicit NativeBackend(const char *name) : name_(name) {}

    SimdBackend kind() const override { return SimdBackend::Native; }
    const char *name() const override { return name_; }
    int width() const override { return W; }

    void
    pgsSweep(const PgsSweepCtx &ctx, PgsScratch &sc,
             KernelStats &stats) const override
    {
        // All-contact islands take the fused triplet path; any other
        // island (joint rows, exotic bounds), and every island on an
        // ISA without an fp32 ops policy, runs the scalar reference.
        if constexpr (!std::is_void_v<FOps>) {
            if (pgsContactPatternMatches(ctx)) {
                pgsContactSweep<FOps>(ctx, sc, stats);
                return;
            }
        }
        scalarKernelBackend().pgsSweep(ctx, sc, stats);
    }

    void
    pgsReserve(std::size_t bodies, std::size_t rows,
               PgsScratch &sc) const override
    {
        if constexpr (!std::is_void_v<FOps>)
            reservePgsContactUnits(bodies, rows, FOps::W, sc);
    }

    void
    clothIntegrate(const ClothParticlesView &p, const Vec3 &accelTerm,
                   Real damping, KernelStats &stats) const override
    {
        const Pack damp = Pack::broadcast(damping);
        const Pack ax = Pack::broadcast(accelTerm.x);
        const Pack ay = Pack::broadcast(accelTerm.y);
        const Pack az = Pack::broadcast(accelTerm.z);
        const Pack zero = Pack::zero();

        std::size_t i = 0;
        for (; i + W <= p.count; i += W) {
            const auto active =
                Pack::cmpGt(Pack::load(&p.w[i]), zero);
            const Pack px = Pack::load(&p.px[i]);
            const Pack py = Pack::load(&p.py[i]);
            const Pack pz = Pack::load(&p.pz[i]);
            const Pack qx = Pack::load(&p.qx[i]);
            const Pack qy = Pack::load(&p.qy[i]);
            const Pack qz = Pack::load(&p.qz[i]);
            const Pack vx = (px - qx) * damp;
            const Pack vy = (py - qy) * damp;
            const Pack vz = (pz - qz) * damp;
            // previous = position; position += velocity + accel.
            Pack::select(active, px, qx).store(&p.qx[i]);
            Pack::select(active, py, qy).store(&p.qy[i]);
            Pack::select(active, pz, qz).store(&p.qz[i]);
            Pack::select(active, px + (vx + ax), px).store(&p.px[i]);
            Pack::select(active, py + (vy + ay), py).store(&p.py[i]);
            Pack::select(active, pz + (vz + az), pz).store(&p.pz[i]);
        }
        stats.rowsVectorized += i;
        stats.remainderRows += p.count - i;
        for (; i < p.count; ++i) {
            if (p.w[i] == 0.0)
                continue;
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
               KernelStats &stats) const override
    {
        const Pack zero = Pack::zero();
        const Pack eps = Pack::broadcast(1e-12);
        std::uint64_t vectorized = 0;
        std::uint64_t remainder = 0;

        for (std::size_t col = 0; col < c.colors; ++col) {
            std::size_t s = c.colorOffsets[col];
            const std::size_t end = c.colorOffsets[col + 1];
            for (; s + W <= end; s += W) {
                const Pack pax = Pack::gather(p.px, &c.ca[s]);
                const Pack pay = Pack::gather(p.py, &c.ca[s]);
                const Pack paz = Pack::gather(p.pz, &c.ca[s]);
                const Pack pbx = Pack::gather(p.px, &c.cb[s]);
                const Pack pby = Pack::gather(p.py, &c.cb[s]);
                const Pack pbz = Pack::gather(p.pz, &c.cb[s]);
                const Pack wa = Pack::gather(p.w, &c.ca[s]);
                const Pack wb = Pack::gather(p.w, &c.cb[s]);
                const Pack wsum = wa + wb;
                const Pack dx = pbx - pax;
                const Pack dy = pby - pay;
                const Pack dz = pbz - paz;
                const Pack len =
                    Pack::sqrt(dx * dx + dy * dy + dz * dz);
                const auto active = Pack::cmpGt(wsum, zero) &
                                    Pack::cmpGe(len, eps);
                const Pack rest = Pack::load(&c.crest[s]);
                const Pack diff = (len - rest) / (len * wsum);
                const Pack sa = diff * wa;
                const Pack sb = diff * wb;
                double nax[W], nay[W], naz[W];
                double nbx[W], nby[W], nbz[W];
                (pax + dx * sa).store(nax);
                (pay + dy * sa).store(nay);
                (paz + dz * sa).store(naz);
                (pbx - dx * sb).store(nbx);
                (pby - dy * sb).store(nby);
                (pbz - dz * sb).store(nbz);
                unsigned bits = active.bits();
                for (int l = 0; l < W; ++l) {
                    if (!(bits & (1u << l)))
                        continue;
                    const std::size_t a =
                        static_cast<std::size_t>(c.ca[s + l]);
                    const std::size_t b =
                        static_cast<std::size_t>(c.cb[s + l]);
                    p.px[a] = nax[l];
                    p.py[a] = nay[l];
                    p.pz[a] = naz[l];
                    p.px[b] = nbx[l];
                    p.py[b] = nby[l];
                    p.pz[b] = nbz[l];
                }
                vectorized += W;
            }
            for (; s < end; ++s) {
                relaxClothSlotScalar(p, c, s);
                ++remainder;
            }
        }
        for (std::size_t s = c.vecCount; s < c.count; ++s) {
            relaxClothSlotScalar(p, c, s);
            ++remainder;
        }
        stats.rowsVectorized += vectorized;
        stats.remainderRows += remainder;
    }

  private:
    const char *name_;
};

} // namespace parallax

#endif // PARALLAX_PHYSICS_KERNELS_NATIVE_IMPL_HH
