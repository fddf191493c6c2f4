/**
 * @file
 * Width-generic vectorized kernels, templated on a simd_pack type.
 * Included ONLY by the target-specific TUs (native_avx2.cc,
 * native_avx512.cc, native_neon.cc) so intrinsic code never leaks
 * into the portable build. Cloth integration, the one elementwise
 * kernel, uses the same IEEE op sequence as the scalar reference —
 * no FMA — so its lanes are bitwise identical to Scalar. The
 * relaxation kernels are tolerance-bounded (they already reassociate
 * via the color-major processing order), so the PGS sweep is free
 * to fuse with Pack::mulAdd.
 */

#ifndef PARALLAX_PHYSICS_KERNELS_NATIVE_IMPL_HH
#define PARALLAX_PHYSICS_KERNELS_NATIVE_IMPL_HH

#include <type_traits>

#include "kernel_backend.hh"
#include "simd_pack.hh"

namespace parallax
{

/**
 * The fused contact-triplet PGS sweep (see PgsContactScratch): one
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
pgsContactSweep(const PgsSweepCtx &ctx, PgsContactScratch &sc,
                KernelStats &stats)
{
    constexpr int W = F::W;
    using R = typename F::R;

    buildPgsContactScratch(ctx, sc, W);
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
        const std::size_t n = ctx.rows;
        if (n == 0)
            return;
        if constexpr (!std::is_void_v<FOps>) {
            // All-contact islands take the fused triplet fast path;
            // anything else (joint rows, exotic bounds) falls back
            // to the generic per-row machinery below.
            if (pgsContactPatternMatches(ctx)) {
                pgsContactSweep<FOps>(ctx, sc.contact, stats);
                return;
            }
        }
        buildPgsScratch(ctx, sc);

        const double *lv =
            reinterpret_cast<const double *>(ctx.linVel);
        const double *av =
            reinterpret_cast<const double *>(ctx.angVel);

        std::uint64_t vectorized = 0;
        std::uint64_t remainder = 0;
        const Pack sor = Pack::broadcast(ctx.sor);
        const Pack half = Pack::broadcast(0.5);

        for (int it = 0; it < ctx.iterations; ++it) {
            for (std::size_t c = 0; c < sc.colors; ++c) {
                std::size_t s = sc.colorOffsets[c];
                const std::size_t end = sc.colorOffsets[c + 1];
                for (; s + W <= end; s += W) {
                    relaxPack(ctx, sc, lv, av, sor, half, s);
                    vectorized += W;
                }
                for (; s < end; ++s) {
                    relaxPgsSlotScalar(ctx, sc, s);
                    ++remainder;
                }
            }
            // Overflow tail: rows beyond the 64-color budget, in
            // original relative order.
            for (std::size_t s = sc.vecRows; s < n; ++s) {
                relaxPgsSlotScalar(ctx, sc, s);
                ++remainder;
            }
        }

        // Scatter lambda and the final friction bounds back to the
        // caller's row order.
        for (std::size_t s = 0; s < n; ++s) {
            const std::size_t r = sc.order[s];
            ctx.lambda[r] = sc.plambda[s];
            ctx.lo[r] = sc.plo[s];
            ctx.hi[r] = sc.phi[s];
        }

        stats.rowsVectorized += vectorized;
        stats.remainderRows += remainder;
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
    /** One vector pack of the PGS relaxation at slot s. */
    static inline void
    relaxPack(const PgsSweepCtx &ctx, PgsScratch &sc,
              const double *lv, const double *av, const Pack &sor,
              const Pack &half, std::size_t s)
    {
        // Friction bounds: limit = mu * lambda[normal row]. The
        // normal row's color is strictly lower, so its lambda for
        // this sweep is final before any friction lane reads it.
        const auto fric =
            Pack::cmpGt(Pack::load(&sc.pfric[s]), half);
        const Pack limit = Pack::load(&sc.pmu[s]) *
            Pack::gather(sc.plambda.data(), &sc.fricSlot[s]);
        const Pack lo =
            Pack::select(fric, -limit, Pack::load(&sc.plo[s]));
        const Pack hi =
            Pack::select(fric, limit, Pack::load(&sc.phi[s]));
        lo.store(&sc.plo[s]);
        hi.store(&sc.phi[s]);

        // J·v over both bodies. Lanes with a static/absent body
        // gather the zeroed dummy velocity slot, contributing 0.
        // Four independent fused chains (linA/angA/linB/angB) keep
        // the FMA latency off the critical path; fusing is fine
        // here because the PGS contract is tolerance-bounded, not
        // bitwise (the color-major order already reassociates).
        const std::int32_t *ia3 = &sc.idxA3[s];
        const std::int32_t *ib3 = &sc.idxB3[s];
        const Pack jvLinA = Pack::mulAdd(
            Pack::load(&sc.jlaz[s]), Pack::gather(lv + 2, ia3),
            Pack::mulAdd(
                Pack::load(&sc.jlay[s]), Pack::gather(lv + 1, ia3),
                Pack::load(&sc.jlax[s]) * Pack::gather(lv + 0, ia3)));
        const Pack jvAngA = Pack::mulAdd(
            Pack::load(&sc.jaaz[s]), Pack::gather(av + 2, ia3),
            Pack::mulAdd(
                Pack::load(&sc.jaay[s]), Pack::gather(av + 1, ia3),
                Pack::load(&sc.jaax[s]) * Pack::gather(av + 0, ia3)));
        const Pack jvLinB = Pack::mulAdd(
            Pack::load(&sc.jlbz[s]), Pack::gather(lv + 2, ib3),
            Pack::mulAdd(
                Pack::load(&sc.jlby[s]), Pack::gather(lv + 1, ib3),
                Pack::load(&sc.jlbx[s]) * Pack::gather(lv + 0, ib3)));
        const Pack jvAngB = Pack::mulAdd(
            Pack::load(&sc.jabz[s]), Pack::gather(av + 2, ib3),
            Pack::mulAdd(
                Pack::load(&sc.jaby[s]), Pack::gather(av + 1, ib3),
                Pack::load(&sc.jabx[s]) * Pack::gather(av + 0, ib3)));
        const Pack jv = (jvLinA + jvAngA) + (jvLinB + jvAngB);

        const Pack lambda = Pack::load(&sc.plambda[s]);
        const Pack delta = sor *
            (Pack::load(&sc.prhs[s]) - jv -
             Pack::load(&sc.pcfm[s]) * lambda) *
            Pack::load(&sc.pinvDiag[s]);
        const Pack newLambda =
            Pack::min(Pack::max(lambda + delta, lo), hi);
        const Pack dl = newLambda - lambda;
        newLambda.store(&sc.plambda[s]);

        // Impulse scatter: the twelve M·Δλ products are computed in
        // vector registers; only the indexed accumulation into the
        // Vec3 velocity slots stays scalar (AVX2 has no double
        // scatter). Within a color the touched bodies are disjoint,
        // so lanes never race on a slot.
        double dls[W];
        double ilax[W], ilay[W], ilaz[W], iaax[W], iaay[W], iaaz[W];
        double ilbx[W], ilby[W], ilbz[W], iabx[W], iaby[W], iabz[W];
        dl.store(dls);
        (Pack::load(&sc.mlax[s]) * dl).store(ilax);
        (Pack::load(&sc.mlay[s]) * dl).store(ilay);
        (Pack::load(&sc.mlaz[s]) * dl).store(ilaz);
        (Pack::load(&sc.maax[s]) * dl).store(iaax);
        (Pack::load(&sc.maay[s]) * dl).store(iaay);
        (Pack::load(&sc.maaz[s]) * dl).store(iaaz);
        (Pack::load(&sc.mlbx[s]) * dl).store(ilbx);
        (Pack::load(&sc.mlby[s]) * dl).store(ilby);
        (Pack::load(&sc.mlbz[s]) * dl).store(ilbz);
        (Pack::load(&sc.mabx[s]) * dl).store(iabx);
        (Pack::load(&sc.maby[s]) * dl).store(iaby);
        (Pack::load(&sc.mabz[s]) * dl).store(iabz);
        for (int l = 0; l < W; ++l) {
            if (dls[l] == 0.0)
                continue;
            const std::size_t k = s + static_cast<std::size_t>(l);
            const std::int32_t a = sc.bA[k];
            if (a >= 0) {
                Vec3 &lvk = ctx.linVel[a];
                Vec3 &avk = ctx.angVel[a];
                lvk.x += ilax[l];
                lvk.y += ilay[l];
                lvk.z += ilaz[l];
                avk.x += iaax[l];
                avk.y += iaay[l];
                avk.z += iaaz[l];
            }
            const std::int32_t bb = sc.bB[k];
            if (bb >= 0) {
                Vec3 &lvk = ctx.linVel[bb];
                Vec3 &avk = ctx.angVel[bb];
                lvk.x += ilbx[l];
                lvk.y += ilby[l];
                lvk.z += ilbz[l];
                avk.x += iabx[l];
                avk.y += iaby[l];
                avk.z += iabz[l];
            }
        }
    }

    const char *name_;
};

} // namespace parallax

#endif // PARALLAX_PHYSICS_KERNELS_NATIVE_IMPL_HH
