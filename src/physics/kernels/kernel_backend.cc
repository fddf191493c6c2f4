/**
 * @file
 * Backend dispatch, row coloring, and the scalar slot helpers shared
 * by every Native backend. This TU is compiled WITHOUT -mavx2
 * so the shared code never emits instructions the host might lack;
 * only the native_*.cc TUs carry target-specific flags.
 */

#include "kernel_backend.hh"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

namespace parallax
{

// The gather streams index Vec3 arrays as flat double triples.
static_assert(sizeof(Vec3) == 3 * sizeof(Real),
              "Vec3 must be three tightly packed Reals");

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

#if PAX_KERNELS_HAVE_AVX2
// Defined in native_avx2.cc (the only TU built with -mavx2).
const KernelBackend *avx2KernelBackend();
#endif
#if PAX_KERNELS_HAVE_AVX512
// Defined in native_avx512.cc (the only TU built with -mavx512*).
const KernelBackend *avx512KernelBackend();
#endif
#if PAX_KERNELS_HAVE_NEON
// Defined in native_neon.cc.
const KernelBackend *neonKernelBackend();
#endif

#if PAX_KERNELS_HAVE_AVX512
static bool
avx512Supported()
{
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512dq") &&
           __builtin_cpu_supports("avx512vl");
}
#endif

bool
nativeSimdAvailable()
{
#if PAX_KERNELS_HAVE_AVX2
    // The AVX2 TU is compiled with -mfma as well (the PGS sweep
    // fuses; every AVX2-era CPU ships FMA, but check anyway).
    return __builtin_cpu_supports("avx2") &&
           __builtin_cpu_supports("fma");
#elif PAX_KERNELS_HAVE_NEON
    return true; // NEON is architectural on aarch64.
#else
    return false;
#endif
}

const KernelBackend *
nativeKernelBackend()
{
#if PAX_KERNELS_HAVE_AVX512
    if (avx512Supported())
        return avx512KernelBackend();
#endif
#if PAX_KERNELS_HAVE_AVX2
    if (nativeSimdAvailable())
        return avx2KernelBackend();
#elif PAX_KERNELS_HAVE_NEON
    return neonKernelBackend();
#endif
    return nullptr;
}

std::vector<const KernelBackend *>
nativeKernelBackends()
{
    std::vector<const KernelBackend *> all;
#if PAX_KERNELS_HAVE_AVX512
    if (avx512Supported())
        all.push_back(avx512KernelBackend());
#endif
#if PAX_KERNELS_HAVE_AVX2
    if (nativeSimdAvailable())
        all.push_back(avx2KernelBackend());
#elif PAX_KERNELS_HAVE_NEON
    all.push_back(neonKernelBackend());
#endif
    return all;
}

const KernelBackend &
kernelBackendFor(SimdBackend kind)
{
    if (kind == SimdBackend::Native) {
        if (const KernelBackend *native = nativeKernelBackend())
            return *native;
    }
    return scalarKernelBackend();
}

bool
parseSimdBackend(const char *text, SimdBackend &out)
{
    if (text == nullptr)
        return false;
    std::string s(text);
    for (char &c : s)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    if (s == "scalar") {
        out = SimdBackend::Scalar;
        return true;
    }
    if (s == "native" || s == "simd") {
        out = SimdBackend::Native;
        return true;
    }
    return false;
}

SimdBackend
simdBackendFromEnv(SimdBackend fallback)
{
    SimdBackend parsed;
    if (parseSimdBackend(std::getenv("PAX_SIMD"), parsed))
        return parsed;
    return fallback;
}

// ---------------------------------------------------------------------
// Coloring
// ---------------------------------------------------------------------

void
colorEdges(const std::int32_t *a, const std::int32_t *b,
           std::size_t count, std::size_t nodes, EdgeColoring &out)
{
    std::vector<std::uint64_t> nodeMask(nodes, 0);
    std::vector<std::int32_t> colorOf(count, -1);
    std::size_t counts[64] = {};
    std::size_t maxColor = 0;
    std::size_t overflow = 0;

    for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t used =
            nodeMask[static_cast<std::size_t>(a[i])] |
            nodeMask[static_cast<std::size_t>(b[i])];
        const int c = std::countr_one(used);
        if (c >= 64) {
            ++overflow;
            continue;
        }
        colorOf[i] = c;
        const std::uint64_t bit = std::uint64_t(1) << c;
        nodeMask[static_cast<std::size_t>(a[i])] |= bit;
        nodeMask[static_cast<std::size_t>(b[i])] |= bit;
        ++counts[c];
        maxColor = std::max<std::size_t>(maxColor,
                                         static_cast<std::size_t>(c));
    }

    out.colors = count > overflow ? maxColor + 1 : 0;
    out.vecCount = count - overflow;
    out.colorOffsets.assign(out.colors + 1, 0);
    for (std::size_t c = 0; c < out.colors; ++c)
        out.colorOffsets[c + 1] =
            out.colorOffsets[c] +
            static_cast<std::uint32_t>(counts[c]);

    // Stable counting sort into color-major order; overflow edges
    // keep their original relative order at the tail.
    out.order.resize(count);
    std::vector<std::uint32_t> cursor(out.colorOffsets.begin(),
                                      out.colorOffsets.end() - 1);
    std::uint32_t tail = static_cast<std::uint32_t>(out.vecCount);
    for (std::size_t i = 0; i < count; ++i) {
        if (colorOf[i] < 0)
            out.order[tail++] = static_cast<std::uint32_t>(i);
        else
            out.order[cursor[static_cast<std::size_t>(colorOf[i])]++] =
                static_cast<std::uint32_t>(i);
    }
}

// ---------------------------------------------------------------------
// PGS scratch build
// ---------------------------------------------------------------------

void
buildPgsScratch(const PgsSweepCtx &ctx, PgsScratch &sc)
{
    const std::size_t n = ctx.rows;

    // --- Greedy coloring. Constraints: rows in one color share no
    // dynamic body, and a friction row's color is strictly greater
    // than its normal row's color (its bounds read that row's
    // just-updated lambda, exactly like the original sweep order).
    sc.bodyColorMask.assign(ctx.bodies, 0);
    sc.colorOfRow.assign(n, -1);
    std::size_t counts[64] = {};
    std::size_t maxColor = 0;
    std::size_t overflow = 0;

    for (std::size_t r = 0; r < n; ++r) {
        const int ia = ctx.bodyA[r];
        const int ib = ctx.bodyB[r];
        const int nr = ctx.normalRow[r];
        std::uint64_t used = 0;
        if (ia >= 0)
            used |= sc.bodyColorMask[static_cast<std::size_t>(ia)];
        if (ib >= 0)
            used |= sc.bodyColorMask[static_cast<std::size_t>(ib)];
        if (nr >= 0) {
            // Rows are built normal-before-friction within a joint,
            // so nr < r and its color is already assigned.
            const std::int32_t nc = sc.colorOfRow[nr];
            if (nc < 0) {
                // Normal row overflowed: this friction row must run
                // after it, so it overflows too.
                ++overflow;
                continue;
            }
            if (nc >= 63) {
                ++overflow;
                continue;
            }
            used |= (std::uint64_t(1) << (nc + 1)) - 1;
        }
        const int c = std::countr_one(used);
        if (c >= 64) {
            ++overflow;
            continue;
        }
        sc.colorOfRow[r] = c;
        const std::uint64_t bit = std::uint64_t(1) << c;
        if (ia >= 0)
            sc.bodyColorMask[static_cast<std::size_t>(ia)] |= bit;
        if (ib >= 0)
            sc.bodyColorMask[static_cast<std::size_t>(ib)] |= bit;
        ++counts[c];
        maxColor = std::max<std::size_t>(maxColor,
                                         static_cast<std::size_t>(c));
    }

    sc.colors = n > overflow ? maxColor + 1 : 0;
    sc.vecRows = n - overflow;
    sc.colorOffsets.assign(sc.colors + 1, 0);
    for (std::size_t c = 0; c < sc.colors; ++c)
        sc.colorOffsets[c + 1] =
            sc.colorOffsets[c] + static_cast<std::uint32_t>(counts[c]);

    sc.order.resize(n);
    sc.slotOf.resize(n);
    std::vector<std::uint32_t> cursor(sc.colorOffsets.begin(),
                                      sc.colorOffsets.end() - 1);
    std::uint32_t tail = static_cast<std::uint32_t>(sc.vecRows);
    for (std::size_t r = 0; r < n; ++r) {
        std::uint32_t slot;
        if (sc.colorOfRow[r] < 0)
            slot = tail++;
        else
            slot = cursor[static_cast<std::size_t>(sc.colorOfRow[r])]++;
        sc.order[slot] = static_cast<std::uint32_t>(r);
        sc.slotOf[r] = slot;
    }

    // --- Pack every row stream into slot-major order.
    auto sized = [n](std::vector<double> &v) { v.resize(n); };
    sized(sc.jlax); sized(sc.jlay); sized(sc.jlaz);
    sized(sc.jaax); sized(sc.jaay); sized(sc.jaaz);
    sized(sc.jlbx); sized(sc.jlby); sized(sc.jlbz);
    sized(sc.jabx); sized(sc.jaby); sized(sc.jabz);
    sized(sc.mlax); sized(sc.mlay); sized(sc.mlaz);
    sized(sc.maax); sized(sc.maay); sized(sc.maaz);
    sized(sc.mlbx); sized(sc.mlby); sized(sc.mlbz);
    sized(sc.mabx); sized(sc.maby); sized(sc.mabz);
    sized(sc.prhs); sized(sc.pcfm); sized(sc.pinvDiag); sized(sc.pmu);
    sized(sc.plo); sized(sc.phi); sized(sc.plambda); sized(sc.pfric);
    sc.bA.resize(n); sc.bB.resize(n);
    sc.idxA3.resize(n); sc.idxB3.resize(n);
    sc.fricSlot.resize(n);

    const std::int32_t dummy =
        static_cast<std::int32_t>(ctx.bodies);
    for (std::size_t s = 0; s < n; ++s) {
        const std::size_t r = sc.order[s];
        sc.jlax[s] = ctx.jLinA[r].x;
        sc.jlay[s] = ctx.jLinA[r].y;
        sc.jlaz[s] = ctx.jLinA[r].z;
        sc.jaax[s] = ctx.jAngA[r].x;
        sc.jaay[s] = ctx.jAngA[r].y;
        sc.jaaz[s] = ctx.jAngA[r].z;
        sc.jlbx[s] = ctx.jLinB[r].x;
        sc.jlby[s] = ctx.jLinB[r].y;
        sc.jlbz[s] = ctx.jLinB[r].z;
        sc.jabx[s] = ctx.jAngB[r].x;
        sc.jaby[s] = ctx.jAngB[r].y;
        sc.jabz[s] = ctx.jAngB[r].z;
        sc.mlax[s] = ctx.mLinA[r].x;
        sc.mlay[s] = ctx.mLinA[r].y;
        sc.mlaz[s] = ctx.mLinA[r].z;
        sc.maax[s] = ctx.mAngA[r].x;
        sc.maay[s] = ctx.mAngA[r].y;
        sc.maaz[s] = ctx.mAngA[r].z;
        sc.mlbx[s] = ctx.mLinB[r].x;
        sc.mlby[s] = ctx.mLinB[r].y;
        sc.mlbz[s] = ctx.mLinB[r].z;
        sc.mabx[s] = ctx.mAngB[r].x;
        sc.maby[s] = ctx.mAngB[r].y;
        sc.mabz[s] = ctx.mAngB[r].z;
        sc.prhs[s] = ctx.rhs[r];
        sc.pcfm[s] = ctx.cfm[r];
        sc.pinvDiag[s] = ctx.invDiag[r];
        sc.pmu[s] = ctx.mu[r];
        sc.plo[s] = ctx.lo[r];
        sc.phi[s] = ctx.hi[r];
        sc.plambda[s] = ctx.lambda[r];
        const int ia = ctx.bodyA[r];
        const int ib = ctx.bodyB[r];
        sc.bA[s] = ia;
        sc.bB[s] = ib;
        sc.idxA3[s] = (ia >= 0 ? ia : dummy) * 3;
        sc.idxB3[s] = (ib >= 0 ? ib : dummy) * 3;
        const int nr = ctx.normalRow[r];
        sc.pfric[s] = nr >= 0 ? 1.0 : 0.0;
        sc.fricSlot[s] = nr >= 0
            ? static_cast<std::int32_t>(sc.slotOf[nr])
            : static_cast<std::int32_t>(s);
    }
}

// ---------------------------------------------------------------------
// Contact-triplet fast path (see PgsContactScratch docs)
// ---------------------------------------------------------------------

bool
pgsContactPatternMatches(const PgsSweepCtx &ctx)
{
    const std::size_t n = ctx.rows;
    if (n == 0 || n % 3 != 0)
        return false;
    for (std::size_t r0 = 0; r0 < n; r0 += 3) {
        const int nr = static_cast<int>(r0);
        if (ctx.normalRow[r0] >= 0 || ctx.normalRow[r0 + 1] != nr ||
            ctx.normalRow[r0 + 2] != nr)
            return false;
        if (ctx.bodyA[r0 + 1] != ctx.bodyA[r0] ||
            ctx.bodyA[r0 + 2] != ctx.bodyA[r0] ||
            ctx.bodyB[r0 + 1] != ctx.bodyB[r0] ||
            ctx.bodyB[r0 + 2] != ctx.bodyB[r0])
            return false;
        // Normal clamp is specialized to [0, +inf).
        if (ctx.lo[r0] != 0.0 || ctx.hi[r0] < 1e29)
            return false;
        // Friction rhs is folded out; cfm is per contact.
        if (ctx.rhs[r0 + 1] != 0.0 || ctx.rhs[r0 + 2] != 0.0)
            return false;
        if (ctx.cfm[r0 + 1] != ctx.cfm[r0] ||
            ctx.cfm[r0 + 2] != ctx.cfm[r0])
            return false;
        // The kernel evaluates J·v_lin over (vA - vB), which needs
        // jLinB to be the exact negation of jLinA (how ContactJoint
        // builds its rows). A static/absent B has zero jLinB and a
        // zeroed dummy velocity slot, so the subtraction still holds.
        if (ctx.bodyB[r0] >= 0) {
            for (int r = 0; r < 3; ++r) {
                const Vec3 &ja = ctx.jLinA[r0 + r];
                const Vec3 &jb = ctx.jLinB[r0 + r];
                if (jb.x != -ja.x || jb.y != -ja.y || jb.z != -ja.z)
                    return false;
            }
        }
    }
    return true;
}

namespace
{

/** Recover the scalar invMass from mLin = jLin * invMass using the
 *  largest-magnitude Jacobian component (contact normals/tangents
 *  are unit vectors, so one component is always >= 1/sqrt(3)). */
inline double
invMassFrom(const Vec3 &j, const Vec3 &m)
{
    double best = std::fabs(j.x);
    double im = best > 0.0 ? m.x / j.x : 0.0;
    if (std::fabs(j.y) > best) {
        best = std::fabs(j.y);
        im = m.y / j.y;
    }
    if (std::fabs(j.z) > best)
        im = m.z / j.z;
    return im;
}

/** Full 12-component J_rj · (M·J)_rm dot (the coupling scalars). */
inline double
couplingDot(const PgsSweepCtx &ctx, std::size_t rj, std::size_t rm)
{
    return ctx.jLinA[rj].dot(ctx.mLinA[rm]) +
           ctx.jAngA[rj].dot(ctx.mAngA[rm]) +
           ctx.jLinB[rj].dot(ctx.mLinB[rm]) +
           ctx.jAngB[rj].dot(ctx.mAngB[rm]);
}

} // namespace

void
buildPgsContactScratch(const PgsSweepCtx &ctx, PgsContactScratch &sc,
                       int width)
{
    const std::size_t nu = ctx.rows / 3;
    const std::size_t w = static_cast<std::size_t>(width);
    sc.units = nu;

    // --- Unit coloring, cached on the (bodyA, bodyB) topology.
    // Units only constrain the coloring through their body pair, so
    // a stable contact set (the steady state of a resting pile)
    // rebuilds just the value streams.
    const bool topoHit =
        sc.topoValid && sc.topoRows == ctx.rows &&
        sc.topoWidth == width &&
        std::memcmp(sc.topoA.data(), ctx.bodyA,
                    ctx.rows * sizeof(std::int32_t)) == 0 &&
        std::memcmp(sc.topoB.data(), ctx.bodyB,
                    ctx.rows * sizeof(std::int32_t)) == 0;
    if (!topoHit) {
        sc.topoA.assign(ctx.bodyA, ctx.bodyA + ctx.rows);
        sc.topoB.assign(ctx.bodyB, ctx.bodyB + ctx.rows);
        sc.topoRows = ctx.rows;
        sc.topoWidth = width;

        sc.bodyColorMask.assign(ctx.bodies, 0);
        sc.colorOfUnit.assign(nu, -1);
        std::size_t counts[64] = {};
        std::size_t maxColor = 0;
        std::size_t overflow = 0;
        for (std::size_t u = 0; u < nu; ++u) {
            const int ia = ctx.bodyA[3 * u];
            const int ib = ctx.bodyB[3 * u];
            std::uint64_t used = 0;
            if (ia >= 0)
                used |= sc.bodyColorMask[static_cast<std::size_t>(ia)];
            if (ib >= 0)
                used |= sc.bodyColorMask[static_cast<std::size_t>(ib)];
            const int c = std::countr_one(used);
            if (c >= 64) {
                ++overflow;
                continue;
            }
            sc.colorOfUnit[u] = c;
            const std::uint64_t bit = std::uint64_t(1) << c;
            if (ia >= 0)
                sc.bodyColorMask[static_cast<std::size_t>(ia)] |= bit;
            if (ib >= 0)
                sc.bodyColorMask[static_cast<std::size_t>(ib)] |= bit;
            ++counts[c];
            maxColor = std::max<std::size_t>(
                maxColor, static_cast<std::size_t>(c));
        }

        sc.colors = nu > overflow ? maxColor + 1 : 0;
        sc.tailUnits = overflow;
        sc.colorOffsets.assign(sc.colors + 1, 0);
        sc.colorCounts.assign(sc.colors, 0);
        for (std::size_t c = 0; c < sc.colors; ++c) {
            sc.colorCounts[c] = static_cast<std::uint32_t>(counts[c]);
            // Pad each color to a whole number of packs.
            sc.colorOffsets[c + 1] =
                sc.colorOffsets[c] +
                static_cast<std::uint32_t>((counts[c] + w - 1) / w * w);
        }
        sc.tailStart = sc.colorOffsets[sc.colors];

        const std::size_t total = sc.tailStart + sc.tailUnits;
        sc.order.assign(total, PgsContactScratch::kPad);
        std::vector<std::uint32_t> cursor(sc.colorOffsets.begin(),
                                          sc.colorOffsets.end() - 1);
        std::uint32_t tail = static_cast<std::uint32_t>(sc.tailStart);
        for (std::size_t u = 0; u < nu; ++u) {
            if (sc.colorOfUnit[u] < 0)
                sc.order[tail++] = static_cast<std::uint32_t>(u);
            else
                sc.order[cursor[static_cast<std::size_t>(
                    sc.colorOfUnit[u])]++] =
                    static_cast<std::uint32_t>(u);
        }
        sc.topoValid = true;
    }

    // --- Pack the compressed fp32 unit streams, slot-major.
    const std::size_t total = sc.tailStart + sc.tailUnits;
    for (int r = 0; r < 3; ++r) {
        for (int k = 0; k < 9; ++k)
            sc.J[r][k].resize(total);
        for (int k = 0; k < 3; ++k) {
            sc.maA[r][k].resize(total);
            sc.maB[r][k].resize(total);
        }
        sc.sid[r].resize(total);
        sc.lam[r].resize(total);
    }
    sc.imA.resize(total);
    sc.imB.resize(total);
    sc.rhsN.resize(total);
    sc.cfmU.resize(total);
    sc.mu.resize(total);
    sc.c10.resize(total);
    sc.c20.resize(total);
    sc.c21.resize(total);
    sc.idxA3.resize(total);
    sc.idxB3.resize(total);
    sc.lvf.resize(3 * (ctx.bodies + 1));
    sc.avf.resize(3 * (ctx.bodies + 1));

    const std::int32_t dummy3 =
        3 * static_cast<std::int32_t>(ctx.bodies);
    for (std::size_t s = 0; s < total; ++s) {
        const std::uint32_t u = sc.order[s];
        if (u == PgsContactScratch::kPad) {
            // Inert padding: zero Jacobians, dummy gather slot,
            // masked-off scatter. The lane computes all-zero deltas.
            for (int r = 0; r < 3; ++r) {
                for (int k = 0; k < 9; ++k)
                    sc.J[r][k][s] = 0.0f;
                for (int k = 0; k < 3; ++k) {
                    sc.maA[r][k][s] = 0.0f;
                    sc.maB[r][k][s] = 0.0f;
                }
                sc.sid[r][s] = 0.0f;
                sc.lam[r][s] = 0.0f;
            }
            sc.imA[s] = sc.imB[s] = 0.0f;
            sc.rhsN[s] = sc.cfmU[s] = sc.mu[s] = 0.0f;
            sc.c10[s] = sc.c20[s] = sc.c21[s] = 0.0f;
            sc.idxA3[s] = dummy3;
            sc.idxB3[s] = dummy3;
            continue;
        }
        const std::size_t r0 = 3 * static_cast<std::size_t>(u);
        const int ia = ctx.bodyA[r0];
        const int ib = ctx.bodyB[r0];
        sc.idxA3[s] = ia >= 0 ? 3 * ia : dummy3;
        sc.idxB3[s] = ib >= 0 ? 3 * ib : dummy3;
        for (int r = 0; r < 3; ++r) {
            const std::size_t rr = r0 + static_cast<std::size_t>(r);
            sc.J[r][0][s] = static_cast<float>(ctx.jLinA[rr].x);
            sc.J[r][1][s] = static_cast<float>(ctx.jLinA[rr].y);
            sc.J[r][2][s] = static_cast<float>(ctx.jLinA[rr].z);
            sc.J[r][3][s] = static_cast<float>(ctx.jAngA[rr].x);
            sc.J[r][4][s] = static_cast<float>(ctx.jAngA[rr].y);
            sc.J[r][5][s] = static_cast<float>(ctx.jAngA[rr].z);
            sc.J[r][6][s] = static_cast<float>(ctx.jAngB[rr].x);
            sc.J[r][7][s] = static_cast<float>(ctx.jAngB[rr].y);
            sc.J[r][8][s] = static_cast<float>(ctx.jAngB[rr].z);
            sc.maA[r][0][s] = static_cast<float>(ctx.mAngA[rr].x);
            sc.maA[r][1][s] = static_cast<float>(ctx.mAngA[rr].y);
            sc.maA[r][2][s] = static_cast<float>(ctx.mAngA[rr].z);
            sc.maB[r][0][s] = static_cast<float>(ctx.mAngB[rr].x);
            sc.maB[r][1][s] = static_cast<float>(ctx.mAngB[rr].y);
            sc.maB[r][2][s] = static_cast<float>(ctx.mAngB[rr].z);
            sc.sid[r][s] =
                static_cast<float>(ctx.sor * ctx.invDiag[rr]);
            sc.lam[r][s] = static_cast<float>(ctx.lambda[rr]);
        }
        sc.imA[s] = static_cast<float>(
            invMassFrom(ctx.jLinA[r0], ctx.mLinA[r0]));
        sc.imB[s] = ib >= 0 ? static_cast<float>(invMassFrom(
                                  ctx.jLinB[r0], ctx.mLinB[r0]))
                            : 0.0f;
        sc.rhsN[s] = static_cast<float>(ctx.rhs[r0]);
        sc.cfmU[s] = static_cast<float>(ctx.cfm[r0]);
        sc.mu[s] = static_cast<float>(ctx.mu[r0 + 1]);
        sc.c10[s] = static_cast<float>(couplingDot(ctx, r0 + 1, r0));
        sc.c20[s] = static_cast<float>(couplingDot(ctx, r0 + 2, r0));
        sc.c21[s] =
            static_cast<float>(couplingDot(ctx, r0 + 2, r0 + 1));
    }
}

void
pgsContactLoadVelocities(const PgsSweepCtx &ctx, PgsContactScratch &sc)
{
    const double *lv = reinterpret_cast<const double *>(ctx.linVel);
    const double *av = reinterpret_cast<const double *>(ctx.angVel);
    const std::size_t n = 3 * (ctx.bodies + 1);
    for (std::size_t i = 0; i < n; ++i) {
        sc.lvf[i] = static_cast<float>(lv[i]);
        sc.avf[i] = static_cast<float>(av[i]);
    }
}

void
pgsContactStoreResults(const PgsSweepCtx &ctx, PgsContactScratch &sc)
{
    double *lv = reinterpret_cast<double *>(ctx.linVel);
    double *av = reinterpret_cast<double *>(ctx.angVel);
    const std::size_t n = 3 * ctx.bodies; // dummy slot stays zero
    for (std::size_t i = 0; i < n; ++i) {
        lv[i] = static_cast<double>(sc.lvf[i]);
        av[i] = static_cast<double>(sc.avf[i]);
    }
    const std::size_t total = sc.tailStart + sc.tailUnits;
    for (std::size_t s = 0; s < total; ++s) {
        const std::uint32_t u = sc.order[s];
        if (u == PgsContactScratch::kPad)
            continue;
        const std::size_t r0 = 3 * static_cast<std::size_t>(u);
        const double lamN = static_cast<double>(sc.lam[0][s]);
        ctx.lambda[r0] = lamN;
        ctx.lambda[r0 + 1] = static_cast<double>(sc.lam[1][s]);
        ctx.lambda[r0 + 2] = static_cast<double>(sc.lam[2][s]);
        // Mirror the scalar sweep's observable side effect: friction
        // bounds end at the last iteration's +-mu*lambda_normal.
        const double limit = static_cast<double>(sc.mu[s]) * lamN;
        ctx.lo[r0 + 1] = -limit;
        ctx.hi[r0 + 1] = limit;
        ctx.lo[r0 + 2] = -limit;
        ctx.hi[r0 + 2] = limit;
    }
}

void
relaxPgsContactUnitScalar(PgsContactScratch &sc, std::size_t s)
{
    float *lvf = sc.lvf.data();
    float *avf = sc.avf.data();
    const std::int32_t iA = sc.idxA3[s];
    const std::int32_t iB = sc.idxB3[s];
    float vAl[3], vAa[3], vBl[3], vBa[3];
    for (int k = 0; k < 3; ++k) {
        vAl[k] = lvf[iA + k];
        vAa[k] = avf[iA + k];
        vBl[k] = lvf[iB + k];
        vBa[k] = avf[iB + k];
    }
    const float dvl[3] = {vAl[0] - vBl[0], vAl[1] - vBl[1],
                          vAl[2] - vBl[2]};
    float jv[3];
    for (int r = 0; r < 3; ++r) {
        jv[r] = sc.J[r][0][s] * dvl[0] + sc.J[r][1][s] * dvl[1] +
                sc.J[r][2][s] * dvl[2] + sc.J[r][3][s] * vAa[0] +
                sc.J[r][4][s] * vAa[1] + sc.J[r][5][s] * vAa[2] +
                sc.J[r][6][s] * vBa[0] + sc.J[r][7][s] * vBa[1] +
                sc.J[r][8][s] * vBa[2];
    }
    const float cfm = sc.cfmU[s];
    // Normal: clamp to [0, +inf).
    const float lamN = sc.lam[0][s];
    float d = (sc.rhsN[s] - cfm * lamN - jv[0]) * sc.sid[0][s];
    const float newN = std::max(lamN + d, 0.0f);
    const float dl0 = newN - lamN;
    sc.lam[0][s] = newN;
    const float limit = sc.mu[s] * newN;
    // Friction rows: rhs == 0, J·v corrected by the coupling
    // scalars, symmetric clamp against the fresh normal lambda.
    const float lamF = sc.lam[1][s];
    d = lamF -
        (jv[1] + sc.c10[s] * dl0 + cfm * lamF) * sc.sid[1][s];
    const float newF = std::min(std::max(d, -limit), limit);
    const float dl1 = newF - lamF;
    sc.lam[1][s] = newF;
    const float lamG = sc.lam[2][s];
    d = lamG - (jv[2] + sc.c20[s] * dl0 + sc.c21[s] * dl1 +
                cfm * lamG) *
                   sc.sid[2][s];
    const float newG = std::min(std::max(d, -limit), limit);
    const float dl2 = newG - lamG;
    sc.lam[2][s] = newG;
    // Combined velocity update, written back once per unit.
    const std::int32_t dummy3 =
        static_cast<std::int32_t>(sc.lvf.size() - 3);
    for (int k = 0; k < 3; ++k) {
        const float P = sc.J[0][k][s] * dl0 + sc.J[1][k][s] * dl1 +
                        sc.J[2][k][s] * dl2;
        vAl[k] += sc.imA[s] * P;
        vBl[k] -= sc.imB[s] * P;
        vAa[k] += sc.maA[0][k][s] * dl0 + sc.maA[1][k][s] * dl1 +
                  sc.maA[2][k][s] * dl2;
        vBa[k] += sc.maB[0][k][s] * dl0 + sc.maB[1][k][s] * dl1 +
                  sc.maB[2][k][s] * dl2;
    }
    if (iA != dummy3) {
        for (int k = 0; k < 3; ++k) {
            lvf[iA + k] = vAl[k];
            avf[iA + k] = vAa[k];
        }
    }
    if (iB != dummy3) {
        for (int k = 0; k < 3; ++k) {
            lvf[iB + k] = vBl[k];
            avf[iB + k] = vBa[k];
        }
    }
}

// ---------------------------------------------------------------------
// Scalar slot helpers (Native tail/overflow paths)
// ---------------------------------------------------------------------

void
relaxPgsSlotScalar(const PgsSweepCtx &ctx, PgsScratch &sc,
                   std::size_t s)
{
    if (sc.pfric[s] > 0.5) {
        const double limit =
            sc.pmu[s] *
            sc.plambda[static_cast<std::size_t>(sc.fricSlot[s])];
        sc.plo[s] = -limit;
        sc.phi[s] = limit;
    }

    const std::int32_t ia = sc.bA[s];
    const std::int32_t ib = sc.bB[s];
    double jv = 0.0;
    if (ia >= 0) {
        const Vec3 &lv = ctx.linVel[ia];
        const Vec3 &av = ctx.angVel[ia];
        jv += sc.jlax[s] * lv.x + sc.jlay[s] * lv.y +
              sc.jlaz[s] * lv.z + sc.jaax[s] * av.x +
              sc.jaay[s] * av.y + sc.jaaz[s] * av.z;
    }
    if (ib >= 0) {
        const Vec3 &lv = ctx.linVel[ib];
        const Vec3 &av = ctx.angVel[ib];
        jv += sc.jlbx[s] * lv.x + sc.jlby[s] * lv.y +
              sc.jlbz[s] * lv.z + sc.jabx[s] * av.x +
              sc.jaby[s] * av.y + sc.jabz[s] * av.z;
    }

    const double delta =
        ctx.sor * (sc.prhs[s] - jv - sc.pcfm[s] * sc.plambda[s]) *
        sc.pinvDiag[s];
    const double new_lambda =
        std::clamp(sc.plambda[s] + delta, sc.plo[s], sc.phi[s]);
    const double dl = new_lambda - sc.plambda[s];
    sc.plambda[s] = new_lambda;
    if (dl == 0.0)
        return;

    if (ia >= 0) {
        Vec3 &lv = ctx.linVel[ia];
        Vec3 &av = ctx.angVel[ia];
        lv.x += sc.mlax[s] * dl;
        lv.y += sc.mlay[s] * dl;
        lv.z += sc.mlaz[s] * dl;
        av.x += sc.maax[s] * dl;
        av.y += sc.maay[s] * dl;
        av.z += sc.maaz[s] * dl;
    }
    if (ib >= 0) {
        Vec3 &lv = ctx.linVel[ib];
        Vec3 &av = ctx.angVel[ib];
        lv.x += sc.mlbx[s] * dl;
        lv.y += sc.mlby[s] * dl;
        lv.z += sc.mlbz[s] * dl;
        av.x += sc.mabx[s] * dl;
        av.y += sc.maby[s] * dl;
        av.z += sc.mabz[s] * dl;
    }
}

void
relaxClothSlotScalar(const ClothParticlesView &p,
                     const ClothConstraintsView &c, std::size_t s)
{
    const std::size_t a = static_cast<std::size_t>(c.ca[s]);
    const std::size_t b = static_cast<std::size_t>(c.cb[s]);
    const Real wa = p.w[a];
    const Real wb = p.w[b];
    const Real wsum = wa + wb;
    if (wsum == 0.0)
        return;
    const Real dx = p.px[b] - p.px[a];
    const Real dy = p.py[b] - p.py[a];
    const Real dz = p.pz[b] - p.pz[a];
    const Real len = std::sqrt(dx * dx + dy * dy + dz * dz);
    if (len < 1e-12)
        return;
    const Real diff = (len - c.crest[s]) / (len * wsum);
    const Real sa = diff * wa;
    const Real sb = diff * wb;
    p.px[a] += dx * sa;
    p.py[a] += dy * sa;
    p.pz[a] += dz * sa;
    p.px[b] -= dx * sb;
    p.py[b] -= dy * sb;
    p.pz[b] -= dz * sb;
}

void
sphereSphereSlotScalar(SphereSphereBatch &b, std::size_t i)
{
    // Mirrors collide.cc sphereSphere() exactly.
    const double dx = b.ax[i] - b.bx[i];
    const double dy = b.ay[i] - b.by[i];
    const double dz = b.az[i] - b.bz[i];
    const double dist2 = dx * dx + dy * dy + dz * dz;
    const double rsum = b.ar[i] + b.br[i];
    if (dist2 > rsum * rsum) {
        b.hit[i] = 0;
        return;
    }
    const double dist = std::sqrt(dist2);
    double nx_, ny_, nz_;
    if (dist > 1e-12) {
        nx_ = dx / dist;
        ny_ = dy / dist;
        nz_ = dz / dist;
    } else {
        nx_ = 0.0;
        ny_ = 1.0;
        nz_ = 0.0;
    }
    const double depth = rsum - dist;
    const double t = b.br[i] - 0.5 * depth;
    b.px[i] = b.bx[i] + nx_ * t;
    b.py[i] = b.by[i] + ny_ * t;
    b.pz[i] = b.bz[i] + nz_ * t;
    b.nx[i] = nx_;
    b.ny[i] = ny_;
    b.nz[i] = nz_;
    b.depth[i] = depth;
    b.hit[i] = 1;
}

namespace
{

/** v + t*w + u×t with u = (ux,uy,uz), t = u×v * 2 — the exact
 *  Quat::rotate arithmetic on explicit components. */
inline void
quatRotate(double qw, double ux, double uy, double uz, double vx,
           double vy, double vz, double &rx, double &ry, double &rz)
{
    const double tx = (uy * vz - uz * vy) * 2.0;
    const double ty = (uz * vx - ux * vz) * 2.0;
    const double tz = (ux * vy - uy * vx) * 2.0;
    rx = (vx + tx * qw) + (uy * tz - uz * ty);
    ry = (vy + ty * qw) + (uz * tx - ux * tz);
    rz = (vz + tz * qw) + (ux * ty - uy * tx);
}

} // namespace

void
sphereBoxSlotScalar(SphereBoxBatch &b, std::size_t i)
{
    // Mirrors collide.cc sphereBox() exactly (deep case included).
    const double qw = b.qw[i], qx_ = b.qx[i], qy_ = b.qy[i],
                 qz_ = b.qz[i];
    const double wx = b.cx[i] - b.bx[i];
    const double wy = b.cy[i] - b.by[i];
    const double wz = b.cz[i] - b.bz[i];
    // applyInverse: rotate by the conjugate.
    double lx, ly, lz;
    quatRotate(qw, -qx_, -qy_, -qz_, wx, wy, wz, lx, ly, lz);

    const double hx_ = b.hx[i], hy_ = b.hy[i], hz_ = b.hz[i];
    const double clx = std::clamp(lx, -hx_, hx_);
    const double cly = std::clamp(ly, -hy_, hy_);
    const double clz = std::clamp(lz, -hz_, hz_);
    const double dx = lx - clx;
    const double dy = ly - cly;
    const double dz = lz - clz;
    const double dist2 = dx * dx + dy * dy + dz * dz;
    const double r = b.cr[i];
    if (dist2 > r * r) {
        b.hit[i] = 0;
        return;
    }

    double nlx, nly, nlz, depth;
    if (dist2 > 1e-18) {
        const double dist = std::sqrt(dist2);
        nlx = dx / dist;
        nly = dy / dist;
        nlz = dz / dist;
        depth = r - dist;
    } else {
        const double ex = hx_ - std::fabs(lx);
        const double ey = hy_ - std::fabs(ly);
        const double ez = hz_ - std::fabs(lz);
        if (ex <= ey && ex <= ez) {
            nlx = lx >= 0 ? 1.0 : -1.0;
            nly = 0.0;
            nlz = 0.0;
            depth = ex + r;
        } else if (ey <= ez) {
            nlx = 0.0;
            nly = ly >= 0 ? 1.0 : -1.0;
            nlz = 0.0;
            depth = ey + r;
        } else {
            nlx = 0.0;
            nly = 0.0;
            nlz = lz >= 0 ? 1.0 : -1.0;
            depth = ez + r;
        }
    }

    double pxw, pyw, pzw;
    quatRotate(qw, qx_, qy_, qz_, clx, cly, clz, pxw, pyw, pzw);
    b.px[i] = pxw + b.bx[i];
    b.py[i] = pyw + b.by[i];
    b.pz[i] = pzw + b.bz[i];
    double nxw, nyw, nzw;
    quatRotate(qw, qx_, qy_, qz_, nlx, nly, nlz, nxw, nyw, nzw);
    b.nx[i] = nxw;
    b.ny[i] = nyw;
    b.nz[i] = nzw;
    b.depth[i] = depth;
    b.hit[i] = 1;
}

} // namespace parallax
