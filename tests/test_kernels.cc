/**
 * @file
 * Tests for the kernel backend seam (physics/kernels): scalar/SIMD
 * parity per kernel, constraint coloring correctness, and the
 * tolerance-bounded whole-scene acceptance sweep for the Native
 * backend.
 *
 * Parity contract: the elementwise kernel (cloth integration) keeps
 * the scalar operand order per element, and a PGS island that is not
 * all contact triplets runs the scalar sweep itself, so both must
 * match the scalar backend BITWISE. The fused fp32 contact sweep and
 * cloth constraint relaxation run in color-major order under Native,
 * so their trajectories are tolerance-bounded, not bitwise — those
 * tests assert convergence and bound invariants instead of bits.
 *
 * On hosts without AVX2 every Native-specific test SKIPs (the
 * seam itself degrades to scalar there, which ParseAndDispatch still
 * covers).
 */

#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "parallax.hh"
#include "physics/kernels/kernel_backend.hh"
#include "workload/benchmarks.hh"

namespace parallax
{
namespace
{

/** All vector backends compiled for this host (empty = scalar-only
 *  host; the caller should GTEST_SKIP). */
std::vector<const KernelBackend *>
vectorBackends()
{
    return nativeKernelBackends();
}

#define SKIP_WITHOUT_SIMD()                                          \
    do {                                                             \
        if (vectorBackends().empty())                                \
            GTEST_SKIP()                                             \
                << "host has no AVX2; Native degrades to "           \
                   "scalar and the vector paths cannot be tested";   \
    } while (0)

// ---------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------

TEST(KernelDispatch, ParseAndDispatch)
{
    SimdBackend out = SimdBackend::Native;
    EXPECT_TRUE(parseSimdBackend("scalar", out));
    EXPECT_EQ(out, SimdBackend::Scalar);
    EXPECT_TRUE(parseSimdBackend("native", out));
    EXPECT_EQ(out, SimdBackend::Native);
    EXPECT_TRUE(parseSimdBackend("simd", out));
    EXPECT_EQ(out, SimdBackend::Native);
    EXPECT_TRUE(parseSimdBackend("SCALAR", out));
    EXPECT_EQ(out, SimdBackend::Scalar);
    EXPECT_FALSE(parseSimdBackend("avx512", out));
    EXPECT_FALSE(parseSimdBackend("", out));
    EXPECT_FALSE(parseSimdBackend(nullptr, out));

    const KernelBackend &scalar =
        kernelBackendFor(SimdBackend::Scalar);
    EXPECT_EQ(scalar.kind(), SimdBackend::Scalar);
    EXPECT_EQ(scalar.width(), 1);
    EXPECT_STREQ(scalar.name(), "scalar");

    // Native either resolves to a vector backend or degrades to
    // scalar; it never fails.
    const KernelBackend &native =
        kernelBackendFor(SimdBackend::Native);
    if (nativeSimdAvailable()) {
        EXPECT_EQ(native.kind(), SimdBackend::Native);
        EXPECT_GT(native.width(), 1);
    } else {
        EXPECT_EQ(&native, &scalar);
    }
}

TEST(KernelDispatch, WorldHonorsConfigBackend)
{
    // A World reads its config alone: a stray PAX_SIMD in the
    // environment must not switch it (tools map the variable onto
    // WorldConfig::simdBackend themselves).
    const char *inherited = std::getenv("PAX_SIMD");
    const std::string saved = inherited != nullptr ? inherited : "";
    setenv("PAX_SIMD", "native", 1);
    WorldConfig config;
    config.simdBackend = SimdBackend::Scalar;
    World scalarWorld(config);
    EXPECT_EQ(scalarWorld.kernelBackend().kind(),
              SimdBackend::Scalar);
    EXPECT_STREQ(scalarWorld.kernelBackend().name(), "scalar");
    if (inherited != nullptr)
        setenv("PAX_SIMD", saved.c_str(), 1);
    else
        unsetenv("PAX_SIMD");

    config.simdBackend = SimdBackend::Native;
    World nativeWorld(config);
    if (nativeSimdAvailable())
        EXPECT_GT(nativeWorld.kernelBackend().width(), 1);
    else
        EXPECT_EQ(nativeWorld.kernelBackend().width(), 1);
}

// ---------------------------------------------------------------
// Constraint coloring
// ---------------------------------------------------------------

TEST(KernelColoring, RandomGraphIsConflictFreePermutation)
{
    std::mt19937 rng(12345);
    const std::size_t nodes = 200;
    const std::size_t count = 600;
    std::vector<std::int32_t> a(count), b(count);
    std::uniform_int_distribution<std::int32_t> pick(
        0, static_cast<std::int32_t>(nodes) - 1);
    for (std::size_t i = 0; i < count; ++i) {
        a[i] = pick(rng);
        do {
            b[i] = pick(rng);
        } while (b[i] == a[i]);
    }

    EdgeColoring coloring;
    colorEdges(a.data(), b.data(), count, nodes, coloring);

    // order is a permutation of [0, count).
    ASSERT_EQ(coloring.order.size(), count);
    std::vector<bool> seen(count, false);
    for (std::uint32_t o : coloring.order) {
        ASSERT_LT(o, count);
        EXPECT_FALSE(seen[o]) << "edge " << o << " appears twice";
        seen[o] = true;
    }

    // No two edges of one color share an endpoint.
    ASSERT_EQ(coloring.colorOffsets.size(), coloring.colors + 1);
    EXPECT_EQ(coloring.colorOffsets[coloring.colors],
              coloring.vecCount);
    for (std::size_t c = 0; c < coloring.colors; ++c) {
        std::vector<bool> touched(nodes, false);
        for (std::uint32_t s = coloring.colorOffsets[c];
             s < coloring.colorOffsets[c + 1]; ++s) {
            const std::uint32_t e = coloring.order[s];
            EXPECT_FALSE(touched[static_cast<std::size_t>(a[e])])
                << "color " << c << " reuses node " << a[e];
            EXPECT_FALSE(touched[static_cast<std::size_t>(b[e])])
                << "color " << c << " reuses node " << b[e];
            touched[static_cast<std::size_t>(a[e])] = true;
            touched[static_cast<std::size_t>(b[e])] = true;
        }
    }
}

TEST(KernelColoring, OverflowTailIsStable)
{
    // A star graph: every edge shares the hub, so edge i gets color
    // i until the 64-color budget runs out and the rest overflow.
    const std::size_t count = 100;
    std::vector<std::int32_t> a(count, 0), b(count);
    for (std::size_t i = 0; i < count; ++i)
        b[i] = static_cast<std::int32_t>(i + 1);

    EdgeColoring coloring;
    colorEdges(a.data(), b.data(), count, count + 1, coloring);
    EXPECT_EQ(coloring.colors, 64u);
    EXPECT_EQ(coloring.vecCount, 64u);
    // Overflow edges keep their original relative order.
    for (std::size_t s = coloring.vecCount; s < count; ++s)
        EXPECT_EQ(coloring.order[s], s) << "tail reordered";
}

// ---------------------------------------------------------------
// Cloth kernels
// ---------------------------------------------------------------

struct ParticleSet
{
    std::vector<Real> px, py, pz, qx, qy, qz, w;

    explicit ParticleSet(std::size_t n, unsigned seed)
        : px(n), py(n), pz(n), qx(n), qy(n), qz(n), w(n)
    {
        std::mt19937 rng(seed);
        std::uniform_real_distribution<double> u(-2.0, 2.0);
        for (std::size_t i = 0; i < n; ++i) {
            px[i] = u(rng);
            py[i] = u(rng);
            pz[i] = u(rng);
            qx[i] = px[i] + u(rng) * 0.01;
            qy[i] = py[i] + u(rng) * 0.01;
            qz[i] = pz[i] + u(rng) * 0.01;
            w[i] = (i % 5 == 0) ? 0.0 : 1.0 + u(rng) * 0.1;
        }
        // Edge cases: a denormal displacement and a huge one.
        if (n > 2) {
            qx[1] = px[1] - 1e-310;
            qy[2] = py[2] - 1e8;
        }
    }

    ClothParticlesView
    view()
    {
        ClothParticlesView v;
        v.count = px.size();
        v.px = px.data(); v.py = py.data(); v.pz = pz.data();
        v.qx = qx.data(); v.qy = qy.data(); v.qz = qz.data();
        v.w = w.data();
        return v;
    }

    bool
    bitwiseEqual(const ParticleSet &o) const
    {
        // Empty sets have null data(), which memcmp must not see.
        auto eq = [](const std::vector<Real> &x,
                     const std::vector<Real> &y) {
            return x.size() == y.size() &&
                   (x.empty() ||
                    std::memcmp(x.data(), y.data(),
                                x.size() * sizeof(Real)) == 0);
        };
        return eq(px, o.px) && eq(py, o.py) && eq(pz, o.pz) &&
               eq(qx, o.qx) && eq(qy, o.qy) && eq(qz, o.qz);
    }
};

TEST(KernelCloth, IntegrateParityIsBitwise)
{
    SKIP_WITHOUT_SIMD();
    const Vec3 accel{0.0, -9.81 * (1.0 / 60.0) * (1.0 / 60.0), 0.0};
    for (const KernelBackend *native : vectorBackends()) {
        const int w = native->width();
        // Counts straddling the pack width exercise the remainder
        // loop: 0, 1, W-1, W, W+1, and a multi-pack size.
        const std::size_t counts[] = {
            0, 1, static_cast<std::size_t>(w - 1),
            static_cast<std::size_t>(w),
            static_cast<std::size_t>(w + 1), 33};
        for (std::size_t n : counts) {
            ParticleSet ref(n, 7u + static_cast<unsigned>(n));
            ParticleSet vec = ref;
            KernelStats refStats, vecStats;
            scalarKernelBackend().clothIntegrate(
                ref.view(), accel, 0.995, refStats);
            native->clothIntegrate(vec.view(), accel, 0.995,
                                   vecStats);
            EXPECT_TRUE(vec.bitwiseEqual(ref))
                << native->name() << " diverged at count " << n;
            EXPECT_EQ(vecStats.rowsVectorized +
                          vecStats.remainderRows,
                      n);
            EXPECT_EQ(refStats.rowsVectorized, 0u);
            EXPECT_EQ(refStats.remainderRows, 0u);
        }
    }
}

/** Constraint streams plus the color-major permutation, the same
 *  way Cloth builds them. */
struct ConstraintSet
{
    std::vector<std::int32_t> a, b;
    std::vector<Real> rest;
    std::vector<std::int32_t> ca, cb;
    std::vector<Real> crest;
    EdgeColoring coloring;

    void
    finalize(std::size_t nodes)
    {
        colorEdges(a.data(), b.data(), a.size(), nodes, coloring);
        ca.resize(a.size());
        cb.resize(a.size());
        crest.resize(a.size());
        for (std::size_t s = 0; s < a.size(); ++s) {
            const std::size_t i = coloring.order[s];
            ca[s] = a[i];
            cb[s] = b[i];
            crest[s] = rest[i];
        }
    }

    ClothConstraintsView
    view() const
    {
        ClothConstraintsView v;
        v.count = a.size();
        v.a = a.data(); v.b = b.data(); v.rest = rest.data();
        v.ca = ca.data(); v.cb = cb.data(); v.crest = crest.data();
        v.colorOffsets = coloring.colorOffsets.data();
        v.colors = coloring.colors;
        v.vecCount = coloring.vecCount;
        return v;
    }
};

TEST(KernelCloth, WavefrontOrderKeepsEachParticlesSequence)
{
    // Seeded random constraint graphs, sparse to dense: the wavefront
    // permutation must keep every particle's constraints in their
    // original order, so a scalar sweep in it matches a sweep in the
    // original order bit for bit.
    for (unsigned seed = 1; seed <= 50; ++seed) {
        std::mt19937 rng(seed);
        const std::size_t nodes = 2 + rng() % 60;
        const std::size_t count = rng() % 400;
        std::uniform_int_distribution<std::int32_t> pick(
            0, static_cast<std::int32_t>(nodes) - 1);
        std::uniform_real_distribution<double> length(0.1, 1.5);
        ConstraintSet original;
        for (std::size_t i = 0; i < count; ++i) {
            const std::int32_t a = pick(rng);
            std::int32_t b;
            do {
                b = pick(rng);
            } while (b == a);
            original.a.push_back(a);
            original.b.push_back(b);
            original.rest.push_back(length(rng));
        }

        std::vector<std::uint32_t> order;
        wavefrontEdges(original.a.data(), original.b.data(), count,
                       nodes, order);
        ASSERT_EQ(order.size(), count);
        std::vector<bool> seen(count, false);
        ConstraintSet waved;
        for (std::uint32_t e : order) {
            ASSERT_LT(e, count);
            ASSERT_FALSE(seen[e]) << "edge " << e << " appears twice";
            seen[e] = true;
            waved.a.push_back(original.a[e]);
            waved.b.push_back(original.b[e]);
            waved.rest.push_back(original.rest[e]);
        }

        // Each particle meets its constraints in the original order.
        std::vector<std::vector<std::uint32_t>> before(nodes), after(nodes);
        for (std::uint32_t e = 0; e < count; ++e) {
            before[static_cast<std::size_t>(original.a[e])].push_back(e);
            before[static_cast<std::size_t>(original.b[e])].push_back(e);
        }
        for (std::uint32_t e : order) {
            after[static_cast<std::size_t>(original.a[e])].push_back(e);
            after[static_cast<std::size_t>(original.b[e])].push_back(e);
        }
        EXPECT_EQ(after, before) << "seed " << seed;

        ParticleSet ref(nodes, seed);
        ParticleSet got = ref;
        KernelStats stats;
        for (int sweep = 0; sweep < 3; ++sweep) {
            scalarKernelBackend().clothRelax(ref.view(), original.view(),
                                             stats);
            scalarKernelBackend().clothRelax(got.view(), waved.view(),
                                             stats);
        }
        EXPECT_TRUE(got.bitwiseEqual(ref)) << "seed " << seed;
    }
}

TEST(KernelCloth, RelaxDisjointConstraintsAreBitwise)
{
    SKIP_WITHOUT_SIMD();
    // Disjoint endpoint pairs: relaxation order cannot matter, so
    // the colored sweep must match the scalar order bitwise. Uses
    // particle count 30 (15 constraints) so every native width hits
    // both the vector body and the remainder loop.
    const std::size_t n = 30;
    ConstraintSet cons;
    for (std::size_t i = 0; i + 1 < n; i += 2) {
        cons.a.push_back(static_cast<std::int32_t>(i));
        cons.b.push_back(static_cast<std::int32_t>(i + 1));
        cons.rest.push_back(0.5);
    }
    // One degenerate constraint: coincident endpoints (len == 0)
    // must be skipped without producing NaN.
    ParticleSet ref(n, 99);
    ref.px[6] = ref.px[7];
    ref.py[6] = ref.py[7];
    ref.pz[6] = ref.pz[7];
    cons.finalize(n);

    for (const KernelBackend *native : vectorBackends()) {
        ParticleSet s = ref, v = ref;
        KernelStats stats;
        scalarKernelBackend().clothRelax(s.view(), cons.view(),
                                         stats);
        KernelStats vstats;
        native->clothRelax(v.view(), cons.view(), vstats);
        EXPECT_TRUE(v.bitwiseEqual(s)) << native->name();
        EXPECT_EQ(vstats.rowsVectorized + vstats.remainderRows,
                  cons.a.size());
        for (Real x : v.px)
            EXPECT_TRUE(std::isfinite(x));
    }
}

TEST(KernelCloth, RelaxChainConvergesToRestLength)
{
    SKIP_WITHOUT_SIMD();
    // A pinned hanging chain shares endpoints between constraints,
    // so colored order is a different (but valid) Gauss-Seidel
    // schedule: assert convergence, not bits.
    const std::size_t n = 8;
    ConstraintSet cons;
    for (std::size_t i = 0; i + 1 < n; ++i) {
        cons.a.push_back(static_cast<std::int32_t>(i));
        cons.b.push_back(static_cast<std::int32_t>(i + 1));
        cons.rest.push_back(0.25);
    }
    cons.finalize(n);

    for (const KernelBackend *native : vectorBackends()) {
        ParticleSet p(n, 4242);
        p.w[0] = 0.0; // pin the top
        for (std::size_t i = 1; i < n; ++i)
            p.w[i] = 1.0;
        KernelStats stats;
        for (int sweep = 0; sweep < 200; ++sweep)
            native->clothRelax(p.view(), cons.view(), stats);
        for (std::size_t i = 0; i + 1 < n; ++i) {
            const Real dx = p.px[i + 1] - p.px[i];
            const Real dy = p.py[i + 1] - p.py[i];
            const Real dz = p.pz[i + 1] - p.pz[i];
            const Real len =
                std::sqrt(dx * dx + dy * dy + dz * dz);
            EXPECT_NEAR(len, 0.25, 1e-6)
                << native->name() << " edge " << i;
        }
    }
}

// ---------------------------------------------------------------
// PGS sweep
// ---------------------------------------------------------------

/** A synthetic row set over `bodies` dynamic bodies (+ the static
 *  slot). Jacobians and effective-mass terms are arbitrary but
 *  fixed-seed; invDiag/cfm are well-conditioned. */
struct RowSet
{
    std::size_t bodies;
    /** The last 3 * contacts rows are contact triplets (ContactSet),
     *  over bodies of inverse mass invMass. */
    std::size_t contacts = 0;
    std::vector<Real> invMass;
    std::vector<Vec3> jla, jaa, jlb, jab, mla, maa, mlb, mab;
    std::vector<Real> rhs, cfm, invDiag, mu, lo, hi, lambda;
    std::vector<int> normalRow, bodyA, bodyB;
    std::vector<Vec3> linVel, angVel;

    RowSet(std::size_t nBodies, unsigned seed) : bodies(nBodies)
    {
        std::mt19937 rng(seed);
        std::uniform_real_distribution<double> u(-1.0, 1.0);
        linVel.resize(bodies + 1);
        angVel.resize(bodies + 1);
        for (std::size_t i = 0; i < bodies; ++i) {
            linVel[i] = {u(rng), u(rng), u(rng)};
            angVel[i] = {u(rng), u(rng), u(rng)};
        }
        linVel[bodies] = {};
        angVel[bodies] = {};
    }

    /** Append one row; ia/ib use -1 for the static slot. */
    void
    addRow(int ia, int ib, int normal, unsigned seed)
    {
        std::mt19937 rng(seed);
        std::uniform_real_distribution<double> u(-1.0, 1.0);
        auto vec = [&] { return Vec3{u(rng), u(rng), u(rng)}; };
        jla.push_back(vec()); jaa.push_back(vec());
        jlb.push_back(vec()); jab.push_back(vec());
        mla.push_back(vec()); maa.push_back(vec());
        mlb.push_back(vec()); mab.push_back(vec());
        rhs.push_back(u(rng));
        cfm.push_back(1e-9);
        invDiag.push_back(0.3 + 0.2 * std::fabs(u(rng)));
        if (normal >= 0) {
            mu.push_back(0.5);
            lo.push_back(0.0);
            hi.push_back(0.0);
        } else {
            mu.push_back(0.0);
            lo.push_back(0.0);
            hi.push_back(1e30);
        }
        lambda.push_back(0.0);
        normalRow.push_back(normal);
        bodyA.push_back(ia);
        bodyB.push_back(ib);
    }

    PgsSweepCtx
    ctx(int iterations)
    {
        PgsSweepCtx c;
        c.rows = rhs.size();
        c.contacts = contacts;
        c.jLinA = jla.data(); c.jAngA = jaa.data();
        c.jLinB = jlb.data(); c.jAngB = jab.data();
        c.mLinA = mla.data(); c.mAngA = maa.data();
        c.mLinB = mlb.data(); c.mAngB = mab.data();
        c.rhs = rhs.data(); c.cfm = cfm.data();
        c.invDiag = invDiag.data(); c.mu = mu.data();
        c.lo = lo.data(); c.hi = hi.data();
        c.lambda = lambda.data();
        c.normalRow = normalRow.data();
        c.bodyA = bodyA.data(); c.bodyB = bodyB.data();
        c.bodies = bodies;
        c.invMass = invMass.data();
        c.linVel = linVel.data();
        c.angVel = angVel.data();
        c.iterations = iterations;
        c.sor = 1.0;
        return c;
    }
};

// ---------------------------------------------------------------
// PGS contact fast path (fused fp32 triplets)
// ---------------------------------------------------------------

/** A triplet row set shaped exactly like buildContactRows output:
 *  per contact a unilateral normal row plus two friction rows over
 *  an orthonormal frame, with M·J consistent with diagonal per-body
 *  inverse mass/inertia (so the sweep converges). */
struct ContactSet : RowSet
{
    std::vector<Real> invInertia;

    ContactSet(std::size_t nBodies, unsigned seed)
        : RowSet(nBodies, seed)
    {
        std::mt19937 rng(seed ^ 0x9e3779b9u);
        std::uniform_real_distribution<double> u(0.0, 1.0);
        invMass.resize(nBodies);
        invInertia.resize(nBodies);
        for (std::size_t i = 0; i < nBodies; ++i) {
            invMass[i] = 0.4 + 0.6 * u(rng);
            invInertia[i] = 0.5 + 0.5 * u(rng);
        }
    }

    void
    addContact(int ia, int ib, unsigned seed)
    {
        std::mt19937 rng(seed);
        std::uniform_real_distribution<double> u(-1.0, 1.0);
        auto vec = [&] { return Vec3{u(rng), u(rng), u(rng)}; };
        Vec3 n = vec();
        while (n.length() < 1e-3)
            n = vec();
        n = n * (1.0 / n.length());
        const Vec3 h = std::fabs(n.x) < 0.9 ? Vec3{1.0, 0.0, 0.0}
                                            : Vec3{0.0, 1.0, 0.0};
        Vec3 t1 = n.cross(h);
        t1 = t1 * (1.0 / t1.length());
        const Vec3 t2 = n.cross(t1);
        const Vec3 ra = vec();
        const Vec3 rb = vec();
        const int r0 = static_cast<int>(rhs.size());
        pushRow(ia, ib, -1, n, ra, rb,
                0.2 * std::fabs(u(rng)), 0.0);
        pushRow(ia, ib, r0, t1, ra, rb, 0.0, 0.5);
        pushRow(ia, ib, r0, t2, ra, rb, 0.0, 0.5);
        ++contacts;
    }

    void
    pushRow(int ia, int ib, int normal, const Vec3 &dir,
            const Vec3 &ra, const Vec3 &rb, Real bias, Real fric)
    {
        const Real imA = invMass[static_cast<std::size_t>(ia)];
        const Real iwA = invInertia[static_cast<std::size_t>(ia)];
        const Real imB =
            ib >= 0 ? invMass[static_cast<std::size_t>(ib)] : 0.0;
        const Real iwB =
            ib >= 0 ? invInertia[static_cast<std::size_t>(ib)]
                    : 0.0;
        const Vec3 la = dir;
        const Vec3 aa = ra.cross(dir);
        const Vec3 lb = ib >= 0 ? -dir : Vec3{};
        const Vec3 ab = ib >= 0 ? -rb.cross(dir) : Vec3{};
        jla.push_back(la); jaa.push_back(aa);
        jlb.push_back(lb); jab.push_back(ab);
        const Vec3 ml = la * imA;
        const Vec3 ma = aa * iwA;
        const Vec3 nl = lb * imB;
        const Vec3 nb = ab * iwB;
        mla.push_back(ml); maa.push_back(ma);
        mlb.push_back(nl); mab.push_back(nb);
        const Real jmj = la.dot(ml) + aa.dot(ma) + lb.dot(nl) +
                         ab.dot(nb);
        rhs.push_back(bias);
        cfm.push_back(1e-9);
        invDiag.push_back(1.0 / (jmj + 1e-9));
        mu.push_back(fric);
        lo.push_back(0.0);
        hi.push_back(normal < 0 ? 1e30 : 0.0);
        lambda.push_back(0.0);
        normalRow.push_back(normal);
        bodyA.push_back(ia);
        bodyB.push_back(ib);
    }
};

TEST(KernelPgsContact, DisjointTripletsMatchScalarToFloatTolerance)
{
    SKIP_WITHOUT_SIMD();
    // Each contact owns its body pair, so relaxation order cannot
    // matter; the remaining divergence is the fast path's fp32
    // streams (the documented tolerance-bounded contract). 20
    // iterations at engine scale keeps accumulated error well under
    // the invariant checker's thresholds.
    const std::size_t contacts = 21; // odd: pads the last pack
    ContactSet ref(contacts * 2, 51);
    for (std::size_t c = 0; c < contacts; ++c) {
        const int ia = static_cast<int>(c * 2);
        const int ib =
            c % 5 == 0 ? -1 : static_cast<int>(c * 2 + 1);
        ref.addContact(ia, ib, 500u + static_cast<unsigned>(c));
    }
    for (const KernelBackend *native : vectorBackends()) {
        ContactSet s = ref, v = ref;
        PgsScratch scratch, vscratch;
        KernelStats stats, vstats;
        scalarKernelBackend().pgsSweep(s.ctx(20), scratch, stats);
        native->pgsSweep(v.ctx(20), vscratch, vstats);
        for (std::size_t r = 0; r < s.lambda.size(); ++r)
            EXPECT_NEAR(s.lambda[r], v.lambda[r],
                        1e-3 * (1.0 + std::fabs(s.lambda[r])))
                << native->name() << " row " << r;
        for (std::size_t i = 0; i <= s.bodies; ++i) {
            EXPECT_NEAR(s.linVel[i].x, v.linVel[i].x, 1e-3);
            EXPECT_NEAR(s.linVel[i].y, v.linVel[i].y, 1e-3);
            EXPECT_NEAR(s.linVel[i].z, v.linVel[i].z, 1e-3);
            EXPECT_NEAR(s.angVel[i].x, v.angVel[i].x, 1e-3);
            EXPECT_NEAR(s.angVel[i].y, v.angVel[i].y, 1e-3);
            EXPECT_NEAR(s.angVel[i].z, v.angVel[i].z, 1e-3);
        }
        // The fast path actually ran, and it saw every unit.
        EXPECT_EQ(vstats.contactUnits, contacts)
            << native->name();
        EXPECT_EQ(vstats.rowsVectorized + vstats.remainderRows,
                  contacts * 3 * 20);
    }
}

TEST(KernelPgsContact, SharedPileHoldsConeAndStaticSlot)
{
    SKIP_WITHOUT_SIMD();
    // A pile over few bodies: colored order diverges from scalar
    // order, but the unilateral clamp and friction cone are exact
    // invariants of any schedule (fp32 epsilon on the bound), and
    // the static slot must never be scattered to.
    ContactSet rows(6, 61);
    std::mt19937 rng(6021);
    std::uniform_int_distribution<int> pick(0, 5);
    for (int c = 0; c < 40; ++c) {
        int ia = pick(rng);
        int ib = pick(rng);
        if (ib == ia || c % 4 == 0)
            ib = -1;
        rows.addContact(ia, ib, 600u + static_cast<unsigned>(c));
    }
    for (const KernelBackend *native : vectorBackends()) {
        ContactSet v = rows;
        PgsScratch scratch;
        KernelStats stats;
        native->pgsSweep(v.ctx(10), scratch, stats);
        for (std::size_t r = 0; r < v.lambda.size(); ++r) {
            ASSERT_TRUE(std::isfinite(v.lambda[r]))
                << native->name() << " row " << r;
            const int n = v.normalRow[r];
            if (n >= 0) {
                const Real limit =
                    v.mu[r] *
                    v.lambda[static_cast<std::size_t>(n)];
                EXPECT_LE(std::fabs(v.lambda[r]), limit + 1e-5)
                    << native->name() << " friction row " << r;
            } else {
                EXPECT_GE(v.lambda[r], 0.0)
                    << native->name() << " normal row " << r;
            }
        }
        EXPECT_EQ(v.linVel[v.bodies].x, 0.0) << native->name();
        EXPECT_EQ(v.linVel[v.bodies].y, 0.0);
        EXPECT_EQ(v.linVel[v.bodies].z, 0.0);
        EXPECT_EQ(v.angVel[v.bodies].x, 0.0);
        EXPECT_EQ(stats.contactUnits, 40u) << native->name();
    }
}

TEST(KernelPgsContact, ColorOverflowRunsScalarTail)
{
    SKIP_WITHOUT_SIMD();
    // 70 contacts all sharing body 0 conflict pairwise: the 64-color
    // budget overflows and the rest must run in the fp32 scalar
    // tail, still correct and accounted as remainder rows.
    const int contacts = 70;
    ContactSet rows(1, 71);
    for (int c = 0; c < contacts; ++c)
        rows.addContact(0, -1, 700u + static_cast<unsigned>(c));
    for (const KernelBackend *native : vectorBackends()) {
        ContactSet v = rows;
        PgsScratch scratch;
        KernelStats stats;
        native->pgsSweep(v.ctx(4), scratch, stats);
        EXPECT_EQ(stats.contactUnits,
                  static_cast<std::uint64_t>(contacts));
        EXPECT_GT(stats.remainderRows, 0u) << native->name();
        EXPECT_EQ(stats.rowsVectorized + stats.remainderRows,
                  static_cast<std::uint64_t>(contacts) * 3 * 4);
        for (std::size_t r = 0; r < v.lambda.size(); ++r)
            ASSERT_TRUE(std::isfinite(v.lambda[r]))
                << native->name() << " row " << r;
        EXPECT_EQ(v.linVel[v.bodies].x, 0.0);
    }
}

// ---------------------------------------------------------------
// PGS islands that are not all contacts (the scalar reference)
// ---------------------------------------------------------------

/** The exact bit pattern of a Real, for bitwise comparisons. */
std::uint64_t
bitsOf(Real x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/** Sweep `ref` under Scalar and under every vector backend. Only an
 *  island made entirely of contact triplets takes the fused fp32
 *  path; every other island runs the scalar reference sweep under
 *  every backend. So each lambda, friction bound and velocity (the
 *  zeroed dummy slot included) must match Scalar bit for bit, and
 *  no vector counter may move. Returns each vector backend's swept
 *  copy for further checks. */
std::vector<RowSet>
expectScalarSweepBitwise(const RowSet &ref, int iterations)
{
    RowSet s = ref;
    PgsScratch scratch;
    KernelStats stats;
    scalarKernelBackend().pgsSweep(s.ctx(iterations), scratch, stats);
    std::vector<RowSet> swept;
    for (const KernelBackend *native : vectorBackends()) {
        SCOPED_TRACE(native->name());
        RowSet v = ref;
        PgsScratch vscratch;
        KernelStats vstats;
        native->pgsSweep(v.ctx(iterations), vscratch, vstats);
        for (std::size_t r = 0; r < s.lambda.size(); ++r) {
            EXPECT_EQ(bitsOf(v.lambda[r]), bitsOf(s.lambda[r]))
                << "lambda row " << r;
            EXPECT_EQ(bitsOf(v.lo[r]), bitsOf(s.lo[r]))
                << "lo row " << r;
            EXPECT_EQ(bitsOf(v.hi[r]), bitsOf(s.hi[r]))
                << "hi row " << r;
        }
        for (std::size_t i = 0; i <= s.bodies; ++i) {
            for (int k = 0; k < 3; ++k) {
                EXPECT_EQ(bitsOf(v.linVel[i][k]),
                          bitsOf(s.linVel[i][k]))
                    << "linVel body " << i;
                EXPECT_EQ(bitsOf(v.angVel[i][k]),
                          bitsOf(s.angVel[i][k]))
                    << "angVel body " << i;
            }
        }
        EXPECT_EQ(vstats.contactUnits, 0u);
        EXPECT_EQ(vstats.rowsVectorized, 0u);
        EXPECT_EQ(vstats.remainderRows, 0u);
        swept.push_back(std::move(v));
    }
    return swept;
}

TEST(KernelPgs, DisjointRowsMatchScalarTightly)
{
    SKIP_WITHOUT_SIMD();
    // Every row touches its own body pair (one vs the static slot
    // for a few rows). Not a contact island, so every vector backend
    // runs the scalar sweep and matches it bit for bit.
    const std::size_t pairs = 11; // odd: no whole number of packs
    RowSet ref(pairs * 2, 31);
    for (std::size_t p = 0; p < pairs; ++p) {
        const int ia = static_cast<int>(p * 2);
        const int ib = p % 3 == 0 ? -1 : static_cast<int>(p * 2 + 1);
        ref.addRow(ia, ib, -1, 100u + static_cast<unsigned>(p));
    }
    expectScalarSweepBitwise(ref, 4);
}

TEST(KernelPgs, SharedBodiesRespectBoundsAndStayFinite)
{
    SKIP_WITHOUT_SIMD();
    // Rows share bodies (a pile) and carry one friction row per
    // normal row: the scalar sweep's order under every backend, and
    // the clamp and the friction-cone bound hold on the result.
    RowSet rows(6, 77);
    std::mt19937 rng(5150);
    std::uniform_int_distribution<int> pick(0, 5);
    std::vector<int> normals;
    for (int r = 0; r < 24; ++r) {
        int ia = pick(rng);
        int ib = pick(rng);
        if (ib == ia)
            ib = -1;
        rows.addRow(ia, ib, -1, 200u + static_cast<unsigned>(r));
        normals.push_back(static_cast<int>(rows.rhs.size()) - 1);
    }
    // One friction row per normal row, on the same body pair.
    for (int n : normals) {
        rows.addRow(rows.bodyA[static_cast<std::size_t>(n)],
                    rows.bodyB[static_cast<std::size_t>(n)], n,
                    300u + static_cast<unsigned>(n));
    }

    for (const RowSet &v : expectScalarSweepBitwise(rows, 10)) {
        for (std::size_t r = 0; r < v.lambda.size(); ++r) {
            ASSERT_TRUE(std::isfinite(v.lambda[r])) << "row " << r;
            const int n = v.normalRow[r];
            if (n >= 0) {
                const Real limit =
                    v.mu[r] *
                    v.lambda[static_cast<std::size_t>(n)];
                EXPECT_LE(std::fabs(v.lambda[r]), limit + 1e-12)
                    << "friction row " << r;
            } else {
                EXPECT_GE(v.lambda[r], v.lo[r] - 1e-12);
                EXPECT_LE(v.lambda[r], v.hi[r] + 1e-12);
            }
        }
        for (std::size_t i = 0; i <= v.bodies; ++i) {
            EXPECT_TRUE(std::isfinite(v.linVel[i].x));
            EXPECT_TRUE(std::isfinite(v.angVel[i].x));
        }
        // The static slot must stay untouched: it is the -1 remap
        // target and anything written there would be a scatter bug.
        EXPECT_EQ(v.linVel[v.bodies].x, 0.0);
        EXPECT_EQ(v.linVel[v.bodies].y, 0.0);
        EXPECT_EQ(v.linVel[v.bodies].z, 0.0);
    }
}

TEST(KernelPgsContact, NonTripletRowsFallBackToGenericPath)
{
    SKIP_WITHOUT_SIMD();
    // One joint-style row ahead of the contacts routes the whole
    // island off the fused path to the general-row path, the scalar
    // reference sweep: contactUnits stays zero and the results match
    // Scalar bit for bit.
    ContactSet rows(8, 81);
    rows.addRow(0, 1, -1, 901);
    for (int c = 0; c < 10; ++c)
        rows.addContact(c % 8, (c + 1) % 8,
                        800u + static_cast<unsigned>(c));
    ASSERT_EQ(rows.contacts, 10u);
    for (const RowSet &v : expectScalarSweepBitwise(rows, 6))
        for (std::size_t r = 0; r < v.lambda.size(); ++r)
            ASSERT_TRUE(std::isfinite(v.lambda[r])) << "row " << r;
}

// ---------------------------------------------------------------
// Whole-scene acceptance
// ---------------------------------------------------------------

TEST(KernelScene, NativeHoldsInvariantsOnEveryScene)
{
    SKIP_WITHOUT_SIMD();
    // Native's fused contact sweep and cloth relaxation run in
    // color-major order, so its trajectories are tolerance-bounded
    // against scalar, not bitwise — and
    // contact-rich scenes amplify any impulse difference chaotically
    // within a handful of steps, so positional drift bounds are
    // meaningless. The meaningful acceptance gate is the one the
    // engine defines: the per-step invariant checker on every scene
    // (energy, penetration, friction cone, cloth health, sleeping).
    // tools/invariant_sweep runs the deeper version of this across
    // worker counts.
    for (BenchmarkId id : allBenchmarks) {
        WorldConfig config;
        config.workerThreads = 0;
        config.simdBackend = SimdBackend::Native;
        config.invariantMode = InvariantMode::Warn;
        std::unique_ptr<World> world =
            buildBenchmark(id, config, 0.08);
        for (int s = 0; s < 120; ++s)
            world->step();
        EXPECT_EQ(world->invariantViolationCount(), 0u)
            << benchmarkInfo(id).shortName;
        EXPECT_NE(worldStateHash(*world), 0u);
    }
}

TEST(KernelScene, NativeStepsLikeScalarWithoutContactIslandsOrCloth)
{
    SKIP_WITHOUT_SIMD();
    // Native departs from the scalar reference only in all-contact
    // islands (the fused fp32 sweep) and cloth relaxation order.
    // Periodic and Ragdoll have neither, so under Native they must
    // end on the Scalar state hash bit for bit.
    for (BenchmarkId id : {BenchmarkId::Periodic, BenchmarkId::Ragdoll}) {
        for (unsigned workers : {0u, 2u}) {
            SCOPED_TRACE(std::string(benchmarkInfo(id).shortName) +
                         " workers=" + std::to_string(workers));
            std::uint64_t hash[2] = {};
            const SimdBackend backends[2] = {SimdBackend::Scalar,
                                             SimdBackend::Native};
            for (int b = 0; b < 2; ++b) {
                WorldConfig config;
                config.workerThreads = workers;
                config.simdBackend = backends[b];
                std::unique_ptr<World> world =
                    buildBenchmark(id, config, 0.08);
                ASSERT_EQ(world->clothCount(), 0u);
                std::uint64_t units = 0;
                for (int s = 0; s < 80; ++s) {
                    world->step();
                    units += world->lastStepStats()
                                 .solver.kernels.contactUnits;
                }
                ASSERT_EQ(units, 0u)
                    << "an all-contact island ran the fused path";
                hash[b] = worldStateHash(*world);
            }
            EXPECT_EQ(hash[1], hash[0]);
        }
    }
}

TEST(KernelScene, NativeLongRunHoldsInvariants)
{
    SKIP_WITHOUT_SIMD();
    // The in-tree slice of the tools/invariant_sweep acceptance
    // gate: a long Native run with the per-step checker armed. One
    // scene with every feature in play (ragdolls, cloth, piles)
    // keeps the test under a few seconds; the tool sweeps all
    // scenes x worker counts.
    WorldConfig config;
    config.workerThreads = 0;
    config.simdBackend = SimdBackend::Native;
    config.invariantMode = InvariantMode::Warn;
    std::unique_ptr<World> world = buildBenchmark(
        BenchmarkId::Deformable, config, 0.08);
    for (int s = 0; s < 300; ++s)
        world->step();
    EXPECT_EQ(world->invariantViolationCount(), 0u);
    EXPECT_NE(worldStateHash(*world), 0u);

    // The vector engine must actually have run.
    if (nativeSimdAvailable()) {
        const StepStats &stats = world->lastStepStats();
        EXPECT_GT(stats.solver.kernels.rowsVectorized +
                      stats.cloth.kernels.rowsVectorized,
                  0u);
    }
}

} // namespace
} // namespace parallax
