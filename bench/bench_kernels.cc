/**
 * @file
 * Kernel-backend microbenchmark: ns/row for every kernel behind the
 * KernelBackend seam (physics/kernels: the PGS sweep and the two
 * cloth kernels), scalar reference vs each vector backend this host
 * can run, one per ISA (AVX-512: 16 fp32 contact lanes, 8 doubles
 * for cloth; AVX2: 8 and 4; NEON: 4 doubles for cloth and the scalar
 * PGS sweep), plus the speedup column.
 *
 * Workloads are synthetic but sized and shaped like the engine's
 * steady state: a contact pile's PGS triplets (normal + two coupled
 * friction rows over shared bodies, physically consistent M·J so
 * the sweep converges; all contacts, so the x86-64 backends run the
 * fused contact path)
 * and a 64x64 cloth patch (relaxation in the orders Cloth builds —
 * wavefront order for the scalar sweep, the edge coloring for
 * Native — and Verlet integration over the particle streams). Each
 * sample times the whole kernel call, including the Native PGS
 * contact-unit build the engine also pays every solve.
 *
 * Samples are taken round-robin: each of `--samples` (default 25)
 * rounds times every backend once, and the backend that goes first
 * rotates from round to round, so a slow or fast phase of the host
 * lands on every column alike instead of on one column's whole
 * series. Per backend the best sample is `<backend>_ns_per_row` and
 * the median `<backend>_ns_per_row_median`; `<backend>_speedup` is
 * the median over rounds of that round's scalar/backend ratio.
 *
 * Staged into BENCH_kernels.json (baseline committed under
 * bench/baselines/): per kernel, rows per call, ns/row per backend,
 * and speedup vs scalar. `cpus` is recorded so trend tooling
 * compares like against like; `simd` records the backends measured.
 *
 * Run: ./build/bench/bench_kernels [--samples=N] [--bench-out=FILE]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "harness.hh"
#include "physics/kernels/kernel_backend.hh"

using namespace parallax;
using namespace parallax::bench;

namespace
{

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now()
                   .time_since_epoch())
        .count();
}

/** Wall time of one fn() call. */
template <typename Fn>
double
secondsOf(Fn &&fn)
{
    const double t0 = now();
    fn();
    return now() - t0;
}

/** Median of `v`; sorts `v` in place. */
double
median(std::vector<double> &v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// -----------------------------------------------------------------
// PGS workload: a contact pile.
// -----------------------------------------------------------------

struct PgsWorkload
{
    // The engine's default solverIterations (WorldConfig), so the
    // Native backend's per-solve contact-unit build is amortized
    // exactly as it is inside a real solve.
    static constexpr int iterations = 20;

    std::size_t bodies = 0;
    std::vector<Vec3> jla, jaa, jlb, jab, mla, maa, mlb, mab;
    std::vector<Real> rhs, cfm, invDiag, mu, lo0, hi0, lambda0;
    std::vector<Real> lo, hi, lambda;
    std::vector<int> normalRow, bodyA, bodyB;
    std::vector<Vec3> linVel0, angVel0, linVel, angVel;

    /** `contacts` contact points shaped exactly like the engine's
     *  ContactJoint rows: a unilateral normal row plus two coupled
     *  friction rows sharing an orthonormal contact frame, with
     *  M·J rows consistent with per-body inverse mass/inertia so
     *  the system is physically convergent (20% against static). */
    explicit PgsWorkload(std::size_t contacts, std::size_t nBodies)
        : bodies(nBodies)
    {
        std::mt19937 rng(1234);
        std::uniform_real_distribution<double> u(-1.0, 1.0);
        auto vec = [&] { return Vec3{u(rng), u(rng), u(rng)}; };
        std::uniform_int_distribution<int> pick(
            0, static_cast<int>(nBodies) - 1);

        linVel0.resize(bodies + 1);
        angVel0.resize(bodies + 1);
        std::vector<Real> invMass(bodies), invInertia(bodies);
        for (std::size_t i = 0; i < bodies; ++i) {
            linVel0[i] = vec();
            angVel0[i] = vec();
            invMass[i] = 0.4 + 0.6 * std::fabs(u(rng));
            invInertia[i] = 0.5 + 0.5 * std::fabs(u(rng));
        }
        linVel0[bodies] = {};
        angVel0[bodies] = {};

        auto addRow = [&](int ia, int ib, int normal,
                          const Vec3 &dir, const Vec3 &ra,
                          const Vec3 &rb, Real bias, Real fric) {
            const Real imA = invMass[ia];
            const Real iwA = invInertia[ia];
            const Real imB = ib >= 0 ? invMass[ib] : 0.0;
            const Real iwB = ib >= 0 ? invInertia[ib] : 0.0;
            const Vec3 la = dir;
            const Vec3 aa = ra.cross(dir);
            const Vec3 lb = ib >= 0 ? -dir : Vec3{};
            const Vec3 ab = ib >= 0 ? -rb.cross(dir) : Vec3{};
            jla.push_back(la); jaa.push_back(aa);
            jlb.push_back(lb); jab.push_back(ab);
            // Diagonal mass/inertia: M·J = scaled J per body.
            const Vec3 ml{la.x * imA, la.y * imA, la.z * imA};
            const Vec3 ma{aa.x * iwA, aa.y * iwA, aa.z * iwA};
            const Vec3 nl{lb.x * imB, lb.y * imB, lb.z * imB};
            const Vec3 nb{ab.x * iwB, ab.y * iwB, ab.z * iwB};
            mla.push_back(ml); maa.push_back(ma);
            mlb.push_back(nl); mab.push_back(nb);
            const Real jmj = la.dot(ml) + aa.dot(ma) +
                             lb.dot(nl) + ab.dot(nb);
            rhs.push_back(bias);
            cfm.push_back(1e-9);
            invDiag.push_back(1.0 / (jmj + 1e-9));
            mu.push_back(fric);
            lo0.push_back(0.0);
            hi0.push_back(normal < 0 ? 1e30 : 0.0);
            lambda0.push_back(0.0);
            normalRow.push_back(normal);
            bodyA.push_back(ia);
            bodyB.push_back(ib);
        };
        for (std::size_t c = 0; c < contacts; ++c) {
            const int ia = pick(rng);
            int ib = pick(rng);
            if (ib == ia || c % 5 == 0)
                ib = -1;
            // Orthonormal contact frame (n, t1, t2).
            Vec3 n = vec();
            while (n.length() < 1e-3)
                n = vec();
            n = n * (1.0 / n.length());
            Vec3 h = std::fabs(n.x) < 0.9 ? Vec3{1.0, 0.0, 0.0}
                                          : Vec3{0.0, 1.0, 0.0};
            Vec3 t1 = n.cross(h);
            t1 = t1 * (1.0 / t1.length());
            const Vec3 t2 = n.cross(t1);
            const Vec3 ra = vec();
            const Vec3 rb = vec();
            const Real bias = 0.2 * std::fabs(u(rng));
            const int r0 = static_cast<int>(rhs.size());
            addRow(ia, ib, -1, n, ra, rb, bias, 0.0);
            addRow(ia, ib, r0, t1, ra, rb, 0.0, 0.5);
            addRow(ia, ib, r0, t2, ra, rb, 0.0, 0.5);
        }
    }

    void
    reset()
    {
        lo = lo0;
        hi = hi0;
        lambda = lambda0;
        linVel = linVel0;
        angVel = angVel0;
    }

    PgsSweepCtx
    ctx()
    {
        PgsSweepCtx c;
        c.rows = rhs.size();
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
        c.linVel = linVel.data();
        c.angVel = angVel.data();
        c.iterations = iterations;
        c.sor = 1.0;
        return c;
    }
};

// -----------------------------------------------------------------
// Cloth workload: a 64x64 patch, ordered once like Cloth does.
// -----------------------------------------------------------------

struct ClothWorkload
{
    static constexpr int sweeps = 8;

    std::vector<Real> px0, py0, pz0, qx0, qy0, qz0, w;
    std::vector<Real> px, py, pz, qx, qy, qz;
    std::vector<std::int32_t> a, b, ca, cb;
    std::vector<Real> rest, crest;
    EdgeColoring coloring;

    explicit ClothWorkload(int nx, int ny)
    {
        const std::size_t n =
            static_cast<std::size_t>(nx) * ny;
        px0.resize(n); py0.resize(n); pz0.resize(n);
        qx0.resize(n); qy0.resize(n); qz0.resize(n);
        w.resize(n);
        const Real spacing = 0.1;
        for (int j = 0; j < ny; ++j) {
            for (int i = 0; i < nx; ++i) {
                const std::size_t k =
                    static_cast<std::size_t>(j) * nx + i;
                px0[k] = i * spacing;
                py0[k] = 0.0;
                pz0[k] = j * spacing;
                qx0[k] = px0[k];
                qy0[k] = py0[k] + 0.001;
                qz0[k] = pz0[k];
                w[k] = j == 0 ? 0.0 : 1.0; // pin the top row
            }
        }
        auto addEdge = [&](int i0, int j0, int i1, int j1) {
            const std::int32_t ea =
                static_cast<std::int32_t>(j0 * nx + i0);
            const std::int32_t eb =
                static_cast<std::int32_t>(j1 * nx + i1);
            a.push_back(ea);
            b.push_back(eb);
            const Real dx = (i1 - i0) * spacing;
            const Real dz = (j1 - j0) * spacing;
            rest.push_back(std::sqrt(dx * dx + dz * dz));
        };
        for (int j = 0; j < ny; ++j) {
            for (int i = 0; i < nx; ++i) {
                if (i + 1 < nx)
                    addEdge(i, j, i + 1, j);
                if (j + 1 < ny)
                    addEdge(i, j, i, j + 1);
                if (i + 1 < nx && j + 1 < ny)
                    addEdge(i, j, i + 1, j + 1);
            }
        }
        // Both orders from cell order, as Cloth builds them: the
        // Native coloring, and the wavefront order the scalar sweep
        // runs in.
        colorEdges(a.data(), b.data(), a.size(), n, coloring);
        permute(coloring.order, ca, cb, crest);
        std::vector<std::uint32_t> wavefront;
        wavefrontEdges(a.data(), b.data(), a.size(), n, wavefront);
        std::vector<std::int32_t> wa, wb;
        std::vector<Real> wrest;
        permute(wavefront, wa, wb, wrest);
        a.swap(wa);
        b.swap(wb);
        rest.swap(wrest);
    }

    /** Cell-order constraints a/b/rest, reordered by `order`. */
    void
    permute(const std::vector<std::uint32_t> &order,
            std::vector<std::int32_t> &pa, std::vector<std::int32_t> &pb,
            std::vector<Real> &prest) const
    {
        pa.resize(a.size());
        pb.resize(a.size());
        prest.resize(a.size());
        for (std::size_t s = 0; s < a.size(); ++s) {
            const std::size_t i = order[s];
            pa[s] = a[i];
            pb[s] = b[i];
            prest[s] = rest[i];
        }
    }

    void
    reset()
    {
        px = px0; py = py0; pz = pz0;
        qx = qx0; qy = qy0; qz = qz0;
    }

    ClothParticlesView
    particles()
    {
        ClothParticlesView v;
        v.count = px.size();
        v.px = px.data(); v.py = py.data(); v.pz = pz.data();
        v.qx = qx.data(); v.qy = qy.data(); v.qz = qz.data();
        v.w = w.data();
        return v;
    }

    ClothConstraintsView
    constraints() const
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

/** One measured kernel: rows per timed call + per-backend runner
 *  (the argument indexes the backend list). */
struct KernelCase
{
    const char *name;
    std::size_t rowsPerCall;
    std::function<void()> reset;
    std::function<void(std::size_t)> run;
};

} // namespace

int
main(int argc, char **argv)
{
    int samples = 25;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--samples=", 10) == 0)
            samples = std::atoi(argv[i] + 10);
    }
    parseCommonFlags(&argc, argv);

    printHeader("kernel backend ns/row (scalar vs SIMD)",
                "perf baseline for the KernelBackend seam");

    // backends[0] is the scalar reference every speedup divides.
    std::vector<const KernelBackend *> backends;
    backends.push_back(&scalarKernelBackend());
    for (const KernelBackend *native : nativeKernelBackends())
        backends.push_back(native);
    if (backends.size() == 1)
        std::printf("note: host has no AVX2/NEON; measuring the "
                    "scalar reference only\n");

    // Workloads (sized like a busy engine step).
    PgsWorkload pgs(2048, 900);
    ClothWorkload cloth(64, 64);

    // Integration is cheap per row: run several passes per timed
    // call so every sample is comfortably above timer resolution.
    constexpr int integratePasses = 16;
    const Vec3 accel{0.0, -9.81 / 3600.0, 0.0};

    std::vector<KernelCase> cases;
    // Persistent scratch per backend, like each lane solver's
    // workspace: a steady contact set colors its units once per
    // backend (the topology cache keys on rows/bodies/width), while
    // the value streams still rebuild inside every timed call.
    std::vector<PgsScratch> pgsScratch(backends.size());
    cases.push_back(
        {"pgs_relax",
         pgs.rhs.size() * PgsWorkload::iterations,
         [&] { pgs.reset(); },
         [&](std::size_t b) {
             KernelStats stats;
             backends[b]->pgsSweep(pgs.ctx(), pgsScratch[b], stats);
         }});
    cases.push_back(
        {"cloth_relax",
         cloth.a.size() * ClothWorkload::sweeps,
         [&] { cloth.reset(); },
         [&](std::size_t b) {
             KernelStats stats;
             const ClothConstraintsView cv = cloth.constraints();
             ClothParticlesView pv = cloth.particles();
             for (int s = 0; s < ClothWorkload::sweeps; ++s)
                 backends[b]->clothRelax(pv, cv, stats);
         }});
    cases.push_back(
        {"cloth_integrate",
         cloth.px0.size() * integratePasses,
         [&] { cloth.reset(); },
         [&](std::size_t b) {
             KernelStats stats;
             ClothParticlesView pv = cloth.particles();
             for (int s = 0; s < integratePasses; ++s)
                 backends[b]->clothIntegrate(pv, accel, 0.995, stats);
         }});

    // Header row.
    std::printf("%-16s %10s", "kernel", "rows/call");
    for (const KernelBackend *kb : backends) {
        std::printf(" %9s", kb->name());
        if (kb->width() > 1)
            std::printf(" %8s", "speedup");
    }
    std::printf("\n");

    JsonWriter json;
    json.field("bench", "kernels");
    json.field("cpus",
               (double)std::thread::hardware_concurrency());
    json.field("samples", (double)samples);
    json.field("simd_available", nativeSimdAvailable());
    json.beginObject("kernels");
    const std::size_t nb = backends.size();
    for (KernelCase &kc : cases) {
        // secs[b][round]: one sample per backend per round, the
        // starting backend rotating with the round.
        std::vector<std::vector<double>> secs(
            nb, std::vector<double>(static_cast<std::size_t>(samples)));
        for (int round = 0; round < samples; ++round) {
            const auto r = static_cast<std::size_t>(round);
            for (std::size_t k = 0; k < nb; ++k) {
                const std::size_t b = (r + k) % nb;
                kc.reset();
                secs[b][r] = secondsOf([&] { kc.run(b); });
            }
        }

        std::printf("%-16s %10zu", kc.name, kc.rowsPerCall);
        json.beginObject(kc.name);
        json.field("rows_per_call", (double)kc.rowsPerCall);
        const double toNsPerRow = 1e9 / (double)kc.rowsPerCall;
        for (std::size_t b = 0; b < nb; ++b) {
            const std::string key(backends[b]->name());
            std::vector<double> samplesOfB = secs[b];
            const double med = median(samplesOfB) * toNsPerRow;
            const double best = samplesOfB.front() * toNsPerRow;
            std::printf(" %9.2f", best);
            json.field((key + "_ns_per_row").c_str(), best);
            json.field((key + "_ns_per_row_median").c_str(), med);
            if (backends[b]->width() == 1)
                continue;
            std::vector<double> ratios(secs[b].size());
            for (std::size_t r = 0; r < ratios.size(); ++r)
                ratios[r] = secs[0][r] / secs[b][r];
            const double speedup = median(ratios);
            std::printf(" %7.2fx", speedup);
            json.field((key + "_speedup").c_str(), speedup);
        }
        std::printf("\n");
        json.endObject();
    }
    json.endObject();

    const std::string out = !benchOutPath().empty()
                                ? benchOutPath()
                                : "BENCH_kernels.json";
    if (json.write(out.c_str()))
        std::printf("\nwrote %s\n", out.c_str());
    else
        std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 0;
}
