/**
 * @file
 * Pluggable kernel backend seam for the SoA hot kernels.
 *
 * The three hottest per-element loops in the engine — the PGS
 * relaxation sweep, cloth constraint relaxation + Verlet
 * integration, and batched sphere/sphere + sphere/box narrowphase —
 * run behind this interface. Two implementations exist:
 *
 *  - Scalar: a verbatim copy of the pre-seam loops. This is the
 *    bitwise-deterministic reference; `tools/state_hash` asserts its
 *    trajectories are identical to the pre-refactor engine on all
 *    benchmark scenes.
 *  - Native: SIMD via the simd_pack wrapper (AVX2 on x86-64, NEON
 *    on aarch64) with runtime CPU dispatch. Elementwise kernels are
 *    bitwise identical per element (no FMA, same IEEE op order);
 *    the relaxation kernels reorder rows through a conflict-free
 *    coloring, so Native trajectories are tolerance-bounded, not
 *    bitwise, against Scalar (DESIGN.md section 13).
 *
 * Backends are stateless singletons; all mutable state lives in
 * caller-owned scratch structs, so one backend instance is safely
 * shared across solver lanes.
 */

#ifndef PARALLAX_PHYSICS_KERNELS_KERNEL_BACKEND_HH
#define PARALLAX_PHYSICS_KERNELS_KERNEL_BACKEND_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "physics/math/quat.hh"
#include "physics/math/vec3.hh"

namespace parallax
{

/** Which kernel implementation a World runs. */
enum class SimdBackend
{
    /** Bitwise-deterministic reference kernels (the default). */
    Scalar,
    /** Vectorized kernels; falls back to Scalar when the host has
     *  neither AVX2 nor NEON. */
    Native,
};

/** Observability counters for the vector engine (merged into the
 *  per-phase stats and surfaced as the kernel.* metrics). */
struct KernelStats
{
    /** Elements processed in full-width SIMD packs (per sweep). */
    std::uint64_t rowsVectorized = 0;
    /** Elements processed by scalar tail/overflow loops (per sweep).
     *  The Scalar backend leaves both counters at zero. */
    std::uint64_t remainderRows = 0;
    /** Contact triplets solved by the fused fp32 fast path (per
     *  solve, not per iteration). Zero when the generic row path
     *  ran instead. */
    std::uint64_t contactUnits = 0;

    void
    reset()
    {
        *this = KernelStats();
    }

    void
    merge(const KernelStats &o)
    {
        rowsVectorized += o.rowsVectorized;
        remainderRows += o.remainderRows;
        contactUnits += o.contactUnits;
    }
};

/**
 * SoA view of one island's constraint rows plus its body working
 * set, as prepared by PgsSolver::solve. `linVel`/`angVel` carry
 * `bodies` + 1 entries: the extra slot is zero and is what body
 * index -1 (static/absent) remaps to in the gather streams, so the
 * vector path needs no per-lane body test on the gather side.
 */
struct PgsSweepCtx
{
    std::size_t rows = 0;
    const Vec3 *jLinA = nullptr, *jAngA = nullptr;
    const Vec3 *jLinB = nullptr, *jAngB = nullptr;
    const Vec3 *mLinA = nullptr, *mAngA = nullptr;
    const Vec3 *mLinB = nullptr, *mAngB = nullptr;
    const Real *rhs = nullptr, *cfm = nullptr, *invDiag = nullptr;
    const Real *mu = nullptr;
    Real *lo = nullptr, *hi = nullptr;   // Friction rows rewrite these.
    Real *lambda = nullptr;
    const int *normalRow = nullptr;      // -1 = not a friction row.
    const int *bodyA = nullptr, *bodyB = nullptr; // -1 = static/none.

    std::size_t bodies = 0;
    Vec3 *linVel = nullptr, *angVel = nullptr; // bodies + 1 entries.

    int iterations = 1;
    Real sor = 1.0;
};

/**
 * Scratch for the fused contact-triplet PGS fast path.
 *
 * A contact emits exactly three rows sharing one body pair — normal,
 * then two tangent friction rows bounded by the normal's lambda
 * (ContactJoint::buildRows). When EVERY row of an island follows
 * that pattern (pgsContactPatternMatches), the Native backends solve
 * per-contact units instead of per-row slots: one lane = one
 * contact, body velocities are gathered once and scattered once per
 * unit per iteration, and the friction rows' J·v terms are corrected
 * in-register through precomputed coupling scalars (c10/c20/c21 =
 * J_fric · M·J of the earlier rows of the same unit) instead of
 * re-reading memory. The unit streams are compressed using the
 * contact structure — jLinB = -jLinA, M·J_lin = jLinA * invMass,
 * friction rhs = 0, one cfm/mu per contact — and stored in fp32:
 * the contact path trades per-lane precision for twice the lane
 * width, which the tolerance-bounded Native contract explicitly
 * allows (DESIGN.md section 13). The Scalar backend never runs this
 * path and stays the bitwise double-precision reference.
 *
 * Units are colored greedily (no two units in a color share a
 * dynamic body) and every color region is padded to a whole number
 * of packs with inert dummy slots (zero Jacobians, velocities
 * gathered from the zeroed dummy body, scatters masked off), so the
 * vector loop has no remainder handling. Units past the 64-color
 * budget go to a scalar tail. The unit coloring is cached keyed on
 * the (bodyA, bodyB) topology and reused while only row values
 * change between solves.
 */
struct PgsContactScratch
{
    // Unit layout. order[slot] = unit index, or kPad for a padding
    // slot. [colorOffsets[c], colorOffsets[c+1]) is color c (padded);
    // [tailStart, tailStart + tailUnits) is the scalar overflow tail.
    static constexpr std::uint32_t kPad = 0xffffffffu;
    std::vector<std::uint32_t> order;
    std::vector<std::uint32_t> colorOffsets; // colors + 1, padded
    std::vector<std::uint32_t> colorCounts;  // real units per color
    std::size_t colors = 0;
    std::size_t units = 0;
    std::size_t tailStart = 0; // == colorOffsets[colors]
    std::size_t tailUnits = 0;

    // Per-unit gather/scatter indices into the fp32 velocity mirror
    // (3 * body, or 3 * bodies for the zeroed dummy slot).
    std::vector<std::int32_t> idxA3, idxB3;

    // fp32 row streams, slot-major. J[r][0..2] = jLinA (jLinB is its
    // negation), J[r][3..5] = jAngA, J[r][6..8] = jAngB. maA/maB =
    // M·J angular parts per row; the linear parts collapse to the
    // per-unit invMass scalars imA/imB.
    std::vector<float> J[3][9];
    std::vector<float> maA[3][3], maB[3][3];
    std::vector<float> imA, imB;
    std::vector<float> rhsN;        // normal rhs (friction rhs == 0)
    std::vector<float> cfmU;        // one cfm per contact
    std::vector<float> mu;          // friction coefficient
    std::vector<float> c10, c20, c21; // row coupling scalars
    std::vector<float> sid[3];      // sor * invDiag per row
    std::vector<float> lam[3];      // lambda per row (lives here
                                    // during the sweep)

    // fp32 mirror of the island body velocities (bodies + 1 slots;
    // the last is the zeroed dummy).
    std::vector<float> lvf, avf;

    // Topology cache: coloring is reused while the island's
    // (bodyA, bodyB) row streams are unchanged.
    std::vector<std::int32_t> topoA, topoB;
    std::size_t topoRows = 0;
    int topoWidth = 0;
    bool topoValid = false;

    // Coloring workspace.
    std::vector<std::uint64_t> bodyColorMask;
    std::vector<std::int32_t> colorOfUnit;
};

/**
 * Persistent per-solver scratch for the Native PGS sweep: the row
 * coloring plus color-major permuted copies of every row stream.
 * Rebuilt each solve (rows change every step), capacity is reused,
 * so the steady-state step stays allocation-free.
 */
struct PgsScratch
{
    /** Scratch for the fused contact fast path (used instead of the
     *  row streams below when the island is all contact triplets). */
    PgsContactScratch contact;
    // Coloring. order[slot] = original row; rows are laid out
    // color-major: [colorOffsets[c], colorOffsets[c+1]) is color c,
    // and [vecRows, rows) is the scalar overflow tail (rows that
    // exceeded the 64-color budget), kept in original relative order.
    std::vector<std::uint32_t> order;
    std::vector<std::uint32_t> slotOf;       // row -> slot
    std::vector<std::uint32_t> colorOffsets; // colors + 1 entries
    std::size_t colors = 0;
    std::size_t vecRows = 0;

    // Coloring workspace.
    std::vector<std::uint64_t> bodyColorMask; // per body
    std::vector<std::int32_t> colorOfRow;     // -1 = overflow

    // Permuted row streams (slot-major).
    std::vector<double> jlax, jlay, jlaz, jaax, jaay, jaaz;
    std::vector<double> jlbx, jlby, jlbz, jabx, jaby, jabz;
    std::vector<double> mlax, mlay, mlaz, maax, maay, maaz;
    std::vector<double> mlbx, mlby, mlbz, mabx, maby, mabz;
    std::vector<double> prhs, pcfm, pinvDiag, pmu;
    std::vector<double> plo, phi, plambda;
    std::vector<double> pfric;               // 1.0 = friction row
    std::vector<std::int32_t> bA, bB;        // body index, -1 = none
    std::vector<std::int32_t> idxA3, idxB3;  // gather index * 3
    std::vector<std::int32_t> fricSlot;      // slot of the normal row
};

/** SoA view of one cloth's particle streams (owned by Cloth). */
struct ClothParticlesView
{
    std::size_t count = 0;
    Real *px = nullptr, *py = nullptr, *pz = nullptr; // position
    Real *qx = nullptr, *qy = nullptr, *qz = nullptr; // previous
    const Real *w = nullptr;                          // invMass
};

/**
 * SoA view of a cloth's distance constraints: the original-order
 * streams (the Scalar backend's bitwise reference order) plus a
 * color-major permutation built once at cloth construction for the
 * Native backend. [vecCount, count) of the colored arrays is the
 * scalar overflow tail.
 */
struct ClothConstraintsView
{
    std::size_t count = 0;
    const std::int32_t *a = nullptr, *b = nullptr;
    const Real *rest = nullptr;
    const std::int32_t *ca = nullptr, *cb = nullptr;
    const Real *crest = nullptr;
    const std::uint32_t *colorOffsets = nullptr;
    std::size_t colors = 0;
    std::size_t vecCount = 0;
};

/** One color-major edge coloring (cloth constraints). */
struct EdgeColoring
{
    std::vector<std::uint32_t> order;        // slot -> original edge
    std::vector<std::uint32_t> colorOffsets; // colors + 1 entries
    std::size_t colors = 0;
    std::size_t vecCount = 0;                // colored prefix length
};

/**
 * Greedy conflict-free coloring of edges (a[i], b[i]) over `nodes`
 * endpoints: no two edges in one color share an endpoint. Edges
 * beyond the 64-color budget land in the overflow tail (original
 * relative order preserved). Stable within each color.
 */
void colorEdges(const std::int32_t *a, const std::int32_t *b,
                std::size_t count, std::size_t nodes,
                EdgeColoring &out);

/** Packed sphere/sphere candidate pairs (slot i = one pair). */
struct SphereSphereBatch
{
    // Inputs: centers + radii, in the narrowphase's canonical order.
    std::vector<double> ax, ay, az, ar;
    std::vector<double> bx, by, bz, br;
    // Outputs: contact point/normal/depth where hit[i] != 0.
    std::vector<double> px, py, pz, nx, ny, nz, depth;
    std::vector<std::uint8_t> hit;

    std::size_t size() const { return ax.size(); }

    void
    clear()
    {
        ax.clear(); ay.clear(); az.clear(); ar.clear();
        bx.clear(); by.clear(); bz.clear(); br.clear();
    }

    void
    push(const Vec3 &ca, Real ra, const Vec3 &cb, Real rb)
    {
        ax.push_back(ca.x); ay.push_back(ca.y); az.push_back(ca.z);
        ar.push_back(ra);
        bx.push_back(cb.x); by.push_back(cb.y); bz.push_back(cb.z);
        br.push_back(rb);
    }

    /** Size the output arrays to match the inputs. */
    void
    prepareOutputs()
    {
        const std::size_t n = size();
        px.resize(n); py.resize(n); pz.resize(n);
        nx.resize(n); ny.resize(n); nz.resize(n);
        depth.resize(n);
        hit.assign(n, 0);
    }
};

/**
 * Packed sphere/box candidate pairs. hit[i] is 0 (miss), 1 (contact
 * written), or 2 (sphere center essentially inside the box — the
 * branchy nearest-face case, left for the caller's scalar fallback).
 * The Scalar backend resolves the deep case inline and never
 * emits 2.
 */
struct SphereBoxBatch
{
    // Sphere center + radius; box rotation (quat), position, half
    // extents.
    std::vector<double> cx, cy, cz, cr;
    std::vector<double> qw, qx, qy, qz;
    std::vector<double> bx, by, bz;
    std::vector<double> hx, hy, hz;
    std::vector<double> px, py, pz, nx, ny, nz, depth;
    std::vector<std::uint8_t> hit;

    std::size_t size() const { return cx.size(); }

    void
    clear()
    {
        cx.clear(); cy.clear(); cz.clear(); cr.clear();
        qw.clear(); qx.clear(); qy.clear(); qz.clear();
        bx.clear(); by.clear(); bz.clear();
        hx.clear(); hy.clear(); hz.clear();
    }

    void
    push(const Vec3 &center, Real radius, const Quat &rot,
         const Vec3 &pos, const Vec3 &half)
    {
        cx.push_back(center.x); cy.push_back(center.y);
        cz.push_back(center.z); cr.push_back(radius);
        qw.push_back(rot.w); qx.push_back(rot.x);
        qy.push_back(rot.y); qz.push_back(rot.z);
        bx.push_back(pos.x); by.push_back(pos.y); bz.push_back(pos.z);
        hx.push_back(half.x); hy.push_back(half.y); hz.push_back(half.z);
    }

    void
    prepareOutputs()
    {
        const std::size_t n = size();
        px.resize(n); py.resize(n); pz.resize(n);
        nx.resize(n); ny.resize(n); nz.resize(n);
        depth.resize(n);
        hit.assign(n, 0);
    }
};

/** The backend seam. Implementations are stateless and const. */
class KernelBackend
{
  public:
    virtual ~KernelBackend() = default;

    virtual SimdBackend kind() const = 0;
    /** Implementation tag for logs/metrics: "scalar", "avx2x4", ... */
    virtual const char *name() const = 0;
    /** Pack width (1 for the scalar backend). */
    virtual int width() const = 0;

    /** Run all `ctx.iterations` PGS relaxation sweeps. */
    virtual void pgsSweep(const PgsSweepCtx &ctx, PgsScratch &scratch,
                          KernelStats &stats) const = 0;

    /** Verlet position integration over the particle streams. */
    virtual void clothIntegrate(const ClothParticlesView &p,
                                const Vec3 &accelTerm, Real damping,
                                KernelStats &stats) const = 0;

    /** One distance-constraint relaxation sweep. */
    virtual void clothRelax(const ClothParticlesView &p,
                            const ClothConstraintsView &c,
                            KernelStats &stats) const = 0;

    /** Batched sphere/sphere tests (outputs must be prepared). */
    virtual void sphereSphereBatch(SphereSphereBatch &b,
                                   KernelStats &stats) const = 0;

    /** Batched sphere/box tests (outputs must be prepared). */
    virtual void sphereBoxBatch(SphereBoxBatch &b,
                                KernelStats &stats) const = 0;
};

/** The bitwise-reference scalar backend (always available). */
const KernelBackend &scalarKernelBackend();

/** True when this build + host can run vectorized kernels. */
bool nativeSimdAvailable();

/**
 * The preferred vector backend for this host, or nullptr when
 * unavailable (build without AVX2/NEON TU, or CPU lacks AVX2).
 */
const KernelBackend *nativeKernelBackend();

/** Every vector backend this build + host can run, one per ISA
 *  (for bench/tests); empty when the host has none. */
std::vector<const KernelBackend *> nativeKernelBackends();

/** Resolve a config choice to a concrete backend. Native silently
 *  degrades to Scalar when unavailable (callers wanting a notice
 *  check nativeSimdAvailable() themselves). */
const KernelBackend &kernelBackendFor(SimdBackend kind);

/**
 * Apply the PAX_SIMD environment override ("scalar" or "native",
 * case-insensitive) used by tools and benches; returns `fallback`
 * when the variable is unset or unrecognized.
 */
SimdBackend simdBackendFromEnv(SimdBackend fallback);

/** Parse a --simd= style value; returns false if unrecognized. */
bool parseSimdBackend(const char *text, SimdBackend &out);

/** Build the coloring + permuted streams for a Native PGS sweep
 *  (exposed for tests; Native backends call it per solve). */
void buildPgsScratch(const PgsSweepCtx &ctx, PgsScratch &scratch);

/** Scalar relaxation of one permuted row slot (tail/overflow path
 *  of the Native sweep). */
void relaxPgsSlotScalar(const PgsSweepCtx &ctx, PgsScratch &sc,
                        std::size_t slot);

/** True when every row of the island is part of a contact triplet
 *  (normal + two friction rows sharing one body pair, friction
 *  rhs 0, shared cfm, jLinB the exact negation of jLinA) — the
 *  precondition for the fused contact fast path. */
bool pgsContactPatternMatches(const PgsSweepCtx &ctx);

/** Build the unit coloring (cached on topology) and the compressed
 *  fp32 unit streams for the contact fast path. `width` is the
 *  vector lane count; every color region is padded to a multiple of
 *  it. Exposed for tests. */
void buildPgsContactScratch(const PgsSweepCtx &ctx,
                            PgsContactScratch &sc, int width);

/** Convert the island body velocities into the scratch's fp32
 *  mirror (call once before the iteration loop). */
void pgsContactLoadVelocities(const PgsSweepCtx &ctx,
                              PgsContactScratch &sc);

/** Write the solved velocities, lambdas and final friction bounds
 *  back to the caller's double-precision arrays. */
void pgsContactStoreResults(const PgsSweepCtx &ctx,
                            PgsContactScratch &sc);

/** Scalar fp32 relaxation of one contact unit slot (overflow tail
 *  of the contact fast path). */
void relaxPgsContactUnitScalar(PgsContactScratch &sc,
                               std::size_t slot);

/** Scalar relaxation of one colored cloth constraint slot. */
void relaxClothSlotScalar(const ClothParticlesView &p,
                          const ClothConstraintsView &c,
                          std::size_t slot);

/** Scalar sphere/sphere test of one batch slot (exact collide.cc
 *  arithmetic). */
void sphereSphereSlotScalar(SphereSphereBatch &b, std::size_t i);

/** Scalar sphere/box test of one batch slot, deep case included. */
void sphereBoxSlotScalar(SphereBoxBatch &b, std::size_t i);

} // namespace parallax

#endif // PARALLAX_PHYSICS_KERNELS_KERNEL_BACKEND_HH
