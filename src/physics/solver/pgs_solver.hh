/**
 * @file
 * Projected Gauss-Seidel island constraint solver.
 *
 * The forward simulation step (section 3.1): for each island the
 * solver computes the applied loads and the new velocities of each
 * object with an iterative relaxation method, trading accuracy for
 * efficiency through the iteration-count parameter. The benchmarks
 * use 20 iterations as recommended by the ODE user guide.
 *
 * Each row's independent inner iteration is the unit of fine-grain
 * parallelism the ParallAX FG cores exploit ("degrees of freedom
 * removed in the LCP solver", section 7).
 */

#ifndef PARALLAX_PHYSICS_SOLVER_PGS_SOLVER_HH
#define PARALLAX_PHYSICS_SOLVER_PGS_SOLVER_HH

#include <cstdint>
#include <vector>

#include "physics/island/island.hh"
#include "physics/joints/joint.hh"
#include "physics/kernels/kernel_backend.hh"

namespace parallax
{

/** Observability counters for island processing. */
struct SolverStats
{
    std::uint64_t islandsSolved = 0;
    std::uint64_t rowsBuilt = 0;
    std::uint64_t rowIterations = 0;
    std::uint64_t bodiesIntegrated = 0;
    /** Solves that had to grow a persistent workspace buffer. */
    std::uint64_t workspaceGrowths = 0;
    /** Solves fully served by already-reserved workspace capacity. */
    std::uint64_t workspaceReuses = 0;
    /** Vector-engine counters (zero under the Scalar backend). */
    KernelStats kernels;

    void
    reset()
    {
        *this = SolverStats();
    }

    /** Fold another instance's counters into this one. */
    void
    merge(const SolverStats &o)
    {
        islandsSolved += o.islandsSolved;
        rowsBuilt += o.rowsBuilt;
        rowIterations += o.rowIterations;
        bodiesIntegrated += o.bodiesIntegrated;
        workspaceGrowths += o.workspaceGrowths;
        workspaceReuses += o.workspaceReuses;
        kernels.merge(o.kernels);
    }
};

/** Iterative projected Gauss-Seidel LCP solver. */
class PgsSolver
{
  public:
    /**
     * @param iterations Relaxation sweeps per step (paper: 20).
     * @param sor Successive-over-relaxation factor.
     */
    explicit PgsSolver(int iterations = 20, Real sor = 1.0);

    /**
     * Solve one island: gather rows from the island's joints,
     * relax, apply the resulting impulses to body velocities, and
     * feed applied impulses back to the joints (for breakage).
     *
     * Body velocities must already include external forces
     * (integrateVelocities must have run). Position integration is
     * the caller's responsibility.
     */
    void solve(Island &island, const SolverParams &params);

    /**
     * Reserve the workspace for an island of `bodies` bodies,
     * `rows` constraint rows and `joints` joints, so a later solve()
     * of any island up to that size allocates nothing. A capacity
     * change counts as one workspaceGrowths event. A Native backend
     * also reserves its fused contact streams; Scalar has none.
     */
    void reserve(std::size_t bodies, std::size_t rows,
                 std::size_t joints);

    int iterations() const { return iterations_; }

    /** Adjust relaxation sweeps (the step governor walks this toward
     *  its floor under deadline pressure). */
    void setIterations(int iterations) { iterations_ = iterations; }

    /** Select the kernel backend the relaxation sweep runs on.
     *  nullptr (the default) means the scalar reference backend. */
    void setBackend(const KernelBackend *backend) { backend_ = backend; }

    const SolverStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

  private:
    /**
     * Persistent per-solver scratch, reused across islands and
     * substeps. Every vector is clear()ed (capacity kept) at the top
     * of solve(), so after the solver has seen its largest island the
     * hot path performs zero heap allocations. Row data lives in SoA
     * arrays (RowBuffer + the mLin/mAng/invDiag/body arrays below)
     * so the relaxation sweep streams each field linearly.
     */
    struct Workspace
    {
        // Island body working set, indexed by RigidBody::solverIndex.
        std::vector<Vec3> linVel, angVel;
        std::vector<Real> invMass;
        std::vector<Mat3> invInertia;

        // Constraint rows (SoA) and per-row precomputed state.
        RowBuffer rows;
        std::vector<Vec3> mLinA, mAngA, mLinB, mAngB;
        std::vector<Real> invDiag;
        std::vector<int> bodyA, bodyB;

        /** Row range each joint emitted, for impulse write-back. */
        struct JointSlice
        {
            Joint *joint;
            std::size_t begin;
            std::size_t count;
        };
        std::vector<JointSlice> slices;

        /** Capacity fingerprint for the reuse/growth counters. */
        std::size_t capacitySum() const;
    };

    int iterations_;
    Real sor_;
    SolverStats stats_;
    Workspace ws_;
    const KernelBackend *backend_ = nullptr;
    /** Native-backend scratch (the fused contact units). */
    PgsScratch scratch_;
};

} // namespace parallax

#endif // PARALLAX_PHYSICS_SOLVER_PGS_SOLVER_HH
