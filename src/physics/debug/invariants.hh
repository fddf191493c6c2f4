/**
 * @file
 * World-invariant checker: structural validation of simulation state.
 *
 * Physics pipelines fail subtly — a NaN velocity or a stale sleeping
 * island skews every per-phase figure the benchmarks report without
 * crashing anything. The checker walks the world after a step and
 * verifies the structural properties every phase relies on:
 *
 *  - all body positions / orientations / velocities / accumulators
 *    are finite,
 *  - narrowphase contacts reference valid, distinct geoms and no
 *    pair is emitted in both (A,B) and (B,A) orientations,
 *  - every narrowphase contact came from a broadphase pair
 *    (pair set is a superset of the contact set),
 *  - the island list is a true partition: every awake, enabled
 *    dynamic body appears in exactly one island,
 *  - sleeping bodies have zero velocity and no applied contact
 *    impulse (sleeping islands are skipped by the solver),
 *  - solved contact impulses respect the friction-cone bounds
 *    (normal lambda >= 0, |friction| <= mu * normal),
 *  - cloth particles are finite and no distance constraint is
 *    stretched beyond tolerance (a blown-up relaxation solve).
 *
 * With WorldConfig::invariantMode = HardFail, World::step() runs the
 * checker after every substep and, on any violation, dumps the
 * pre-step snapshot (see capture.hh) so the failure replays in one
 * step under a debugger.
 */

#ifndef PARALLAX_PHYSICS_DEBUG_INVARIANTS_HH
#define PARALLAX_PHYSICS_DEBUG_INVARIANTS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace parallax
{

class World;

/** One violated invariant: a stable code plus a readable message. */
struct InvariantViolation
{
    /** Stable identifier, e.g. "body-finite", "contact-symmetric". */
    std::string code;
    /** Human-readable description naming the offending entity. */
    std::string message;
    /**
     * Fault attribution for InvariantMode::Quarantine: the offending
     * body (quarantine its island) or cloth, when the violation can
     * be pinned to one. -1 means structural / not attributable —
     * those violations hard-fail even under Quarantine.
     */
    std::int64_t body = -1;
    std::int64_t cloth = -1;

    bool attributable() const { return body >= 0 || cloth >= 0; }
};

/** Tolerances used by the checker. */
struct InvariantOptions
{
    /** Friction-cone slack: |f| <= mu * n + slack * (1 + mu * n). */
    double frictionSlack = 1e-6;
    /** Cloth constraint length may deviate from rest by this factor
     *  (Jakobsen relaxation keeps edges near rest; a large multiple
     *  means the solve diverged). The gate is an explosion detector,
     *  not a trajectory pin: the scalar reference itself peaks at
     *  1.80x on the Deformable scene (capes dragged by running
     *  ragdolls), so tolerance-bounded backends (native SIMD sweeps
     *  relax in color-major order) need headroom over the reference's
     *  worst case. A diverged solve overshoots this by orders of
     *  magnitude or goes non-finite, which cloth-finite catches. */
    double clothStretchFactor = 3.0;
};

/**
 * Validate the world against every invariant and return the list of
 * violations (empty = healthy). Pure observer: never mutates state.
 */
std::vector<InvariantViolation>
checkWorldInvariants(const World &world,
                     const InvariantOptions &options =
                         InvariantOptions());

} // namespace parallax

#endif // PARALLAX_PHYSICS_DEBUG_INVARIANTS_HH
