/**
 * @file
 * Real-time step governor: deadline-aware graceful degradation.
 *
 * ParallAX is sized for a hard real-time budget — all physics must
 * finish inside a 33 ms display frame (3 substeps of dt = 0.01).
 * Without a governor the engine either makes the deadline or silently
 * blows it. The StepGovernor watches the wall-clock phase timers of
 * the previous substep (StepStats::phaseSeconds) and, when the
 * projected time exceeds the per-substep budget, walks a
 * deterministic degradation ladder:
 *
 *   level 0      full quality
 *   levels 1-3   reduce PGS solver iterations toward a floor
 *   levels 4-5   cap cloth relaxation iterations toward a floor
 *   level 6      defer narrowphase for slow-moving pairs every other
 *                substep (staleness bounded to one substep)
 *   level 7      throttle debris/blast spawning in the effects
 *                subsystem (pending triggers fire once unthrottled)
 *
 * Escalation is one rung per substep. Recovery has hysteresis: the
 * governor steps back down one rung only after `recoverySteps`
 * consecutive substeps measured below budget * (1 - hysteresis), so
 * quality is restored when headroom genuinely returns instead of
 * oscillating around the deadline. Every decision is recorded in
 * StepStats::governor.
 *
 * Decisions key off the *measured* phase seconds stored in StepStats,
 * which WorldConfig::mockPhaseTime can replace with an injected
 * schedule — under a mocked clock the ladder walk is bitwise
 * reproducible, which is how the determinism tests pin it down.
 */

#ifndef PARALLAX_PHYSICS_GOVERNOR_GOVERNOR_HH
#define PARALLAX_PHYSICS_GOVERNOR_GOVERNOR_HH

#include <cstdint>

namespace parallax
{

/**
 * Policy applied when the per-step invariant checker finds a
 * violation (see debug/invariants.hh).
 *
 *  - Off:        checker does not run.
 *  - Warn:       log the violations (and dump one snapshot per run)
 *                but keep stepping; World::invariantViolationCount()
 *                accumulates for harnesses to gate on.
 *  - Quarantine: freeze and isolate only the offending island (or
 *                cloth), restore it to its last good state, snapshot
 *                it for tools/replay_snapshot, and keep stepping the
 *                rest of the world. Violations that cannot be pinned
 *                to an island (structural corruption such as a broken
 *                island partition) still hard-fail.
 *  - HardFail:   dump the pre-step snapshot and abort the process.
 */
enum class InvariantMode : std::uint8_t
{
    Off,
    Warn,
    Quarantine,
    HardFail,
};

/** Human-readable invariant-mode name. */
const char *invariantModeName(InvariantMode mode);

/** Secondary tuning knobs of the step governor (the primary switch
 *  is WorldConfig::frameBudget; all of these have sane defaults). */
struct GovernorTuning
{
    /** Substeps per display frame: the per-substep budget is
     *  frameBudget / frameSubsteps (paper: 3 steps per frame). */
    int frameSubsteps = 3;
    /** PGS solver iterations never degrade below this floor. */
    int solverIterationFloor = 8;
    /** Cloth relaxation iterations never degrade below this floor. */
    int clothIterationFloor = 8;
    /** Recovery hysteresis: a substep counts as calm only when it
     *  measures below budget * (1 - hysteresis). */
    double hysteresis = 0.25;
    /** Consecutive calm substeps required per recovery rung. */
    int recoverySteps = 5;
    /** Narrowphase deferral (ladder level 6) only skips pairs whose
     *  bodies all move slower than this (m/s and rad/s). */
    double deferVelocity = 0.5;
};

/**
 * The governor's per-step decisions plus cumulative counters,
 * published as StepStats::governor after every step.
 */
struct GovernorStats
{
    /** frameBudget > 0: the governor is making decisions. */
    bool active = false;
    /** Current degradation rung (0 = full quality). */
    int ladderLevel = 0;
    /** Effective PGS iterations used this step. */
    int solverIterations = 0;
    /** Effective cloth relaxation iterations used this step. */
    int clothIterations = 0;
    /** Ladder level 6 reached: calm pairs skipped every other step. */
    bool narrowphaseDeferral = false;
    /** Ladder level 7 reached: effects spawning suppressed. */
    bool effectsThrottled = false;
    /** Broadphase pairs whose narrowphase was deferred this step. */
    std::uint64_t pairsDeferred = 0;
    /** The projection that drove this step's plan exceeded budget. */
    bool overBudget = false;
    /** Per-substep budget (frameBudget / frameSubsteps), seconds. */
    double budgetSeconds = 0.0;
    /** Projection used for this step's plan (last measured step). */
    double projectedSeconds = 0.0;
    /** Cumulative rung-up decisions. */
    std::uint64_t degradations = 0;
    /** Cumulative rung-down decisions (quality restored). */
    std::uint64_t recoveries = 0;
    /** Cumulative substeps measured over budget. */
    std::uint64_t deadlineMisses = 0;
    /** Cumulative misses while already at the ladder floor — the
     *  machine is too slow even at minimum quality. */
    std::uint64_t deadlineMissesAtFloor = 0;
};

/** Deadline-aware degradation ladder with hysteresis. */
class StepGovernor
{
  public:
    /** The quality settings World::step() applies for one substep. */
    struct Plan
    {
        int level = 0;
        int solverIterations = 0;
        int clothIterations = 0;
        bool deferNarrowphase = false;
        bool throttleEffects = false;
    };

    static constexpr int maxLadderLevel = 7;

    /**
     * @param frameBudget Seconds per display frame (0 disables).
     * @param tuning Floors, hysteresis and deferral knobs.
     * @param solverIterations Configured full-quality PGS sweeps.
     * @param clothIterations Configured full-quality cloth sweeps.
     */
    StepGovernor(double frameBudget, const GovernorTuning &tuning,
                 int solverIterations, int clothIterations);

    bool enabled() const { return budget_ > 0.0; }

    /** Per-substep wall-clock budget in seconds (0 = disabled). */
    double substepBudget() const { return budget_; }

    int solverIterationFloor() const { return solverFloor_; }
    int clothIterationFloor() const { return clothFloor_; }

    /**
     * Decide this substep's quality from the previous substep's
     * measured wall-clock total. Walks the ladder one rung at most.
     * With the governor disabled, returns the configured
     * full-quality plan unconditionally.
     */
    Plan planStep(double lastMeasuredSeconds);

    /** Record the finished substep's measured time and deferral
     *  count (deadline-miss accounting). */
    void finishStep(double measuredSeconds,
                    std::uint64_t pairsDeferred);

    /** Decisions and counters as of the most recent step. */
    const GovernorStats &stats() const { return stats_; }

    /** The plan the ladder produces at a given rung (pure). */
    Plan planForLevel(int level) const;

  private:
    double budget_ = 0.0;
    GovernorTuning tuning_;
    int fullSolver_;
    int fullCloth_;
    int solverFloor_;
    int clothFloor_;

    int level_ = 0;
    int calmStreak_ = 0;
    GovernorStats stats_;
};

} // namespace parallax

#endif // PARALLAX_PHYSICS_GOVERNOR_GOVERNOR_HH
