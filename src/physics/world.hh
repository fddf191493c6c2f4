/**
 * @file
 * The simulation world: the five-phase physics pipeline of Figure 1.
 *
 * World owns all bodies, geoms, shapes, joints and cloths, and steps
 * them through Broadphase -> Narrowphase -> Island Creation ->
 * Island Processing -> Cloth. Per-phase statistics feed the workload
 * characterization and the architecture timing models.
 */

#ifndef PARALLAX_PHYSICS_WORLD_HH
#define PARALLAX_PHYSICS_WORLD_HH

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "physics/broadphase/broadphase.hh"
#include "physics/cloth/cloth.hh"
#include "physics/debug/invariants.hh"
#include "physics/effects/effects.hh"
#include "physics/governor/fault_injection.hh"
#include "physics/governor/governor.hh"
#include "physics/island/island.hh"
#include "physics/joints/articulated_joints.hh"
#include "physics/joints/contact_constraint.hh"
#include "physics/narrowphase/collide.hh"
#include "physics/parallel/task_scheduler.hh"
#include "physics/raycast.hh"
#include "physics/shapes/primitives.hh"
#include "physics/shapes/static_shapes.hh"
#include "physics/solver/pgs_solver.hh"
#include "physics/trace/trace.hh"
#include "parallax/status.hh"

namespace parallax
{

/** Pipeline phases of one step, in execution order (Figure 1). */
enum class PipelinePhase
{
    Broadphase,
    Narrowphase,
    IslandCreation,
    IslandProcessing,
    Cloth,
};

constexpr int numPipelinePhases = 5;

/** Human-readable pipeline phase name. */
const char *pipelinePhaseName(PipelinePhase phase);

/** Tunable world parameters (paper values as defaults). */
struct WorldConfig
{
    Vec3 gravity{0.0, -9.81, 0.0};
    /** Simulation time step (paper: 0.01 s, 3 steps per frame). */
    Real dt = 0.01;
    /** Constraint solver relaxation sweeps (paper: 20). */
    int solverIterations = 20;
    /** Cloth constraint relaxation sweeps per step (collision is
     *  interleaved with every sweep, Jakobsen-style; the paper uses
     *  20 relaxation iterations for its constraint solvers). */
    int clothIterations = 20;
    /** Persistent worker threads (0 = single-threaded). Every phase
     *  runs the same chunks at any count; 0 runs them inline. */
    unsigned workerThreads = 0;
    /** Ignored: nothing reads it (chunk boundaries depend on no
     *  mode). It remains only so existing assignments compile; not
     *  serialized in snapshots. */
    bool deterministic = false;
    /** Kernel backend for the SoA hot loops (PGS relaxation, cloth
     *  integrate/relax; the narrowphase is the same scalar code
     *  under both). Scalar is the bitwise reference; Native
     *  vectorizes with SIMD when the host supports it (silently
     *  degrading to Scalar otherwise). Under Native an island made
     *  only of contacts runs the fused fp32 contact sweep and cloth
     *  relaxes in color order; everything else matches Scalar bit
     *  for bit, so Native is tolerance-bounded, not bitwise, against
     *  Scalar only where a scene has all-contact islands or cloth. The
     *  world reads only this field (tools map --simd and PAX_SIMD
     *  onto it). Not serialized in snapshots. */
    SimdBackend simdBackend = SimdBackend::Scalar;
    ContactMaterial defaultMaterial;
    Real erp = 0.2;
    Real cfm = 1e-9;

    /**
     * Auto-disable (ODE-style sleeping): islands whose bodies stay
     * below the velocity thresholds for `sleepSteps` consecutive
     * steps stop being solved and integrated until disturbed.
     */
    /** Thresholds sit just above the Baumgarte resting jitter
     *  (~g*dt) so settled structures qualify. */
    bool autoDisable = false;
    Real sleepLinearVelocity = 0.12;
    Real sleepAngularVelocity = 0.18;
    int sleepSteps = 10;

    /**
     * Real-time governor (governor/governor.hh): wall-clock seconds
     * of physics budget per display frame. When > 0, every substep
     * gets frameBudget / governor.frameSubsteps seconds and the
     * world walks a deterministic degradation ladder on projected
     * overruns, restoring quality with hysteresis when headroom
     * returns. 0 (the default) disables the governor entirely — the
     * step path is byte-for-byte the ungoverned one.
     */
    double frameBudget = 0.0;
    /** Governor floors, hysteresis and deferral knobs. */
    GovernorTuning governor;

    /**
     * Test hook: when set, the measured wall-clock phase seconds in
     * StepStats are replaced by this function's value for each
     * (step, phase), making governor decisions a pure function of
     * the injected schedule — two runs take identical ladder walks.
     */
    std::function<double(std::uint64_t step, PipelinePhase phase)>
        mockPhaseTime;

    /**
     * Invariant-check policy (governor/governor.hh): run the
     * world-invariant checker (debug/invariants.hh) after every step
     * and warn, quarantine, or hard-fail on a violation. HardFail
     * writes the pre-step snapshot to `snapshotDir` so
     * `tools/replay_snapshot` reproduces the failure in a single
     * step, then exits with a fatal error naming the invariant.
     */
    InvariantMode invariantMode = InvariantMode::Off;

    /**
     * Quarantine lifecycle (invariantMode == Quarantine): steps a
     * frozen island waits before thaw-and-retry (0 = quarantine is
     * permanent), retries per body before it sticks, the dt scale a
     * thawed island runs at while on probation, and the probation
     * length in steps.
     */
    int quarantineThawSteps = 0;
    int quarantineMaxRetries = 1;
    double quarantineRetryDtScale = 0.25;
    int quarantineProbationSteps = 30;

    /** Scripted fault injection (governor/fault_injection.hh);
     *  empty (the default) injects nothing. */
    FaultPlan faultPlan;

    /**
     * Per-phase tracing (physics/trace/): record scoped spans for
     * every pipeline phase, island solve, cloth step and narrowphase
     * chunk, plus counter tracks and containment markers, exportable
     * as Chrome trace JSON via World::writeTrace(). Off (the
     * default) costs a single predictable branch per would-be event
     * and leaves the trajectory bitwise identical.
     */
    bool tracing = false;

    /** Directory invariant-violation snapshots are written to. */
    std::string snapshotDir = ".";
    /** Scene provenance recorded in snapshots so replay tools can
     *  rebuild the structure (set by buildBenchmark; empty for
     *  hand-built scenes). */
    std::string sceneTag;

    /**
     * Check every field and return one human-readable message per
     * problem (empty = valid). World's constructor refuses invalid
     * configs instead of silently clamping them.
     */
    std::vector<std::string> validate() const;
};

/** Interpolated pose of one body, for render sampling. */
struct RenderPose
{
    Vec3 position;
    Quat orientation;
};

/**
 * A render-facing sample of the world: body poses and cloth particle
 * positions at one instant. Captured with World::renderState() after
 * each fixed tick; two consecutive samples are blended with
 * World::interpolate() so displays running at an arbitrary refresh
 * rate never see the tick quantum (the fixed-tick / interpolate
 * pattern the server's Session API is built on).
 */
struct RenderState
{
    double time = 0.0;
    std::vector<RenderPose> bodies;
    std::vector<std::vector<Vec3>> cloths;
};

/** Compact description of one island from the last step. */
struct IslandSummary
{
    int bodies = 0;
    int joints = 0;
    int rows = 0;
};

/** Everything observable about the most recent step. */
struct StepStats
{
    BroadphaseStats broadphase;
    NarrowphaseStats narrowphase;
    IslandStats island;
    SolverStats solver;
    ClothStats cloth;
    EffectsStats effects;

    std::uint64_t pairsFound = 0;
    std::uint64_t contactsCreated = 0;
    std::uint64_t contactJointsCreated = 0;
    std::uint64_t jointsBroken = 0;
    std::uint64_t clothColliderInsertions = 0;
    std::uint64_t islandsAsleep = 0;
    std::uint64_t bodiesAsleep = 0;

    /** Scheduler chunks executed / ranges stolen during this step. */
    std::uint64_t parTasksExecuted = 0;
    std::uint64_t parTasksStolen = 0;

    /** Narrowphase contact slots (one per chunk after the first)
     *  created or re-reserved during this step (0 once warm). */
    std::uint64_t arenaGrowths = 0;

    /** Per-lane scheduler counters for this step alone (deltas of
     *  the cumulative lane counters, merged on the main thread after
     *  the phase barriers so reading them never races a worker). */
    std::vector<LaneStats> laneTasks;

    /** Host wall-clock seconds spent in each pipeline phase (or the
     *  injected schedule when WorldConfig::mockPhaseTime is set). */
    std::array<double, numPipelinePhases> phaseSeconds{};

    /** Governor decisions for this step (active == false whenever
     *  WorldConfig::frameBudget is unset). */
    GovernorStats governor;
    /** Scripted faults fired this step (WorldConfig::faultPlan). */
    std::uint64_t faultsInjected = 0;
    /** Islands/cloths newly quarantined by this step's violations. */
    std::uint64_t quarantineEvents = 0;

    std::vector<IslandSummary> islands;
    std::vector<int> clothVertexCounts;

    double seconds(PipelinePhase p) const
    { return phaseSeconds[static_cast<int>(p)]; }

    /** Wall-clock sum across all five phases. */
    double totalSeconds() const;

    void reset();
};

/** The physics simulation world. */
class World
{
  public:
    explicit World(WorldConfig config = WorldConfig());
    ~World();

    World(const World &) = delete;
    World &operator=(const World &) = delete;

    // --- Shape factories (shapes are owned by the world). ---
    const SphereShape *addSphere(Real radius);
    const BoxShape *addBox(const Vec3 &half_extents);
    const CapsuleShape *addCapsule(Real radius, Real half_height);
    const PlaneShape *addPlane(const Vec3 &normal, Real offset);
    const HeightfieldShape *addHeightfield(std::vector<Real> heights,
                                           int nx, int nz,
                                           Real spacing);
    const TriMeshShape *
    addTriMesh(std::vector<Vec3> vertices,
               std::vector<TriMeshShape::Triangle> triangles);

    // --- Body / geom factories. ---
    /** Create a dynamic body with explicit mass properties. */
    RigidBody *createBody(const Transform &pose, Real mass,
                          const Mat3 &inertia);

    /** Create a dynamic body whose mass comes from shape * density. */
    RigidBody *createDynamicBody(const Transform &pose,
                                 const Shape &shape, Real density);

    /** Create an immovable body. */
    RigidBody *createStaticBody(const Transform &pose);

    Geom *createGeom(const Shape *shape, RigidBody *body,
                     const Transform &local = Transform());

    // --- Joint factories. ---
    BallJoint *createBallJoint(RigidBody *a, RigidBody *b,
                               const Vec3 &anchor);
    HingeJoint *createHingeJoint(RigidBody *a, RigidBody *b,
                                 const Vec3 &anchor, const Vec3 &axis);
    SliderJoint *createSliderJoint(RigidBody *a, RigidBody *b,
                                   const Vec3 &axis);
    FixedJoint *createFixedJoint(RigidBody *a, RigidBody *b);

    // --- Cloth. ---
    Cloth *createCloth(int nx, int ny, const Vec3 &origin,
                       Real spacing, Real mass);

    /** Pin a cloth particle to a world point on a body. */
    void attachClothParticle(Cloth *cloth, std::uint32_t particle,
                             RigidBody *body, const Vec3 &local_point);

    EffectsManager &effects() { return effects_; }
    const EffectsManager &effects() const { return effects_; }

    /**
     * Cast a ray against every enabled, non-blast geom and return
     * the nearest hit (with its geom id), if any.
     */
    std::optional<RayHit> raycast(const Ray &ray,
                                  Real max_t = 1e9) const;

    // --- Stepping. ---
    /** Advance one dt step through all five phases. */
    void step();

    /** Advance one display frame (paper: 3 steps per frame). */
    void stepFrame(int substeps = 3);

    // --- Render sampling (fixed tick + interpolation). ---

    /** Sample current body poses and cloth particles for rendering. */
    RenderState renderState() const;

    /**
     * Blend two render samples: position lerp plus shortest-path
     * normalized quaternion lerp, with `phase` clamped to [0, 1].
     * phase == 0 returns `a` bitwise and phase == 1 returns `b`
     * bitwise, so a display synchronized to the tick boundary sees
     * exactly the simulated state. `a` and `b` must come from the
     * same world (same body/cloth structure).
     */
    static RenderState interpolate(const RenderState &a,
                                   const RenderState &b, double phase);

    // --- Introspection. ---
    RigidBody *body(BodyId id);
    const RigidBody *body(BodyId id) const;
    Geom *geom(GeomId id);
    const Geom *geom(GeomId id) const;
    Joint *joint(JointId id);

    std::size_t bodyCount() const { return bodies_.size(); }
    std::size_t geomCount() const { return geoms_.size(); }
    std::size_t jointCount() const { return joints_.size(); }
    std::size_t clothCount() const { return cloths_.size(); }

    const std::vector<std::unique_ptr<Shape>> &shapes() const
    { return shapes_; }
    const std::vector<std::unique_ptr<RigidBody>> &bodies() const
    { return bodies_; }
    const std::vector<std::unique_ptr<Geom>> &geoms() const
    { return geoms_; }
    const std::vector<std::unique_ptr<Joint>> &joints() const
    { return joints_; }
    const std::vector<std::unique_ptr<Cloth>> &cloths() const
    { return cloths_; }

    const StepStats &lastStepStats() const { return stepStats_; }
    const std::vector<GeomPair> &lastPairs() const { return lastPairs_; }
    const std::vector<Contact> &lastContacts() const
    { return lastContacts_; }
    const std::vector<IslandSummary> &lastIslands() const
    { return stepStats_.islands; }

    /** Full island partition from the last step (for the invariant
     *  checker; summaries above suffice for stats consumers). */
    const std::vector<Island> &lastIslandPartition() const
    { return lastIslandList_; }

    /** The last step's contact pool: its contacts in ascending
     *  geom-pair key order, with the impulses the solver stored. */
    const std::vector<ContactConstraint> &lastContactConstraints() const
    { return contactConstraints_; }

    Real time() const { return time_; }
    const WorldConfig &config() const { return config_; }

    /** The work-stealing scheduler driving the parallel phases. */
    const TaskScheduler &scheduler() const { return scheduler_; }

    // --- Observability (physics/trace/; see docs/OBSERVABILITY.md).

    /** The trace collector (inert unless WorldConfig::tracing). */
    const TraceCollector &trace() const { return trace_; }

    /**
     * Write everything traced so far as Chrome trace-event JSON
     * (loadable in chrome://tracing or Perfetto). Returns "" on
     * success, a readable error otherwise (including when tracing
     * was never enabled).
     */
    std::string writeTrace(const std::string &path) const;

    /** The kernel backend this world resolved at construction:
     *  config.simdBackend after the CPU-capability degrade (Native
     *  on an unsupported host runs Scalar). */
    const KernelBackend &kernelBackend() const { return *kernelBackend_; }

    /**
     * The stable per-step metrics line: one single-line JSON object
     * describing the step that just completed. Key order is fixed,
     * and every field is a pure function of simulation state — no
     * wall-clock times, no lane counters — so the line is identical
     * for any worker count.
     */
    std::string metricsLine() const;

    /**
     * Prefix every metricsLine() key with "<scope>." — the server
     * sets "world.<id>" on each session so multi-world metric
     * streams stay distinguishable. Empty (the default) emits the
     * exact single-world key set, byte-identical to prior releases.
     */
    void setMetricsScope(std::string scope)
    { metricsScope_ = std::move(scope); }

    const std::string &metricsScope() const { return metricsScope_; }

    // --- Debug: capture/replay + invariants (physics/debug/). ---

    /**
     * Serialize all mutable simulation state (bodies, joints, cloth,
     * warm-start cache, effects, time) to a versioned, checksummed
     * snapshot. Defined in debug/capture.cc.
     */
    std::vector<std::uint8_t> captureState() const;

    /**
     * Restore a snapshot taken from a structurally identical world
     * (same scene build; blast volumes spawned mid-run are recreated
     * on a fresh build, and blast volumes this world spawned after
     * the capture are removed). Truncated or corrupted snapshots
     * fail with DATA_LOSS and mismatched scenes with
     * FAILED_PRECONDITION — never a crash.
     */
    Status restoreState(const std::vector<std::uint8_t> &bytes);

    /** Run the invariant checker (debug/invariants.hh) now. */
    std::vector<InvariantViolation> validateInvariants() const;

    /**
     * Live governor decisions and counters. Unlike
     * StepStats::governor (a copy taken at the end of each step),
     * this reflects the plan already applied to the step currently
     * in flight, which is what a mockPhaseTime cost model needs to
     * close the control loop.
     */
    const GovernorStats &governorStats() const
    { return governor_.stats(); }

    /**
     * Externally imposed degradation floor: every step runs at least
     * at this ladder rung (governor/governor.hh), whether or not the
     * world's own governor is enabled. The server's shedder and
     * recovery ladder use this to demote a session's quality instead
     * of dropping its ticks. 0 (the default) changes nothing — the
     * step path is byte-for-byte the unfloored one. Clamped to
     * [0, StepGovernor::maxLadderLevel]. Runtime containment state:
     * not serialized in snapshots, survives restoreState().
     */
    void setDegradationFloor(int rung);
    int degradationFloor() const { return degradationFloor_; }

    /** Bodies currently frozen by a quarantine that will never thaw
     *  (retries exhausted or thawing disabled) — the server
     *  watchdog's permanently-sick classification. */
    std::size_t permanentQuarantineCount() const;

    /**
     * Hosted-world mode: a HardFail invariant violation (or a
     * non-attributable violation under Quarantine) records a sticky
     * failure code instead of aborting the process, so a supervisor
     * can classify the world and roll it back. Off by default — the
     * solo-world PR 2 semantics (snapshot dump + fatal) are
     * unchanged.
     */
    void setDeferInvariantHardFail(bool defer)
    { deferHardFail_ = defer; }

    /** First deferred hard-fail code, or "" when healthy. Cleared by
     *  restoreState() — a rollback rehabilitates the world. */
    const std::string &invariantHardFailure() const
    { return hardFailCode_; }

    /** Record an externally driven containment event (e.g. a server
     *  rollback) as a trace instant marker on this world's timeline.
     *  No-op unless tracing is enabled. */
    void markRecoveryEvent(const char *name,
                           std::int64_t detail = 0);

    /** Total invariant violations observed so far (accumulates under
     *  Warn and Quarantine; HardFail never returns to accumulate). */
    std::uint64_t invariantViolationCount() const
    { return invariantViolations_; }

    /** Cumulative quarantine freeze events (islands + cloths). */
    std::uint64_t quarantineEventCount() const
    { return quarantineEvents_; }

    /** Bodies currently frozen by quarantine. */
    std::size_t activeQuarantines() const
    { return quarantinedBodies_.size(); }

    /** One quarantine freeze, for tools and post-mortems. */
    struct QuarantineRecord
    {
        std::uint64_t step = 0;
        std::int64_t body = -1;
        std::int64_t cloth = -1;
        std::string code;
        bool permanent = false;
    };

    const std::vector<QuarantineRecord> &quarantineRecords() const
    { return quarantineRecords_; }

    /** Number of completed step() calls. */
    std::uint64_t stepCount() const { return stepCount_; }

  private:
    struct ClothAttachment
    {
        Cloth *cloth;
        std::uint32_t particle;
        RigidBody *body;
        Vec3 localPoint;
    };

    void rememberConnected(const RigidBody *a, const RigidBody *b);
    bool connectedByJoint(const RigidBody *a,
                          const RigidBody *b) const;

    void phaseBroadphase();
    void phaseNarrowphase();
    void phaseIslandCreation();
    void phaseIslandProcessing();
    void phaseCloth();

    /** Counter tracks + per-lane scheduler deltas for this step
     *  (only called when tracing is enabled). */
    void recordStepTraceCounters();

    WorldConfig config_;
    std::vector<std::unique_ptr<Shape>> shapes_;
    std::vector<std::unique_ptr<RigidBody>> bodies_;
    std::vector<RigidBody *> bodyPtrs_;
    std::vector<std::unique_ptr<Geom>> geoms_;
    std::vector<std::unique_ptr<Joint>> joints_;
    std::vector<std::unique_ptr<Cloth>> cloths_;
    std::vector<ClothAttachment> clothAttachments_;
    /** Body-id pairs connected by a permanent joint: contacts
     *  between them are suppressed (ODE's dAreConnected rule). */
    std::unordered_set<std::uint64_t> connectedPairs_;

    SweepAndPrune broadphase_;
    IslandBuilder islandBuilder_;
    /** Resolved kernel backend (config.simdBackend after the
     *  CPU-capability degrade), shared by the solver lanes and
     *  cloth. Never null after construction. */
    const KernelBackend *kernelBackend_ = nullptr;
    EffectsManager effects_;
    TaskScheduler scheduler_;
    TraceCollector trace_;

    // Per-step scratch state. Everything here persists across steps
    // so its capacity is paid once: after warm-up, the steady-state
    // step loop performs no heap allocations in these containers.
    std::vector<GeomPair> lastPairs_;
    std::vector<Contact> lastContacts_;
    /** This step's contacts, by value: the pool keeps its capacity
     *  across steps, and the island builder takes pointers into it
     *  only once it is full for the step. */
    std::vector<ContactConstraint> contactConstraints_;
    std::vector<Island> lastIslandList_;
    StepStats stepStats_;
    /** Geom pointer array handed to the broadphase each step. */
    std::vector<Geom *> geomPtrs_;
    /** Live permanent joints fed to the island builder. */
    std::vector<Joint *> liveJoints_;
    /** Awake islands in index order, and batch offsets into that
     *  list: batch b spans solveIslands_[islandBatchOffsets_[b] ..
     *  islandBatchOffsets_[b+1]). Small islands pack together until
     *  a batch carries at least the row target derived from the
     *  committed row cost. */
    std::vector<Island *> solveIslands_;
    std::vector<std::uint32_t> islandBatchOffsets_;
    /** Each batch's rows (an island counts at least one), and the
     *  order the batches are dealt in
     *  (TaskScheduler::dominantFirstOrder over those rows). */
    std::vector<std::uint32_t> islandBatchRows_;
    std::vector<std::uint32_t> islandBatchOrder_;
    /** Per-island flags for this step: on quarantine probation
     *  (reduced dt), and a permanent joint broke (no sleep). */
    std::vector<std::uint8_t> islandOnProbation_;
    std::vector<std::uint8_t> islandJointBroke_;
    /** One solver per lane for island processing; each owns a
     *  persistent workspace, reserved each step for the largest
     *  awake island, that stops allocating once warm. */
    std::vector<PgsSolver> laneSolvers_;
    /** Per-lane narrowphase instances (race-free stats counters). */
    std::vector<Narrowphase> npLocals_;
    /**
     * Narrowphase contact slots for chunks 1..n-1 (chunk 0 writes
     * lastContacts_ itself): chunkContacts_[c - 1] is chunk c's, each
     * reserved for grain × maxContactsPerPair contacts so a chunk
     * never reallocates its slot. Persistent across steps; the array
     * grows only when the pair count needs more chunks. Cache-line
     * aligned so adjacent chunks on different lanes never share a
     * line.
     */
    struct alignas(64) ChunkContacts
    {
        std::vector<Contact> contacts;
    };
    std::vector<ChunkContacts> chunkContacts_;
    /** One candidate cloth collider: an enabled, non-blast geom. */
    struct ClothCandidate
    {
        Aabb bounds;
        const Geom *geom;
        bool plane;
    };
    /** This step's candidate table (geom id order), cloth collider
     *  lists and per-cloth stats buffers. */
    std::vector<ClothCandidate> clothCandidates_;
    std::vector<std::vector<const Geom *>> clothColliders_;
    std::vector<ClothStats> clothLocalStats_;
    /** Per-cloth vertex counts and the order the cloths are dealt in
     *  (TaskScheduler::dominantFirstOrder over those counts). */
    std::vector<std::uint32_t> clothCosts_;
    std::vector<std::uint32_t> clothOrder_;
    /** Scheduler lane-counter snapshots bracketing each step. */
    std::vector<LaneStats> lanesBefore_;
    std::vector<LaneStats> lanesAfter_;
    std::uint64_t totalJointsBroken_ = 0;
    Real time_ = 0.0;
    std::uint64_t stepCount_ = 0;
    /** metricsLine() key prefix (see setMetricsScope). */
    std::string metricsScope_;

    /** Broken flag per permanent joint as of the end of the previous
     *  step, so a break is detected in the step it happens (freed
     *  bodies must not be put to sleep that same substep). */
    std::vector<bool> jointWasBroken_;

    /** Pre-step snapshot dumped when an invariant fails, so the
     *  failure replays in one step (only captured when the effective
     *  invariant mode is not Off). */
    std::vector<std::uint8_t> preStepSnapshot_;

    [[noreturn]] void
    failInvariants(const std::vector<InvariantViolation> &violations);

    /** Write preStepSnapshot_ to snapshotDir as
     *  <prefix><sceneTag>_step<N>.paxsnap (defined in capture.cc). */
    void dumpViolationSnapshot(const char *prefix);

    /** Remove the last `count` geoms, each a blast volume whose
     *  static anchor body and sphere shape are the matching tail
     *  entries (restoreState checks this first), and every cached
     *  pointer to them (defined in capture.cc). */
    void removeTailBlastSpawns(std::size_t count);

    // --- Governor / quarantine / fault injection (step() plumbing,
    // --- defined in world.cc). ---
    void handleViolations(
        const std::vector<InvariantViolation> &violations,
        InvariantMode mode);
    /** Record a sticky hard-fail code instead of aborting (hosted
     *  worlds; see setDeferInvariantHardFail). */
    void deferHardFailure(
        const std::vector<InvariantViolation> &violations);
    void quarantineBody(BodyId id, const std::string &code);
    void quarantineCloth(ClothId id, const std::string &code);
    void captureLastGood();
    void processQuarantineThaws();
    void injectScriptedFaults();
    void injectContactFaults();
    RigidBody *pickFaultBody(std::uint32_t target);

    /** Degradation ladder state (inert when frameBudget == 0). */
    StepGovernor governor_;
    /** Quality settings the governor picked for the current step. */
    StepGovernor::Plan plan_;
    /** Externally imposed minimum ladder rung (setDegradationFloor);
     *  0 = none. */
    int degradationFloor_ = 0;
    /** Deferred-hard-fail mode + first recorded failure code (see
     *  setDeferInvariantHardFail). */
    bool deferHardFail_ = false;
    std::string hardFailCode_;
    /** Measured (or mocked) total of the previous step: the
     *  projection the governor plans the next step from. */
    double lastStepSeconds_ = 0.0;
    /** Broadphase pairs the governor deferred this step (level 6). */
    std::uint64_t pairsDeferredThisStep_ = 0;

    std::uint64_t invariantViolations_ = 0;
    std::uint64_t quarantineEvents_ = 0;
    /** Warn mode dumps one snapshot per run, not one per step. */
    bool warnSnapshotWritten_ = false;

    /** Last known-good per-body state, captured at the top of every
     *  step under Quarantine: what a frozen island is restored to. */
    struct BodyBackup
    {
        Transform pose;
        Vec3 linVel;
        Vec3 angVel;
        bool enabled = true;
        bool asleep = false;
        int sleepCounter = 0;
    };
    std::vector<BodyBackup> lastGood_;
    std::vector<std::vector<Cloth::Particle>> lastGoodCloth_;

    struct QuarantineState
    {
        std::uint64_t frozenAtStep = 0;
        bool permanent = false;
    };
    std::unordered_map<BodyId, QuarantineState> quarantinedBodies_;
    /** Step until which a thawed body runs at reduced dt. */
    std::unordered_map<BodyId, std::uint64_t> probationUntil_;
    /** Thaws already spent per body (vs quarantineMaxRetries). */
    std::unordered_map<BodyId, int> retryCount_;
    std::vector<bool> clothQuarantined_;
    std::vector<QuarantineRecord> quarantineRecords_;

    /** Persisted contact impulses for warm starting, keyed by the
     *  geom pair; matched by contact position between steps. */
    struct CachedContact
    {
        Vec3 position;
        Vec3 normal;
        Real lambdas[3];
    };

    /**
     * Flat warm cache: one entry per cached contact, sorted by key,
     * each pair's entries in insertion order. It is rebuilt each step
     * by appending the contact pool in order, which is already in
     * ascending key order, so it needs no sort; lookups walk it with
     * a forward cursor. Restored caches must keep keys ascending
     * (restoreState rejects any other order).
     */
    struct WarmEntry
    {
        std::uint64_t key;
        CachedContact c;
    };
    std::vector<WarmEntry> warmCache_;
};

} // namespace parallax

#endif // PARALLAX_PHYSICS_WORLD_HH
