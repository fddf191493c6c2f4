#include "world.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "sim/logging.hh"

namespace parallax
{

const char *
pipelinePhaseName(PipelinePhase phase)
{
    switch (phase) {
      case PipelinePhase::Broadphase: return "broadphase";
      case PipelinePhase::Narrowphase: return "narrowphase";
      case PipelinePhase::IslandCreation: return "island_creation";
      case PipelinePhase::IslandProcessing:
        return "island_processing";
      case PipelinePhase::Cloth: return "cloth";
    }
    return "unknown";
}

double
StepStats::totalSeconds() const
{
    double total = 0;
    for (double s : phaseSeconds)
        total += s;
    return total;
}

void
StepStats::reset()
{
    // Field-wise, not `*this = StepStats()`: the vectors must keep
    // their capacity so a steady-state step allocates nothing here.
    broadphase.reset();
    narrowphase.reset();
    island.reset();
    solver.reset();
    cloth.reset();
    effects.reset();
    pairsFound = 0;
    contactsCreated = 0;
    contactJointsCreated = 0;
    jointsBroken = 0;
    clothColliderInsertions = 0;
    islandsAsleep = 0;
    bodiesAsleep = 0;
    parTasksExecuted = 0;
    parTasksStolen = 0;
    arenaGrowths = 0;
    laneTasks.clear();
    phaseSeconds.fill(0.0);
    governor = GovernorStats();
    faultsInjected = 0;
    quarantineEvents = 0;
    islands.clear();
    clothVertexCounts.clear();
}

std::vector<std::string>
WorldConfig::validate() const
{
    std::vector<std::string> errors;
    auto check = [&errors](bool ok, std::string msg) {
        if (!ok)
            errors.push_back(std::move(msg));
    };
    check(std::isfinite(dt) && dt > 0,
          "dt must be positive and finite (got " +
              std::to_string(dt) + ")");
    check(solverIterations >= 1,
          "solverIterations must be >= 1 (got " +
              std::to_string(solverIterations) + ")");
    check(clothIterations >= 1,
          "clothIterations must be >= 1 (got " +
              std::to_string(clothIterations) + ")");
    check(workerThreads <= 1024,
          "workerThreads must be <= 1024 (got " +
              std::to_string(workerThreads) + ")");
    check(std::isfinite(erp) && erp >= 0 && erp <= 1,
          "erp must be in [0, 1] (got " + std::to_string(erp) + ")");
    check(std::isfinite(cfm) && cfm >= 0,
          "cfm must be >= 0 (got " + std::to_string(cfm) + ")");
    check(std::isfinite(gravity.x) && std::isfinite(gravity.y) &&
              std::isfinite(gravity.z),
          "gravity must be finite");
    // isfinite matters here: +inf passes a bare `>= 0` test and a
    // +inf threshold makes every island sleep on its first calm
    // step, silently freezing the scene.
    check(std::isfinite(sleepLinearVelocity) &&
              sleepLinearVelocity >= 0,
          "sleepLinearVelocity must be >= 0 and finite (got " +
              std::to_string(sleepLinearVelocity) + ")");
    check(std::isfinite(sleepAngularVelocity) &&
              sleepAngularVelocity >= 0,
          "sleepAngularVelocity must be >= 0 and finite (got " +
              std::to_string(sleepAngularVelocity) + ")");
    check(sleepSteps >= 1,
          "sleepSteps must be >= 1 (got " +
              std::to_string(sleepSteps) + ")");
    check(std::isfinite(frameBudget) && frameBudget >= 0,
          "frameBudget must be >= 0 and finite (got " +
              std::to_string(frameBudget) + ")");
    check(governor.frameSubsteps >= 1,
          "governor.frameSubsteps must be >= 1 (got " +
              std::to_string(governor.frameSubsteps) + ")");
    check(governor.solverIterationFloor >= 1,
          "governor.solverIterationFloor must be >= 1 (got " +
              std::to_string(governor.solverIterationFloor) + ")");
    check(governor.clothIterationFloor >= 1,
          "governor.clothIterationFloor must be >= 1 (got " +
              std::to_string(governor.clothIterationFloor) + ")");
    check(std::isfinite(governor.hysteresis) &&
              governor.hysteresis >= 0 && governor.hysteresis < 1,
          "governor.hysteresis must be in [0, 1) (got " +
              std::to_string(governor.hysteresis) + ")");
    check(governor.recoverySteps >= 1,
          "governor.recoverySteps must be >= 1 (got " +
              std::to_string(governor.recoverySteps) + ")");
    check(std::isfinite(governor.deferVelocity) &&
              governor.deferVelocity >= 0,
          "governor.deferVelocity must be >= 0 and finite (got " +
              std::to_string(governor.deferVelocity) + ")");
    check(quarantineThawSteps >= 0,
          "quarantineThawSteps must be >= 0 (got " +
              std::to_string(quarantineThawSteps) + ")");
    check(quarantineMaxRetries >= 0,
          "quarantineMaxRetries must be >= 0 (got " +
              std::to_string(quarantineMaxRetries) + ")");
    check(std::isfinite(quarantineRetryDtScale) &&
              quarantineRetryDtScale > 0 &&
              quarantineRetryDtScale <= 1,
          "quarantineRetryDtScale must be in (0, 1] (got " +
              std::to_string(quarantineRetryDtScale) + ")");
    check(quarantineProbationSteps >= 1,
          "quarantineProbationSteps must be >= 1 (got " +
              std::to_string(quarantineProbationSteps) + ")");
    for (const FaultEvent &e : faultPlan.events) {
        check(std::isfinite(e.magnitude),
              std::string("faultPlan magnitude must be finite (") +
                  faultKindName(e.kind) + " at step " +
                  std::to_string(e.step) + ")");
    }
    check(invariantMode == InvariantMode::Off || !snapshotDir.empty(),
          "snapshotDir must be non-empty when invariant checking "
          "is enabled");
    return errors;
}

namespace
{

// Committed per-item costs (ns) for the cost-model tiling: one
// narrowphase pair test, one body integration, one constraint-row
// relaxation (one row, one sweep; island batch row targets scale it
// by solver iterations), and one geom bounds update. The broadphase
// sweep's per-geom cost is SweepAndPrune::sweepNsPerGeom. Constants,
// so every chunk boundary is a pure function of item counts.
constexpr double narrowphaseNsPerPair = 800.0;
constexpr double integrateNsPerBody = 60.0;
constexpr double solverNsPerRowSweep = 60.0;
constexpr double boundsNsPerGeom = 40.0;

/** Warm-cache key of a contact: its geom pair, smaller id high. */
std::uint64_t
warmKey(const Contact &c)
{
    return (static_cast<std::uint64_t>(std::min(c.geomA, c.geomB))
            << 32) |
           std::max(c.geomA, c.geomB);
}

/** Reject invalid configs before any subsystem sees them. */
WorldConfig
validatedConfig(WorldConfig config)
{
    const std::vector<std::string> errors = config.validate();
    if (!errors.empty()) {
        std::string joined;
        for (const std::string &e : errors) {
            if (!joined.empty())
                joined += "; ";
            joined += e;
        }
        fatal("invalid WorldConfig: %s", joined.c_str());
    }
    return config;
}

} // namespace

World::World(WorldConfig config)
    : config_(validatedConfig(std::move(config))),
      scheduler_(SchedulerConfig{config_.workerThreads}),
      governor_(config_.frameBudget, config_.governor,
                config_.solverIterations, config_.clothIterations),
      plan_(governor_.planForLevel(0))
{
    // Resolve the kernel backend once from the config alone (the
    // environment never reaches a World): Native degrades to Scalar
    // on hosts without SIMD support.
    kernelBackend_ = &kernelBackendFor(config_.simdBackend);
    // One persistent solver and narrowphase per lane; their
    // workspaces warm up once and are reused every step after.
    laneSolvers_.reserve(scheduler_.laneCount());
    for (unsigned i = 0; i < scheduler_.laneCount(); ++i) {
        laneSolvers_.emplace_back(config_.solverIterations);
        laneSolvers_.back().setBackend(kernelBackend_);
    }
    npLocals_.resize(scheduler_.laneCount());
    trace_.configure(scheduler_.laneCount(), config_.tracing);
}

World::~World() = default;

const SphereShape *
World::addSphere(Real radius)
{
    shapes_.push_back(std::make_unique<SphereShape>(radius));
    return static_cast<const SphereShape *>(shapes_.back().get());
}

const BoxShape *
World::addBox(const Vec3 &half_extents)
{
    shapes_.push_back(std::make_unique<BoxShape>(half_extents));
    return static_cast<const BoxShape *>(shapes_.back().get());
}

const CapsuleShape *
World::addCapsule(Real radius, Real half_height)
{
    shapes_.push_back(
        std::make_unique<CapsuleShape>(radius, half_height));
    return static_cast<const CapsuleShape *>(shapes_.back().get());
}

const PlaneShape *
World::addPlane(const Vec3 &normal, Real offset)
{
    shapes_.push_back(std::make_unique<PlaneShape>(normal, offset));
    return static_cast<const PlaneShape *>(shapes_.back().get());
}

const HeightfieldShape *
World::addHeightfield(std::vector<Real> heights, int nx, int nz,
                      Real spacing)
{
    shapes_.push_back(std::make_unique<HeightfieldShape>(
        std::move(heights), nx, nz, spacing));
    return static_cast<const HeightfieldShape *>(shapes_.back().get());
}

const TriMeshShape *
World::addTriMesh(std::vector<Vec3> vertices,
                  std::vector<TriMeshShape::Triangle> triangles)
{
    shapes_.push_back(std::make_unique<TriMeshShape>(
        std::move(vertices), std::move(triangles)));
    return static_cast<const TriMeshShape *>(shapes_.back().get());
}

RigidBody *
World::createBody(const Transform &pose, Real mass, const Mat3 &inertia)
{
    const auto id = static_cast<BodyId>(bodies_.size());
    bodies_.push_back(
        std::make_unique<RigidBody>(id, pose, mass, inertia));
    bodyPtrs_.push_back(bodies_.back().get());
    return bodies_.back().get();
}

RigidBody *
World::createDynamicBody(const Transform &pose, const Shape &shape,
                         Real density)
{
    const Real volume = shape.volume();
    if (volume <= 0)
        fatal("cannot derive mass from an unbounded shape");
    const Real mass = density * volume;
    const Mat3 inertia = shape.unitInertia() * mass;
    return createBody(pose, mass, inertia);
}

RigidBody *
World::createStaticBody(const Transform &pose)
{
    const auto id = static_cast<BodyId>(bodies_.size());
    bodies_.push_back(std::make_unique<RigidBody>(
        RigidBody::makeStatic(id, pose)));
    bodyPtrs_.push_back(bodies_.back().get());
    return bodies_.back().get();
}

Geom *
World::createGeom(const Shape *shape, RigidBody *body,
                  const Transform &local)
{
    const auto id = static_cast<GeomId>(geoms_.size());
    geoms_.push_back(std::make_unique<Geom>(id, shape, body, local));
    return geoms_.back().get();
}

void
World::rememberConnected(const RigidBody *a, const RigidBody *b)
{
    if (a == nullptr || b == nullptr)
        return;
    const std::uint64_t lo = std::min(a->id(), b->id());
    const std::uint64_t hi = std::max(a->id(), b->id());
    connectedPairs_.insert((lo << 32) | hi);
}

bool
World::connectedByJoint(const RigidBody *a, const RigidBody *b) const
{
    if (a == nullptr || b == nullptr)
        return false;
    const std::uint64_t lo = std::min(a->id(), b->id());
    const std::uint64_t hi = std::max(a->id(), b->id());
    return connectedPairs_.count((lo << 32) | hi) != 0;
}

BallJoint *
World::createBallJoint(RigidBody *a, RigidBody *b, const Vec3 &anchor)
{
    const auto id = static_cast<JointId>(joints_.size());
    joints_.push_back(std::make_unique<BallJoint>(id, a, b, anchor));
    rememberConnected(a, b);
    return static_cast<BallJoint *>(joints_.back().get());
}

HingeJoint *
World::createHingeJoint(RigidBody *a, RigidBody *b, const Vec3 &anchor,
                        const Vec3 &axis)
{
    const auto id = static_cast<JointId>(joints_.size());
    joints_.push_back(
        std::make_unique<HingeJoint>(id, a, b, anchor, axis));
    rememberConnected(a, b);
    return static_cast<HingeJoint *>(joints_.back().get());
}

SliderJoint *
World::createSliderJoint(RigidBody *a, RigidBody *b, const Vec3 &axis)
{
    const auto id = static_cast<JointId>(joints_.size());
    joints_.push_back(std::make_unique<SliderJoint>(id, a, b, axis));
    rememberConnected(a, b);
    return static_cast<SliderJoint *>(joints_.back().get());
}

FixedJoint *
World::createFixedJoint(RigidBody *a, RigidBody *b)
{
    const auto id = static_cast<JointId>(joints_.size());
    joints_.push_back(std::make_unique<FixedJoint>(id, a, b));
    rememberConnected(a, b);
    return static_cast<FixedJoint *>(joints_.back().get());
}

Cloth *
World::createCloth(int nx, int ny, const Vec3 &origin, Real spacing,
                   Real mass)
{
    const auto id = static_cast<ClothId>(cloths_.size());
    cloths_.push_back(
        std::make_unique<Cloth>(id, nx, ny, origin, spacing, mass));
    return cloths_.back().get();
}

void
World::attachClothParticle(Cloth *cloth, std::uint32_t particle,
                           RigidBody *body, const Vec3 &local_point)
{
    parallax_assert(cloth != nullptr && body != nullptr);
    cloth->pin(particle);
    clothAttachments_.push_back(
        ClothAttachment{cloth, particle, body, local_point});
}

std::optional<RayHit>
World::raycast(const Ray &ray, Real max_t) const
{
    std::optional<RayHit> best;
    Real limit = max_t;
    for (const auto &g : geoms_) {
        if (!g->enabled() || g->isBlast())
            continue;
        const auto hit =
            raycastShape(g->shape(), g->worldPose(), ray, limit);
        if (hit && (!best || hit->t < best->t)) {
            best = hit;
            best->geom = g->id();
            limit = hit->t; // Narrow the search as we go.
        }
    }
    return best;
}

RigidBody *
World::body(BodyId id)
{
    return id < bodies_.size() ? bodies_[id].get() : nullptr;
}

const RigidBody *
World::body(BodyId id) const
{
    return id < bodies_.size() ? bodies_[id].get() : nullptr;
}

Geom *
World::geom(GeomId id)
{
    return id < geoms_.size() ? geoms_[id].get() : nullptr;
}

const Geom *
World::geom(GeomId id) const
{
    return id < geoms_.size() ? geoms_[id].get() : nullptr;
}

Joint *
World::joint(JointId id)
{
    return id < joints_.size() ? joints_[id].get() : nullptr;
}

void
World::step()
{
    const InvariantMode mode = config_.invariantMode;

    // Frozen islands whose thaw time arrived re-enter the world (on
    // probation) before anything else looks at them this step.
    processQuarantineThaws();

    // With invariant checking on, keep a pre-step snapshot so a
    // violation at the end of this step can be dumped and replayed
    // in exactly one step.
    if (mode != InvariantMode::Off)
        preStepSnapshot_ = captureState();
    // Under Quarantine, also keep a cheap last-good backup: the state
    // a faulting island is restored to when it is frozen (the frozen
    // pose must be sane, not the corrupted one that tripped the
    // checker).
    if (mode == InvariantMode::Quarantine)
        captureLastGood();

    // Plan this step's quality from the previous step's measured (or
    // mocked) total. One ladder rung at most, either direction. An
    // external degradation floor (server shedder / recovery ladder)
    // clamps the plan to at least its rung, governor or no governor.
    plan_ = governor_.planStep(lastStepSeconds_);
    if (degradationFloor_ > plan_.level)
        plan_ = governor_.planForLevel(degradationFloor_);
    effects_.setThrottled(plan_.throttleEffects);

    scheduler_.laneStats(lanesBefore_);

    stepStats_.reset();
    broadphase_.resetStats();
    for (Narrowphase &np : npLocals_)
        np.resetStats();
    islandBuilder_.resetStats();
    for (PgsSolver &s : laneSolvers_)
        s.resetStats();
    // Effects stats are cumulative across the run (blasts and
    // fractures are one-shot events, not per-step rates).
    pairsDeferredThisStep_ = 0;

    // Scripted body/scheduler faults fire after the backup above, so
    // quarantine restores pre-fault state.
    injectScriptedFaults();

    // 2(a): apply external forces (gravity).
    for (const auto &body : bodies_) {
        if (!body->isStatic() && body->enabled() && !body->asleep())
            body->applyForce(config_.gravity * body->mass());
    }

    const std::uint64_t tasks_before = scheduler_.tasksExecuted();
    const std::uint64_t steals_before = scheduler_.tasksStolen();
    using Clock = std::chrono::steady_clock;
    // One span per pipeline phase, bracketing exactly the interval
    // the phaseSeconds timer measures; the enclosing "step" span is
    // recorded at the end of step() below.
    const double step_begin_us =
        trace_.enabled() ? trace_.nowUs() : 0.0;
    auto timed = [this](PipelinePhase phase, auto &&fn) {
        const bool tracing = trace_.enabled();
        const double span_begin = tracing ? trace_.nowUs() : 0.0;
        const Clock::time_point t0 = Clock::now();
        fn();
        stepStats_.phaseSeconds[static_cast<int>(phase)] =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (tracing) {
            trace_.recordSpan(0, pipelinePhaseName(phase), stepCount_,
                              span_begin, trace_.nowUs());
        }
    };

    timed(PipelinePhase::Broadphase, [this] { phaseBroadphase(); });
    timed(PipelinePhase::Narrowphase, [this] { phaseNarrowphase(); });

    // Scripted contact corruption lands on the narrowphase output.
    injectContactFaults();

    // 2(c).ii-iv: explosion triggers, fracture triggers, blast ticks.
    effects_.onContacts(*this, lastContacts_);
    effects_.update(*this, config_.dt);

    timed(PipelinePhase::IslandCreation,
          [this] { phaseIslandCreation(); });
    timed(PipelinePhase::IslandProcessing,
          [this] { phaseIslandProcessing(); });
    timed(PipelinePhase::Cloth, [this] { phaseCloth(); });

    stepStats_.parTasksExecuted =
        scheduler_.tasksExecuted() - tasks_before;
    stepStats_.parTasksStolen =
        scheduler_.tasksStolen() - steals_before;
    // Per-lane deltas for this step, taken after the last phase
    // barrier (all workers are parked, so the reads race nothing).
    scheduler_.laneStats(lanesAfter_);
    stepStats_.laneTasks.resize(lanesAfter_.size());
    for (std::size_t i = 0; i < lanesAfter_.size(); ++i) {
        stepStats_.laneTasks[i].chunksExecuted =
            lanesAfter_[i].chunksExecuted -
            lanesBefore_[i].chunksExecuted;
        stepStats_.laneTasks[i].rangesStolen =
            lanesAfter_[i].rangesStolen - lanesBefore_[i].rangesStolen;
        stepStats_.laneTasks[i].itemsProcessed =
            lanesAfter_[i].itemsProcessed -
            lanesBefore_[i].itemsProcessed;
    }

    // Collect stats snapshots. The lane narrowphases and solvers
    // hold plain counters, so their merge order does not matter.
    stepStats_.broadphase = broadphase_.stats();
    for (const Narrowphase &np : npLocals_)
        stepStats_.narrowphase.merge(np.stats());
    stepStats_.island = islandBuilder_.stats();
    for (const PgsSolver &s : laneSolvers_)
        stepStats_.solver.merge(s.stats());
    stepStats_.effects = effects_.stats();

    // Mocked clock (governor determinism tests): the injected
    // schedule replaces the measured phase timers wholesale, so
    // every downstream consumer — the governor above all — sees a
    // reproducible timeline.
    if (config_.mockPhaseTime) {
        for (int p = 0; p < numPipelinePhases; ++p) {
            stepStats_.phaseSeconds[p] = config_.mockPhaseTime(
                stepCount_, static_cast<PipelinePhase>(p));
        }
    }
    lastStepSeconds_ = stepStats_.totalSeconds();
    governor_.finishStep(lastStepSeconds_, pairsDeferredThisStep_);
    stepStats_.governor = governor_.stats();
    // When an external floor overrode the governor's plan, publish
    // the quality actually applied, not the rung the governor's own
    // ladder sits at (its internal state is untouched).
    if (degradationFloor_ > stepStats_.governor.ladderLevel) {
        stepStats_.governor.ladderLevel = plan_.level;
        stepStats_.governor.solverIterations = plan_.solverIterations;
        stepStats_.governor.clothIterations = plan_.clothIterations;
        stepStats_.governor.narrowphaseDeferral =
            plan_.deferNarrowphase;
        stepStats_.governor.effectsThrottled = plan_.throttleEffects;
    }

    for (const auto &body : bodies_)
        body->clearAccumulators();
    time_ += config_.dt;

    if (mode != InvariantMode::Off) {
        const std::vector<InvariantViolation> violations =
            validateInvariants();
        if (!violations.empty())
            handleViolations(violations, mode);
    }

    if (trace_.enabled()) {
        recordStepTraceCounters();
        trace_.recordSpan(0, "step", stepCount_, step_begin_us,
                          trace_.nowUs());
    }
    ++stepCount_;
}

void
World::recordStepTraceCounters()
{
    const StepStats &s = stepStats_;
    trace_.recordCounter("pairs", stepCount_,
                         static_cast<double>(s.pairsFound));
    trace_.recordCounter("contacts", stepCount_,
                         static_cast<double>(s.contactsCreated));
    trace_.recordCounter("islands", stepCount_,
                         static_cast<double>(s.islands.size()));
    trace_.recordCounter("bodies_asleep", stepCount_,
                         static_cast<double>(s.bodiesAsleep));
    trace_.recordCounter("governor_rung", stepCount_,
                         static_cast<double>(s.governor.ladderLevel));
    trace_.recordCounter("tasks_stolen", stepCount_,
                         static_cast<double>(s.parTasksStolen));
    trace_.recordCounter("quarantined_bodies", stepCount_,
                         static_cast<double>(
                             quarantinedBodies_.size()));
    trace_.recordCounter("solver_reuse", stepCount_,
                         static_cast<double>(
                             s.solver.workspaceReuses));
    // Per-lane scheduler load: one counter track per lane, sourced
    // from the per-step deltas merged at the last phase barrier.
    for (std::size_t i = 0; i < s.laneTasks.size(); ++i) {
        trace_.recordCounter("lane_chunks", stepCount_,
                             static_cast<double>(
                                 s.laneTasks[i].chunksExecuted),
                             static_cast<std::int64_t>(i));
        trace_.recordCounter("lane_steals", stepCount_,
                             static_cast<double>(
                                 s.laneTasks[i].rangesStolen),
                             static_cast<std::int64_t>(i));
    }
}

std::string
World::metricsLine() const
{
    // Fixed key order, deterministic values only (no wall-clock, no
    // lane counters): this line is identical for any worker count.
    // Consumers key on "pax_metrics".
    const StepStats &s = stepStats_;
    auto u64 = [](std::uint64_t v) { return std::to_string(v); };
    // With a metrics scope set (the server's "world.<id>"), every
    // key except the "pax_metrics" format marker gains the prefix;
    // without one the bytes are identical to prior releases.
    const std::string pfx =
        metricsScope_.empty() ? std::string() : metricsScope_ + ".";
    auto key = [&pfx](const char *k) {
        return ",\"" + pfx + k + "\":";
    };
    std::string out = "{\"pax_metrics\":1";
    out += key("step") + u64(stepCount_ > 0 ? stepCount_ - 1 : 0);
    out += key("steps_total") + u64(stepCount_);
    out += key("pairs") + u64(s.pairsFound);
    out += key("contacts") + u64(s.contactsCreated);
    out += key("contact_joints") + u64(s.contactJointsCreated);
    out += key("islands") + u64(s.islands.size());
    out += key("islands_asleep") + u64(s.islandsAsleep);
    out += key("bodies_asleep") + u64(s.bodiesAsleep);
    out += key("joints_broken") + u64(s.jointsBroken);
    out += key("cloth_vertices") + u64(s.cloth.verticesIntegrated);
    out += key("governor_rung") +
           std::to_string(s.governor.ladderLevel);
    out += key("pairs_deferred") + u64(s.governor.pairsDeferred);
    out += key("faults_injected") + u64(s.faultsInjected);
    out += key("quarantine_events") + u64(s.quarantineEvents);
    out += key("violations_total") + u64(invariantViolations_);
    out += key("quarantines_total") + u64(quarantineEvents_);
    out += "}";
    return out;
}

RenderState
World::renderState() const
{
    RenderState state;
    state.time = time_;
    state.bodies.reserve(bodies_.size());
    for (const auto &b : bodies_) {
        RenderPose pose;
        pose.position = b->position();
        pose.orientation = b->pose().rotation;
        state.bodies.push_back(pose);
    }
    state.cloths.reserve(cloths_.size());
    for (const auto &c : cloths_) {
        std::vector<Vec3> pts;
        pts.reserve(c->particles().size());
        for (const Cloth::Particle &p : c->particles())
            pts.push_back(p.position);
        state.cloths.push_back(std::move(pts));
    }
    return state;
}

RenderState
World::interpolate(const RenderState &a, const RenderState &b,
                   double phase)
{
    // The endpoints return their input bitwise: a display sampling
    // exactly on a tick boundary must see the simulated state, not a
    // lerp that rounded through it.
    if (!(phase > 0.0))
        return a;
    if (phase >= 1.0)
        return b;

    const Real t = static_cast<Real>(phase);
    RenderState out;
    out.time = a.time + (b.time - a.time) * phase;

    const std::size_t nb = std::min(a.bodies.size(), b.bodies.size());
    out.bodies.reserve(nb);
    for (std::size_t i = 0; i < nb; ++i) {
        const RenderPose &pa = a.bodies[i];
        const RenderPose &pb = b.bodies[i];
        RenderPose p;
        p.position = pa.position + (pb.position - pa.position) * t;
        // Shortest-path normalized quaternion lerp: q and -q encode
        // the same rotation, so flip the target when the dot product
        // is negative or the blend takes the long way around.
        Quat qb = pb.orientation;
        const Real dot =
            pa.orientation.w * qb.w + pa.orientation.x * qb.x +
            pa.orientation.y * qb.y + pa.orientation.z * qb.z;
        if (dot < 0) {
            qb.w = -qb.w;
            qb.x = -qb.x;
            qb.y = -qb.y;
            qb.z = -qb.z;
        }
        const Real s = 1 - t;
        const Quat blended{s * pa.orientation.w + t * qb.w,
                           s * pa.orientation.x + t * qb.x,
                           s * pa.orientation.y + t * qb.y,
                           s * pa.orientation.z + t * qb.z};
        p.orientation = blended.normalized();
        out.bodies.push_back(p);
    }

    const std::size_t nc = std::min(a.cloths.size(), b.cloths.size());
    out.cloths.reserve(nc);
    for (std::size_t i = 0; i < nc; ++i) {
        const std::vector<Vec3> &ca = a.cloths[i];
        const std::vector<Vec3> &cb = b.cloths[i];
        const std::size_t np = std::min(ca.size(), cb.size());
        std::vector<Vec3> pts;
        pts.reserve(np);
        for (std::size_t j = 0; j < np; ++j)
            pts.push_back(ca[j] + (cb[j] - ca[j]) * t);
        out.cloths.push_back(std::move(pts));
    }
    return out;
}

std::string
World::writeTrace(const std::string &path) const
{
    if (!trace_.enabled())
        return "tracing is disabled (set WorldConfig::tracing)";
    return trace_.writeChromeJson(path);
}

void
World::handleViolations(
    const std::vector<InvariantViolation> &violations,
    InvariantMode mode)
{
    invariantViolations_ += violations.size();
    if (mode == InvariantMode::HardFail) {
        if (!deferHardFail_)
            failInvariants(violations);
        deferHardFailure(violations);
        return;
    }

    for (const InvariantViolation &v : violations) {
        warn("invariant [%s] (%s): %s", v.code.c_str(),
             invariantModeName(mode), v.message.c_str());
    }

    if (mode == InvariantMode::Warn) {
        // One snapshot per run is enough to replay the first failure;
        // a persistent violation must not fill the disk.
        if (!warnSnapshotWritten_) {
            warnSnapshotWritten_ = true;
            dumpViolationSnapshot("invariant");
        }
        return;
    }

    // Quarantine. Structural violations (a broken island partition,
    // contacts without pairs) cannot be pinned to one island —
    // containment has no target, so they stay fatal.
    for (const InvariantViolation &v : violations) {
        if (!v.attributable() && v.code != "truncated") {
            warn("invariant [%s] is not attributable to an island; "
                 "quarantine cannot contain it",
                 v.code.c_str());
            if (!deferHardFail_)
                failInvariants(violations);
            deferHardFailure(violations);
            return;
        }
    }
    for (const InvariantViolation &v : violations) {
        if (v.body >= 0)
            quarantineBody(static_cast<BodyId>(v.body), v.code);
        else if (v.cloth >= 0)
            quarantineCloth(static_cast<ClothId>(v.cloth), v.code);
    }
}

void
World::deferHardFailure(
    const std::vector<InvariantViolation> &violations)
{
    // Sticky: the first failure names the world sick until a
    // supervisor rolls it back (restoreState clears the code). Log
    // and snapshot once — a persistently broken hosted world must
    // not spam per step while it waits out the recovery backoff.
    if (!hardFailCode_.empty())
        return;
    hardFailCode_ = violations[0].code;
    for (const InvariantViolation &v : violations) {
        warn("invariant [%s] (deferred hard-fail): %s",
             v.code.c_str(), v.message.c_str());
    }
    dumpViolationSnapshot("invariant");
    if (trace_.enabled())
        trace_.recordInstant("invariant_hardfail", stepCount_, 0);
}

void
World::setDegradationFloor(int rung)
{
    degradationFloor_ =
        std::clamp(rung, 0, StepGovernor::maxLadderLevel);
}

std::size_t
World::permanentQuarantineCount() const
{
    std::size_t n = 0;
    for (const auto &[id, state] : quarantinedBodies_) {
        (void)id;
        n += state.permanent ? 1 : 0;
    }
    for (std::size_t i = 0; i < clothQuarantined_.size(); ++i)
        n += clothQuarantined_[i] ? 1 : 0;
    return n;
}

void
World::markRecoveryEvent(const char *name, std::int64_t detail)
{
    if (trace_.enabled())
        trace_.recordInstant(name, stepCount_, detail);
}

void
World::quarantineBody(BodyId id, const std::string &code)
{
    if (quarantinedBodies_.count(id) != 0)
        return; // Island already frozen by an earlier violation.

    // retryCount_ counts thaws already spent on this body. Once they
    // reach quarantineMaxRetries (or thawing is disabled), the next
    // freeze is permanent.
    const auto spent = retryCount_.find(id);
    const int retries =
        spent != retryCount_.end() ? spent->second : 0;
    const bool permanent = config_.quarantineThawSteps <= 0 ||
                           retries >= config_.quarantineMaxRetries;

    // Freeze the whole island: the violation already propagated
    // through its joints this step, so island-mates are suspect too.
    std::vector<RigidBody *> members;
    const std::uint32_t island = bodies_[id]->islandId();
    if (island != ~std::uint32_t(0) &&
        island < lastIslandList_.size()) {
        members.assign(lastIslandList_[island].bodies.begin(),
                       lastIslandList_[island].bodies.end());
    } else {
        members.push_back(bodies_[id].get());
    }

    for (RigidBody *member : members) {
        if (member->isStatic())
            continue;
        // Bodies spawned mid-step (blast anchors are static, so this
        // is belt-and-braces) have no backup; freeze them as-is.
        if (member->id() < lastGood_.size()) {
            member->setPose(lastGood_[member->id()].pose);
        }
        member->setLinearVelocity({});
        member->setAngularVelocity({});
        member->clearAccumulators();
        member->setEnabled(false);
        member->setSleepState(false, 0);
        quarantinedBodies_[member->id()] =
            QuarantineState{stepCount_, permanent};
        probationUntil_.erase(member->id());
    }

    ++quarantineEvents_;
    ++stepStats_.quarantineEvents;
    if (trace_.enabled()) {
        trace_.recordInstant("quarantine_body", stepCount_,
                             static_cast<std::int64_t>(id));
    }
    quarantineRecords_.push_back(QuarantineRecord{
        stepCount_, static_cast<std::int64_t>(id), -1, code,
        permanent});
    warn("quarantined island of body %u (%zu bodies) after [%s] "
         "at step %llu%s",
         id, members.size(), code.c_str(),
         static_cast<unsigned long long>(stepCount_),
         permanent ? " (permanent)" : "");
    // A handful of replayable snapshots per run, not one per event.
    if (quarantineEvents_ <= 4)
        dumpViolationSnapshot("quarantine");
}

void
World::quarantineCloth(ClothId id, const std::string &code)
{
    if (clothQuarantined_.size() < cloths_.size())
        clothQuarantined_.resize(cloths_.size(), false);
    if (clothQuarantined_[id])
        return;
    // Cloths have no island/retry machinery: restore last-good
    // particles and freeze for the rest of the run.
    cloths_[id]->restoreParticles(lastGoodCloth_[id]);
    clothQuarantined_[id] = true;
    ++quarantineEvents_;
    ++stepStats_.quarantineEvents;
    if (trace_.enabled()) {
        trace_.recordInstant("quarantine_cloth", stepCount_,
                             static_cast<std::int64_t>(id));
    }
    quarantineRecords_.push_back(QuarantineRecord{
        stepCount_, -1, static_cast<std::int64_t>(id), code, true});
    warn("quarantined cloth %u after [%s] at step %llu", id,
         code.c_str(), static_cast<unsigned long long>(stepCount_));
    if (quarantineEvents_ <= 4)
        dumpViolationSnapshot("quarantine");
}

void
World::captureLastGood()
{
    lastGood_.resize(bodies_.size());
    for (std::size_t i = 0; i < bodies_.size(); ++i) {
        const RigidBody &b = *bodies_[i];
        lastGood_[i] = BodyBackup{b.pose(), b.linearVelocity(),
                                  b.angularVelocity(), b.enabled(),
                                  b.asleep(), b.sleepCounter()};
    }
    lastGoodCloth_.resize(cloths_.size());
    for (std::size_t i = 0; i < cloths_.size(); ++i) {
        if (clothQuarantined_.size() > i && clothQuarantined_[i])
            continue; // Keep the state it was frozen with.
        lastGoodCloth_[i] = cloths_[i]->particles();
    }
}

void
World::processQuarantineThaws()
{
    if (quarantinedBodies_.empty() ||
        config_.quarantineThawSteps <= 0) {
        return;
    }
    std::vector<BodyId> ready;
    for (const auto &[id, state] : quarantinedBodies_) {
        if (!state.permanent &&
            stepCount_ >=
                state.frozenAtStep +
                    static_cast<std::uint64_t>(
                        config_.quarantineThawSteps)) {
            ready.push_back(id);
        }
    }
    // Map order is arbitrary; sorted thaw keeps runs reproducible.
    std::sort(ready.begin(), ready.end());
    for (const BodyId id : ready) {
        quarantinedBodies_.erase(id);
        ++retryCount_[id];
        probationUntil_[id] =
            stepCount_ +
            static_cast<std::uint64_t>(
                config_.quarantineProbationSteps);
        bodies_[id]->setEnabled(true); // Re-enabling also wakes.
    }
    // Probation served without a re-violation: fully rehabilitated.
    std::vector<BodyId> served;
    for (const auto &[id, until] : probationUntil_) {
        if (stepCount_ >= until)
            served.push_back(id);
    }
    for (const BodyId id : served)
        probationUntil_.erase(id);
}

RigidBody *
World::pickFaultBody(std::uint32_t target)
{
    // Deterministic: the target indexes the dynamic, enabled bodies
    // in id order, so the same plan hits the same body every run.
    std::uint32_t eligible = 0;
    for (const auto &body : bodies_) {
        if (!body->isStatic() && body->enabled())
            ++eligible;
    }
    if (eligible == 0)
        return nullptr;
    std::uint32_t index = target % eligible;
    for (const auto &body : bodies_) {
        if (body->isStatic() || !body->enabled())
            continue;
        if (index == 0)
            return body.get();
        --index;
    }
    return nullptr;
}

void
World::injectScriptedFaults()
{
    if (config_.faultPlan.empty())
        return;
    for (const FaultEvent &e : config_.faultPlan.events) {
        if (e.step != stepCount_)
            continue;
        if (trace_.enabled() &&
            e.kind != FaultKind::CorruptContactNormal) {
            trace_.recordInstant("fault_injected", stepCount_,
                                 static_cast<std::int64_t>(e.target));
        }
        switch (e.kind) {
          case FaultKind::NanVelocity: {
            RigidBody *victim = pickFaultBody(e.target);
            if (victim == nullptr)
                break;
            victim->wake();
            victim->setLinearVelocity(Vec3{
                std::numeric_limits<Real>::quiet_NaN(), 0.0, 0.0});
            ++stepStats_.faultsInjected;
            break;
          }
          case FaultKind::HugeImpulse: {
            RigidBody *victim = pickFaultBody(e.target);
            if (victim == nullptr)
                break;
            victim->wake();
            victim->applyImpulse(Vec3{0.0, e.magnitude, 0.0},
                                 victim->position());
            ++stepStats_.faultsInjected;
            break;
          }
          case FaultKind::StallLane:
            scheduler_.stallLane(e.target, e.magnitude);
            ++stepStats_.faultsInjected;
            break;
          case FaultKind::CorruptContactNormal:
            // Needs narrowphase output; injectContactFaults().
            break;
        }
    }
}

void
World::injectContactFaults()
{
    if (config_.faultPlan.empty() || lastContacts_.empty())
        return;
    for (const FaultEvent &e : config_.faultPlan.events) {
        if (e.step != stepCount_ ||
            e.kind != FaultKind::CorruptContactNormal) {
            continue;
        }
        Contact &c = lastContacts_[e.target % lastContacts_.size()];
        const Real nan = std::numeric_limits<Real>::quiet_NaN();
        c.normal = Vec3{nan, nan, nan};
        ++stepStats_.faultsInjected;
        if (trace_.enabled()) {
            trace_.recordInstant("fault_injected", stepCount_,
                                 static_cast<std::int64_t>(e.target));
        }
    }
}

void
World::stepFrame(int substeps)
{
    for (int i = 0; i < substeps; ++i)
        step();
}

void
World::phaseBroadphase()
{
    // 2(b): find all pairs of objects potentially in contact. The
    // pointer list and pair output are persistent: once warm the
    // whole phase runs without touching the heap. Bounds are
    // per-geom independent, so their update tiles like any kernel.
    scheduler_.parallelForByCost(
        geoms_.size(), boundsNsPerGeom,
        [this](std::size_t begin, std::size_t end, unsigned) {
            for (std::size_t i = begin; i < end; ++i)
                geoms_[i]->updateBounds();
        });
    geomPtrs_.clear();
    geomPtrs_.reserve(geoms_.size());
    for (const auto &g : geoms_)
        geomPtrs_.push_back(g.get());
    broadphase_.findPairsInto(geomPtrs_, scheduler_, lastPairs_,
                              &trace_, stepCount_);

    // Drop pairs whose bodies share a permanent joint (ODE's
    // dAreConnected rule): articulated segments do not self-collide.
    std::erase_if(lastPairs_, [this](const GeomPair &pair) {
        return connectedByJoint(geoms_[pair.a]->body(),
                                geoms_[pair.b]->body());
    });
    stepStats_.pairsFound = lastPairs_.size();

    // Ladder level 6: defer narrowphase for slow-moving pairs every
    // other substep. Staleness is bounded to one substep, fast pairs
    // and blast triggers are never deferred, and the decision is a
    // pure function of simulation state (stepCount parity and body
    // velocities), so degraded runs stay reproducible.
    if (plan_.deferNarrowphase && (stepCount_ % 2) == 1) {
        const double v = config_.governor.deferVelocity;
        const Real v2 = static_cast<Real>(v * v);
        auto slow = [v2](const RigidBody *body) {
            return body == nullptr || body->isStatic() ||
                   (body->linearVelocity().lengthSquared() <= v2 &&
                    body->angularVelocity().lengthSquared() <= v2);
        };
        const std::size_t before = lastPairs_.size();
        std::erase_if(lastPairs_, [this, &slow](const GeomPair &pair) {
            const Geom *ga = geoms_[pair.a].get();
            const Geom *gb = geoms_[pair.b].get();
            if (ga->isBlast() || gb->isBlast())
                return false;
            return slow(ga->body()) && slow(gb->body());
        });
        pairsDeferredThisStep_ = before - lastPairs_.size();
    }
}

void
World::phaseNarrowphase()
{
    // 2(c).i: compute contact points for each pair. Object-pairs are
    // independent: the scheduler tiles them into chunks sized so each
    // is worth roughly targetChunkNanos of pair tests at the
    // committed per-pair cost, and idle lanes steal chunks. Each
    // chunk appends to its own contact store (the paper's per-thread
    // joint group that removes ODE's artificial serialization):
    // chunk 0 writes lastContacts_ itself, chunk c >= 1 its slot
    // chunkContacts_[c - 1], and the slots are appended in chunk
    // order. The contact list is therefore in pair order whichever
    // lane ran which chunk, and a one-chunk step copies nothing.
    const std::size_t pairs = lastPairs_.size();
    const TaskScheduler::Tiling tile =
        scheduler_.tilingByCost(pairs, narrowphaseNsPerPair);
    const std::size_t slots = tile.chunks > 0 ? tile.chunks - 1 : 0;

    // Each slot is reserved for the most contacts a chunk can
    // produce, so no chunk body ever reallocates: slots are created
    // (and counted) only when the pair count needs more chunks than
    // any step before.
    const std::size_t slot_capacity =
        tile.grain * static_cast<std::size_t>(maxContactsPerPair);
    if (chunkContacts_.size() < slots)
        chunkContacts_.resize(slots);
    for (std::size_t c = 0; c < slots; ++c) {
        std::vector<Contact> &slot = chunkContacts_[c].contacts;
        if (slot.capacity() < slot_capacity) {
            slot.reserve(slot_capacity);
            ++stepStats_.arenaGrowths;
        }
    }

    // Lane narrowphase instances keep stats races away (step()
    // merges their counters). Each chunk body runs exactly once and
    // owns its output, so the writes are race-free.
    lastContacts_.clear();
    scheduler_.parallelForByCost(
        pairs, narrowphaseNsPerPair,
        [this, &tile](std::size_t begin, std::size_t end,
                      unsigned lane) {
            PAX_TRACE_SCOPE_ID(trace_, lane, "narrowphase_chunk",
                               stepCount_,
                               static_cast<std::int64_t>(begin));
            const std::size_t chunk = tile.chunkOf(begin);
            std::vector<Contact> &out =
                chunk == 0 ? lastContacts_
                           : chunkContacts_[chunk - 1].contacts;
            out.clear();
            Narrowphase &np = npLocals_[lane];
            for (std::size_t i = begin; i < end; ++i) {
                const GeomPair &pair = lastPairs_[i];
                np.collide(*geoms_[pair.a], *geoms_[pair.b], out);
            }
        });
    for (std::size_t c = 0; c < slots; ++c) {
        const std::vector<Contact> &chunk = chunkContacts_[c].contacts;
        lastContacts_.insert(lastContacts_.end(), chunk.begin(),
                             chunk.end());
    }
    stepStats_.contactsCreated = lastContacts_.size();
}

void
World::phaseIslandCreation()
{
    // 2(c).i (joints) + 2(d): create contact joints, then form
    // islands of objects interconnected by joints. Serial phase.
    contactJoints_.clear();
    JointId next_contact_id = static_cast<JointId>(joints_.size());
    // Contacts arrive in ascending pair-key order (sorted broadphase
    // pairs, each pair's contacts contiguous) and the warm cache is
    // key-sorted, so the cache lookup is a cursor that only moves
    // forward.
    std::size_t warm_cursor = 0;
    for (const Contact &c : lastContacts_) {
        Geom *ga = geoms_[c.geomA].get();
        Geom *gb = geoms_[c.geomB].get();
        // Blast volumes are non-solid triggers.
        if (ga->isBlast() || gb->isBlast())
            continue;
        // Bodies connected by a permanent joint never get here:
        // phaseBroadphase already dropped their pairs.
        RigidBody *ba = ga->body();
        RigidBody *bb = gb->body();
        // Ensure bodyA is dynamic (Joint requires it).
        Contact contact = c;
        if (ba == nullptr || ba->isStatic()) {
            std::swap(ba, bb);
            std::swap(contact.geomA, contact.geomB);
            contact.normal = -contact.normal;
        }
        if (ba == nullptr || ba->isStatic() || !ba->enabled())
            continue;
        if (bb != nullptr && !bb->enabled())
            continue;
        ContactJoint &joint = contactJoints_.emplace_back(
            next_contact_id++, ba,
            (bb != nullptr && !bb->isStatic()) ? bb : nullptr,
            contact, config_.defaultMaterial);

        // Warm start: inherit the impulses of the nearest matching
        // contact from the previous step (same geom pair, within a
        // small positional tolerance, compatible normal).
        const std::uint64_t key = warmKey(contact);
        while (warm_cursor < warmCache_.size() &&
               warmCache_[warm_cursor].key < key)
            ++warm_cursor;
        const CachedContact *best = nullptr;
        Real best_d2 = 0.05 * 0.05;
        for (std::size_t i = warm_cursor;
             i < warmCache_.size() && warmCache_[i].key == key; ++i) {
            const Real d2 =
                (warmCache_[i].c.position - contact.position)
                    .lengthSquared();
            if (d2 < best_d2) {
                best_d2 = d2;
                best = &warmCache_[i].c;
            }
        }
        // Only a cache entry whose normal still points the same way
        // may seed the solve. Inheriting the normal impulse across a
        // normal flip (contact side change, e.g. a body tunneling
        // past a thin wall) pre-applies an impulse in the wrong
        // direction — injected energy the iterations then have to
        // claw back.
        if (best != nullptr && best->normal.dot(contact.normal) > 0.95) {
            joint.setWarmStart(best->lambdas[0], best->lambdas[1],
                               best->lambdas[2]);
        }
    }
    stepStats_.contactJointsCreated = contactJoints_.size();

    // Pointers into the pool are taken only now that it has stopped
    // growing for this step.
    allJointsScratch_.clear();
    allJointsScratch_.reserve(joints_.size() + contactJoints_.size());
    for (const auto &j : joints_) {
        if (!j->broken())
            allJointsScratch_.push_back(j.get());
    }
    for (ContactJoint &j : contactJoints_)
        allJointsScratch_.push_back(&j);

    islandBuilder_.build(bodyPtrs_, allJointsScratch_,
                         lastIslandList_);

    stepStats_.islands.clear();
    for (const Island &island : lastIslandList_) {
        stepStats_.islands.push_back(IslandSummary{
            static_cast<int>(island.bodies.size()),
            static_cast<int>(island.joints.size()), island.rows});
    }
}

void
World::phaseIslandProcessing()
{
    // 2(e): for each island compute loads and new velocities, then
    // integrate.
    SolverParams params;
    params.dt = config_.dt;
    params.erp = config_.erp;
    params.cfm = config_.cfm;

    // Thawed islands on probation retry at reduced dt: island
    // membership (via islandId stamped this step) decides which
    // bodies solve and integrate on the scaled clock; every other
    // body gets config_.dt.
    const std::size_t island_count = lastIslandList_.size();
    islandOnProbation_.assign(island_count, 0);
    for (const auto &[id, until] : probationUntil_) {
        const std::uint32_t island = bodies_[id]->islandId();
        if (island < island_count)
            islandOnProbation_[island] = 1;
    }
    const Real probation_dt =
        config_.dt *
        static_cast<Real>(config_.quarantineRetryDtScale);
    auto bodyDt = [&](const RigidBody &body) {
        const std::uint32_t island = body.islandId();
        return island < island_count && islandOnProbation_[island] != 0
                   ? probation_dt
                   : config_.dt;
    };
    auto paramsFor = [&](const Island &island) {
        SolverParams p = params;
        if (!island.bodies.empty())
            p.dt = bodyDt(*island.bodies.front());
        return p;
    };

    // Velocity integration is per-body independent, so it tiles
    // like any other kernel: same per-body arithmetic in the same
    // order at any worker count (the committed body cost keeps
    // chunks coarse enough to amortize dispatch).
    auto forEachBody = [this](auto &&per_body) {
        scheduler_.parallelForByCost(
            bodies_.size(), integrateNsPerBody,
            [this, &per_body](std::size_t begin, std::size_t end,
                              unsigned) {
                for (std::size_t i = begin; i < end; ++i)
                    per_body(*bodies_[i]);
            });
    };
    forEachBody([&bodyDt](RigidBody &body) {
        body.integrateVelocities(bodyDt(body));
    });

    // Auto-disable, part 1: islands sleep and wake as a unit. An
    // island that mixes sleeping and awake bodies has been disturbed
    // (e.g. a projectile contacted a sleeping wall): wake everyone
    // so the solver and integrator treat them consistently.
    if (config_.autoDisable) {
        for (Island &island : lastIslandList_) {
            bool any_awake = false;
            bool any_asleep = false;
            for (const RigidBody *body : island.bodies) {
                any_awake |= !body->asleep();
                any_asleep |= body->asleep();
            }
            if (any_awake && any_asleep) {
                for (RigidBody *body : island.bodies)
                    body->wake();
            }
        }
    }

    // Every awake island is stealable work: islands pack (in island
    // index order) into batches carrying at least `target_rows`
    // constraint rows, one batch per chunk, so a scene of many tiny
    // islands still spreads across all lanes while per-task dispatch
    // stays amortized. Islands touch disjoint body sets, so results
    // are bitwise identical whichever lane solves them, and in
    // whichever order the batches are dealt; per-lane solver
    // instances keep stats counters race-free and reuse their
    // workspaces across steps.
    solveIslands_.clear();
    for (Island &island : lastIslandList_) {
        // Fully sleeping islands are not solved or integrated.
        bool all_asleep = !island.bodies.empty();
        for (const RigidBody *body : island.bodies)
            all_asleep &= body->asleep();
        if (all_asleep) {
            ++stepStats_.islandsAsleep;
            stepStats_.bodiesAsleep += island.bodies.size();
            continue;
        }
        solveIslands_.push_back(&island);
    }

    // The committed per-row cost, scaled by this step's (possibly
    // governor-degraded) solver iterations, sizes one batch to
    // roughly targetChunkNanos of solver work. All inputs are
    // step-stable, so batch boundaries — and a fortiori the
    // trajectory — never depend on wall clock or worker count.
    const double row_ns =
        solverNsPerRowSweep * std::max(1, plan_.solverIterations);
    const auto target_rows = static_cast<std::size_t>(std::max(
        1.0, scheduler_.schedulerConfig().targetChunkNanos / row_ns));
    // At most one batch per island: sized by the island count, the
    // offsets, row sums and order never grow on a batch-count
    // maximum alone.
    islandBatchOffsets_.clear();
    islandBatchOffsets_.reserve(island_count + 1);
    islandBatchRows_.clear();
    islandBatchRows_.reserve(island_count);
    islandBatchOrder_.reserve(island_count);
    std::size_t max_bodies = 0, max_rows = 0, max_joints = 0;
    for (std::size_t i = 0; i < solveIslands_.size(); ++i) {
        if (islandBatchRows_.empty() ||
            islandBatchRows_.back() >= target_rows) {
            islandBatchOffsets_.push_back(static_cast<std::uint32_t>(i));
            islandBatchRows_.push_back(0);
        }
        const Island &island = *solveIslands_[i];
        const auto rows = static_cast<std::size_t>(island.rows);
        islandBatchRows_.back() +=
            static_cast<std::uint32_t>(std::max<std::size_t>(1, rows));
        max_bodies = std::max(max_bodies, island.bodies.size());
        max_rows = std::max(max_rows, rows);
        max_joints = std::max(max_joints, island.joints.size());
    }
    islandBatchOffsets_.push_back(
        static_cast<std::uint32_t>(solveIslands_.size()));

    // Any lane may steal the largest island, so every lane solver is
    // reserved for it up front: workspace growth then follows the
    // scene, never the steal pattern.
    for (PgsSolver &s : laneSolvers_) {
        s.setIterations(plan_.solverIterations);
        s.reserve(max_bodies, max_rows, max_joints);
    }
    // A batch that dominates the phase is dealt first (the batch's
    // rows are its cost), so the splitter separates it from the
    // other heavy batches instead of queueing them on one lane.
    TaskScheduler::dominantFirstOrder(islandBatchRows_,
                                      islandBatchOrder_);
    const Island *island_base = lastIslandList_.data();
    scheduler_.parallelFor(
        islandBatchOrder_.size(),
        [this, island_base, &paramsFor](std::size_t begin,
                                        std::size_t end,
                                        unsigned lane) {
            for (std::size_t pos = begin; pos < end; ++pos) {
                const std::uint32_t b = islandBatchOrder_[pos];
                for (std::uint32_t i = islandBatchOffsets_[b];
                     i < islandBatchOffsets_[b + 1]; ++i) {
                    Island *island = solveIslands_[i];
                    PAX_TRACE_SCOPE_ID(
                        trace_, lane, "island_solve", stepCount_,
                        static_cast<std::int64_t>(island -
                                                  island_base));
                    laneSolvers_[lane].solve(*island,
                                             paramsFor(*island));
                }
            }
        });

    // 2(f): check all breakable joints. This must run between the
    // solve (which records the impulses that break joints) and the
    // sleep decision below: a joint that broke THIS step frees its
    // endpoint bodies, and the solver held them with the joint still
    // intact — their post-solve velocities look calm, but next step
    // (without the joint) they move. Sleeping them now would leave
    // e.g. a plank dangling in mid-air forever, with the
    // islandsAsleep/bodiesAsleep counters overcounting it every
    // step. Wake the endpoints and veto this step's sleep decision
    // for their islands instead.
    std::uint64_t total_broken = 0;
    islandJointBroke_.assign(island_count, 0);
    jointWasBroken_.resize(joints_.size(), false);
    for (std::size_t i = 0; i < joints_.size(); ++i) {
        Joint *joint = joints_[i].get();
        if (joint->broken()) {
            ++total_broken;
            if (!jointWasBroken_[i]) {
                jointWasBroken_[i] = true;
                for (RigidBody *body :
                     {joint->bodyA(), joint->bodyB()}) {
                    if (body == nullptr || body->isStatic())
                        continue;
                    body->wake();
                    if (body->islandId() < island_count)
                        islandJointBroke_[body->islandId()] = 1;
                }
            }
        }
    }
    stepStats_.jointsBroken = total_broken - totalJointsBroken_;
    totalJointsBroken_ = total_broken;

    forEachBody([&bodyDt](RigidBody &body) {
        body.integratePositions(bodyDt(body));
    });

    // Auto-disable, part 2: with post-solve velocities (resting
    // contacts cancelled gravity), decide which islands go to sleep.
    if (config_.autoDisable) {
        for (std::uint32_t island_index = 0;
             island_index < lastIslandList_.size(); ++island_index) {
            Island &island = lastIslandList_[island_index];
            if (islandJointBroke_[island_index] != 0)
                continue; // A joint broke here: stay awake.
            bool all_asleep = !island.bodies.empty();
            for (const RigidBody *body : island.bodies)
                all_asleep &= body->asleep();
            if (all_asleep)
                continue; // Already sleeping.
            bool calm = true;
            for (const RigidBody *body : island.bodies) {
                if (body->linearVelocity().length() >
                        config_.sleepLinearVelocity ||
                    body->angularVelocity().length() >
                        config_.sleepAngularVelocity) {
                    calm = false;
                    break;
                }
            }
            if (!calm) {
                for (RigidBody *body : island.bodies)
                    body->wake();
                continue;
            }
            bool all_ripe = true;
            for (RigidBody *body : island.bodies) {
                body->incrementSleepCounter();
                all_ripe &=
                    body->sleepCounter() >= config_.sleepSteps;
            }
            if (all_ripe) {
                for (RigidBody *body : island.bodies)
                    body->sleep();
            }
        }
    }

    // Persist this step's solved contact impulses for warm starting
    // the next step's matching contacts. Contact joints are in
    // ascending key order, so appending them in order leaves the
    // flat cache key-sorted, each pair's entries in insertion order.
    warmCache_.clear();
    for (const ContactJoint &joint : contactJoints_) {
        const Contact &c = joint.contact();
        const Real *l = joint.solvedLambdas();
        warmCache_.push_back(WarmEntry{
            warmKey(c),
            CachedContact{c.position, c.normal, {l[0], l[1], l[2]}}});
    }
}

void
World::phaseCloth()
{
    // 2(g): process all cloth objects with a forward step. Each
    // cloth is independent (coarse grain); vertices are independent
    // (fine grain).
    ClothStats &stats = stepStats_.cloth;

    // Quarantined cloths are frozen: no pin tracking, no colliders,
    // no stepping.
    auto frozen = [this](std::size_t ci) {
        return ci < clothQuarantined_.size() && clothQuarantined_[ci];
    };

    // Follow attachments: pinned particles track their bodies.
    for (const ClothAttachment &att : clothAttachments_) {
        if (frozen(att.cloth->id()))
            continue;
        att.cloth->movePinned(
            att.particle, att.body->pose().apply(att.localPoint));
    }

    stepStats_.clothVertexCounts.clear();

    // Each cloth's collider list (the paper's "cloth contact list")
    // comes from bounding-volume overlap, built by whichever lane
    // steps that cloth. The candidates are gathered once, here, into
    // one flat table in geom id order: every enabled, non-blast geom
    // with its bounds and whether it is a plane. This runs after the
    // effects have enabled debris and disabled fractured parents
    // (the broadphase bounds pass runs before them), and the geoms
    // are read-only from here on. A cloth's bounds depend on its own
    // particles only, so building a list just before its cloth steps
    // sees the same inputs as building them all up front. The table
    // and lists are persistent: clear() keeps their capacity, so the
    // warm steady state allocates nothing.
    clothCandidates_.clear();
    if (!cloths_.empty()) {
        for (const auto &g : geoms_) {
            if (!g->enabled() || g->isBlast())
                continue;
            clothCandidates_.push_back(
                {g->bounds(), g.get(),
                 g->shape().type() == ShapeType::Plane});
        }
    }
    clothColliders_.resize(cloths_.size());
    clothCosts_.clear();
    for (std::size_t ci = 0; ci < cloths_.size(); ++ci) {
        const int vertices = cloths_[ci]->vertexCount();
        stepStats_.clothVertexCounts.push_back(vertices);
        clothCosts_.push_back(static_cast<std::uint32_t>(vertices));
    }
    // A cloth's cost is its vertex count; dominant cloths are dealt
    // first, so the first splits put the largest ones on different
    // lanes.
    TaskScheduler::dominantFirstOrder(clothCosts_, clothOrder_);

    // One chunk per cloth; relaxation sweeps within a cloth are
    // sequential, so cloths are the stealable unit. Per-cloth stats
    // buffers reduce in cloth order (each cloth is touched by
    // exactly one lane), whatever order the cloths were dealt in.
    std::vector<ClothStats> &locals = clothLocalStats_;
    locals.assign(cloths_.size(), ClothStats{});
    scheduler_.parallelFor(
        cloths_.size(),
        [this, &frozen, &locals](std::size_t begin, std::size_t end,
                                 unsigned lane) {
            for (std::size_t pos = begin; pos < end; ++pos) {
                const std::size_t ci = clothOrder_[pos];
                std::vector<const Geom *> &colliders =
                    clothColliders_[ci];
                colliders.clear();
                if (frozen(ci))
                    continue;
                PAX_TRACE_SCOPE_ID(trace_, lane, "cloth_step",
                                   stepCount_,
                                   static_cast<std::int64_t>(ci));
                const Aabb cloth_bounds = cloths_[ci]->bounds();
                for (const ClothCandidate &c : clothCandidates_) {
                    if (c.plane || c.bounds.overlaps(cloth_bounds))
                        colliders.push_back(c.geom);
                }
                cloths_[ci]->step(config_.dt, config_.gravity,
                                  plan_.clothIterations, colliders,
                                  locals[ci], kernelBackend_);
            }
        });
    for (const ClothStats &ls : locals) {
        stats.clothsStepped += ls.clothsStepped;
        stats.verticesIntegrated += ls.verticesIntegrated;
        stats.constraintRelaxations += ls.constraintRelaxations;
        stats.collisionTests += ls.collisionTests;
        stats.collisionsResolved += ls.collisionsResolved;
        stats.kernels.merge(ls.kernels);
    }
    for (const std::vector<const Geom *> &colliders : clothColliders_)
        stepStats_.clothColliderInsertions += colliders.size();
}

} // namespace parallax
