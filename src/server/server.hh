/**
 * @file
 * Multi-world simulation server: N independent Worlds multiplexed
 * over one shared work-stealing TaskScheduler.
 *
 * Each hosted world runs single-threaded internally (workerThreads
 * must be 0); parallelism comes from the server's scheduler running
 * whole-world ticks as top-level chunks, so lanes steal entire
 * worlds instead of intra-world phases. Because a world's trajectory
 * depends only on its own step sequence — never on which lane ran
 * it — every hosted world's state is bitwise identical to stepping
 * the same scene solo, for any server worker count.
 *
 * Time advances on the classic fixed-tick accumulator: advance(dt)
 * banks real time per session, runs the whole ticks that fit, and
 * leaves the fractional remainder as the interpolation phase that
 * World::interpolate() consumes for rendering.
 *
 * Overload handling is two-tier and deterministic:
 *  - admission: ServerConfig::maxWorlds caps the population;
 *    createWorld/adoptWorld fail with RESOURCE_EXHAUSTED beyond it.
 *  - shedding: with ServerConfig::tickBudget set, advance() projects
 *    the coming tick bill from per-world cost estimates and, before
 *    dropping anything, demotes sheddable sessions down the step
 *    governor's degradation ladder (shedDemoteMaxRung rungs, cost
 *    scaled by shedDemoteCostScale per rung); only when the cheapest
 *    ladder still does not fit are pending ticks dropped, highest
 *    WorldId first. Calm updates promote demoted sessions back one
 *    rung at a time (shedRecoveryUpdates hysteresis).
 *    ServerConfig::mockTickSeconds replaces measured costs so tests
 *    replay identical decisions.
 *
 * Self-healing (all off by default; enabling it never perturbs a
 * healthy world's trajectory):
 *  - checkpointing: every checkpointIntervalTicks the server captures
 *    each healthy session into a per-world CheckpointRing (the K
 *    last-good snapshots, delta-encoded; staggered by session id so
 *    the capture cost spreads across updates). After the watchdog,
 *    the due sessions are captured in one parallelFor, each ring by
 *    one lane.
 *  - watchdog: a deferred invariant hard-fail, a permanent
 *    quarantine, a non-finite state, or a tick that overran
 *    ServerConfig::tickDeadline marks the world sick. The verdict
 *    reads one session's own world only, so the lane that ran the
 *    session's ticks computes it at the end of its burst; the
 *    recovery ladder then acts on the verdicts on the calling
 *    thread, in session order. Decisions key off deterministic
 *    inputs only (with mockTickSeconds supplying tick costs), so the
 *    same fault plan replays bitwise-identically at any worker
 *    count.
 *  - recovery ladder: a sick world is rolled back to its newest
 *    reconstructable checkpoint; repeated trips add a degradation
 *    floor (demoteRungsPerRetry rungs per retry) and exponential
 *    retry backoff; after maxRollbacks failed rehabilitations — or
 *    when no checkpoint is usable — the world is frozen at last-good,
 *    and after freezeUpdates more updates it is evicted with a typed
 *    Status in the recovery log. A world that stays healthy through
 *    its probation window is restored to full quality.
 *  - fault injection: ServerConfig::faultPlan scripts server-scale
 *    faults (server_faults.hh) against hosted sessions, the chaos
 *    harness for all of the above (tools/server_storm).
 */

#ifndef PARALLAX_SERVER_SERVER_HH
#define PARALLAX_SERVER_SERVER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "parallax/status.hh"
#include "physics/parallel/task_scheduler.hh"
#include "physics/world.hh"
#include "server/checkpoint_ring.hh"
#include "server/server_faults.hh"

namespace parallax
{

/**
 * Opaque session handle. Ids are assigned monotonically and never
 * reused, so a stale handle from a destroyed session fails with
 * NOT_FOUND instead of silently aliasing a new world.
 */
using WorldId = std::uint64_t;

/** Never a valid session. */
constexpr WorldId invalidWorldId = 0;

/** Why the watchdog classified a hosted world as sick. */
enum class WorldFailure : std::uint8_t
{
    None,
    /** A deferred InvariantMode::HardFail violation (see
     *  World::setDeferInvariantHardFail). */
    InvariantHardFail,
    /** At least one island or cloth is quarantined permanently —
     *  containment gave up on part of the scene. */
    PermanentQuarantine,
    /** NaN or Inf in dynamic state (worldStateFinite). */
    NonFiniteState,
    /** The last tick's (measured or mocked) cost exceeded
     *  ServerConfig::tickDeadline. */
    DeadlineOverrun,
};

/** Human-readable failure-class name. */
const char *worldFailureName(WorldFailure failure);

/** Where a session sits in the recovery lifecycle. */
enum class HealthState : std::uint8_t
{
    Healthy,
    /** Rolled back recently; healthy ticks are counting toward the
     *  probation window that lifts the recovery demotion. */
    Probation,
    /** Recovery exhausted: held at last-good state, not ticking,
     *  awaiting eviction (or operator intervention). */
    Frozen,
};

/** Human-readable health-state name. */
const char *healthStateName(HealthState state);

/** What the recovery ladder did about a watchdog trip. */
enum class RecoveryAction : std::uint8_t
{
    /** Restored the newest reconstructable checkpoint. */
    Rollback,
    /** Rollback plus a degradation-floor demotion (second and later
     *  consecutive trips). */
    RollbackDemote,
    /** No rollback attempts left (or no usable checkpoint): session
     *  frozen at its last-good state. */
    Freeze,
    /** Frozen session removed; its RecoveryRecord::status carries
     *  the typed reason. */
    Evict,
    /** Probation completed: consecutive-rollback count cleared and
     *  the recovery degradation floor lifted. */
    Heal,
};

/** Human-readable recovery-action name. */
const char *recoveryActionName(RecoveryAction action);

/** Recovery-ladder tunables (ServerConfig::recovery). */
struct RecoveryConfig
{
    /** Consecutive rollbacks tolerated before the ladder freezes the
     *  world instead of rolling it back again. */
    int maxRollbacks = 3;

    /** Retry backoff: after the Nth consecutive rollback the
     *  watchdog ignores new trips for backoffBaseTicks << (N-1)
     *  session ticks, so a persistently sick world cannot consume
     *  the server in a rollback storm. */
    std::uint64_t backoffBaseTicks = 8;

    /** Degradation-ladder rungs added per consecutive rollback
     *  (governor/governor.hh): retry N runs with a floor of
     *  N * demoteRungsPerRetry. 0 retries at full quality. */
    int demoteRungsPerRetry = 2;

    /** Healthy session ticks after a rollback before the session is
     *  declared healed (rollback count cleared, floor lifted). */
    std::uint64_t probationTicks = 64;

    /** Server updates a frozen session is retained before eviction.
     *  0 keeps frozen sessions forever (operator decides). */
    std::uint64_t freezeUpdates = 4;
};

/** Server-wide tunables. */
struct ServerConfig
{
    /** Worker threads of the shared scheduler (0 = tick worlds
     *  inline on the calling thread). */
    unsigned workerThreads = 0;

    /** Fixed tick quantum in seconds. Every hosted world must be
     *  configured with dt == tickDt: sessions joining mid-run stay
     *  tick-aligned with everyone else. */
    double tickDt = 0.01;

    /** Admission cap: sessions beyond this fail with
     *  RESOURCE_EXHAUSTED (0 = unlimited). */
    std::size_t maxWorlds = 0;

    /**
     * Load shedding: wall-clock seconds of simulation budget per
     * advance() call. 0 (the default) disables shedding — every
     * pending tick always runs. When > 0, advance() projects the
     * cost of the pending ticks from per-session estimates and
     * drops sheddable sessions' ticks, highest WorldId first, until
     * the projection fits the budget.
     */
    double tickBudget = 0.0;

    /**
     * Spiral-of-death guard: at most this many ticks are banked per
     * session per advance() call; excess elapsed time is dropped.
     * Also caps the pathological case where a huge `elapsed` would
     * demand billions of ticks. 0 disables the cap (the count is
     * still clamped to INT_MAX internally, never overflowed).
     */
    int maxTicksPerUpdate = 0;

    /**
     * Test hook: when set, per-tick wall-clock measurements are
     * replaced by this function's value for each (tick, world), so
     * shedding and watchdog-deadline decisions become a pure
     * function of the injected schedule — two runs decide
     * identically at any worker count.
     */
    std::function<double(std::uint64_t tick, WorldId world)>
        mockTickSeconds;

    // --- Shedder degradation ladder. ---

    /**
     * Before dropping a sheddable session's ticks, demote it up to
     * this many rungs down the step governor's degradation ladder
     * (clamped to StepGovernor::maxLadderLevel). 0 (the default)
     * restores the drop-only shedder.
     */
    int shedDemoteMaxRung = 0;

    /** Projected cost multiplier per shed-demotion rung (a rung-3
     *  session is priced at scale^3 of its measured cost). */
    double shedDemoteCostScale = 0.85;

    /** Hysteresis: consecutive pressure-free updates before a
     *  shed-demoted session is promoted back one rung. */
    int shedRecoveryUpdates = 4;

    // --- Self-healing. ---

    /**
     * Checkpoint cadence in session ticks; 0 (the default) disables
     * checkpointing. Captures are staggered by session id so a fleet
     * does not checkpoint in lockstep.
     */
    int checkpointIntervalTicks = 0;

    /** Checkpoints retained per session (CheckpointRing capacity,
     *  anchor + deltas). */
    std::size_t checkpointRingSize = 3;

    /**
     * Watchdog deadline in seconds for one world tick; a session
     * whose last (measured or mocked) tick exceeds it is classified
     * DeadlineOverrun. 0 (the default) disables the deadline.
     */
    double tickDeadline = 0.0;

    /** Recovery-ladder tuning (used once the watchdog is active). */
    RecoveryConfig recovery;

    /** Scripted server-scale faults (empty = none). */
    ServerFaultPlan faultPlan;

    /** One human-readable message per problem (empty = valid). */
    std::vector<std::string> validate() const;
};

/** Per-session knobs, fixed at create/adopt time. */
struct SessionConfig
{
    /** May the shedder drop this session's ticks under overload?
     *  Non-sheddable sessions always run every pending tick. */
    bool sheddable = true;
};

/** Run-cumulative server counters. */
struct ServerStats
{
    /** World-ticks executed across all sessions. */
    std::uint64_t ticksRun = 0;
    /** World-ticks dropped by the shedder. */
    std::uint64_t ticksShed = 0;
    /** Sessions refused by the admission cap. */
    std::uint64_t admissionRejects = 0;
    /** advance() + tickAll() calls. */
    std::uint64_t updates = 0;
    /** Checkpoints captured into session rings. */
    std::uint64_t checkpoints = 0;
    /** Watchdog classifications of a sick world (pre-ladder). */
    std::uint64_t watchdogTrips = 0;
    /** Successful checkpoint rollbacks. */
    std::uint64_t rollbacks = 0;
    /** Probation completions — worlds restored to full health. */
    std::uint64_t recoveries = 0;
    /** Degradation-floor demotions (recovery ladder + shedder). */
    std::uint64_t demotions = 0;
    /** Sessions frozen by the recovery ladder. */
    std::uint64_t freezes = 0;
    /** Frozen sessions evicted. */
    std::uint64_t evictions = 0;
    /** ServerFaultPlan events fired. */
    std::uint64_t faultsInjected = 0;
    /** Full snapshots forced onto dirty delta streams. */
    std::uint64_t resyncFulls = 0;
    /** Measured (or mocked) seconds of the most recent update. */
    double lastUpdateSeconds = 0.0;
};

/** Snapshot of one session's recovery lifecycle (sessionHealth). */
struct SessionHealth
{
    HealthState state = HealthState::Healthy;
    /** Most recent watchdog classification (None when healthy). */
    WorldFailure lastFailure = WorldFailure::None;
    /** Consecutive rollbacks since the last Heal. */
    std::uint32_t consecutiveRollbacks = 0;
    std::uint64_t totalRollbacks = 0;
    /** Active recovery-ladder degradation floor. */
    int recoveryRung = 0;
    /** Active shedder degradation rung. */
    int shedRung = 0;
    /** Restorable checkpoints in the session's ring. */
    std::size_t checkpoints = 0;
    /** Ring bytes held (the memory-bound gauge). */
    std::size_t checkpointBytes = 0;
    /** Session tick of the newest checkpoint. */
    std::uint64_t lastCheckpointTick = 0;
};

/** One recovery-ladder decision, in decision order. */
struct RecoveryRecord
{
    /** ServerStats::updates when the decision was made. */
    std::uint64_t update = 0;
    WorldId world = invalidWorldId;
    WorldFailure failure = WorldFailure::None;
    RecoveryAction action = RecoveryAction::Rollback;
    /** Session tick (ticks run) at the decision. */
    std::uint64_t tick = 0;
    /** Session tick of the checkpoint restored (rollbacks). */
    std::uint64_t restoredTick = 0;
    /** Degradation floor in force after the action. */
    int rung = 0;
    /** Typed outcome — notably the eviction reason. */
    Status status;
};

/**
 * The multi-world server. Not thread-safe: one thread owns the
 * session API; parallelism happens inside advance()/tickAll().
 */
class Server
{
  public:
    explicit Server(ServerConfig config = ServerConfig());
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    // --- Session lifecycle. ---

    /**
     * Build an empty world from `config` and host it. The config's
     * dt is forced to tickDt and its worker count to 0 (the server's
     * scheduler supplies the parallelism); everything else — solver
     * iterations, governor frameBudget and ladder tuning, invariant
     * policy — is the session's own. Fails with RESOURCE_EXHAUSTED
     * past the admission cap and INVALID_ARGUMENT on a config the
     * World constructor would reject. On success `id` names the new
     * session and the world's metrics scope is set to "world.<id>".
     */
    Status createWorld(const WorldConfig &config, WorldId &id,
                       const SessionConfig &session = SessionConfig());

    /**
     * Host an already-built world (scene included). The world must
     * have workerThreads == 0 and dt == tickDt — anything else fails
     * with INVALID_ARGUMENT (FAILED_PRECONDITION would suggest
     * retrying later; these are caller bugs).
     */
    Status adoptWorld(std::unique_ptr<World> world, WorldId &id,
                      const SessionConfig &session = SessionConfig());

    /** Remove a session and free its world (checkpoint ring
     *  included). NOT_FOUND on a stale or never-issued id. */
    Status destroyWorld(WorldId id);

    /** Detach and return a session's world (e.g. to migrate it);
     *  the session is removed and the world's hosted-mode settings
     *  (metrics scope, deferred hard-fail, degradation floor) are
     *  reset so it behaves solo again. Null when `id` is unknown. */
    std::unique_ptr<World> releaseWorld(WorldId id);

    std::size_t worldCount() const { return sessions_.size(); }

    /** The hosted world, or null for an unknown id. The pointer is
     *  valid until destroyWorld/releaseWorld on that id. */
    World *world(WorldId id);
    const World *world(WorldId id) const;

    /** Session ids in deterministic (creation) order. */
    std::vector<WorldId> worldIds() const;

    // --- Time. ---

    /**
     * Bank `elapsed` seconds on every session's accumulator and run
     * the whole ticks that fit, in parallel across sessions on the
     * shared scheduler. The fractional remainder becomes phase().
     * Applies the shedding policy when tickBudget is set, then the
     * self-healing pass (fault injection, watchdog, checkpoints)
     * when any of it is configured.
     */
    Status advance(double elapsed);

    /** Run exactly `ticks` ticks on every session, bypassing the
     *  accumulators and the shedder (benchmark/test path). The
     *  self-healing pass still runs — recovery tests drive the
     *  server tick-exactly through this. */
    Status tickAll(int ticks = 1);

    /**
     * Interpolation phase of a session: the banked fraction of a
     * tick in [0, 1). Feed it to World::interpolate() between the
     * render samples bracketing the current tick. Unknown ids
     * return 0.
     */
    double phase(WorldId id) const;

    // --- Snapshot streaming (client join / rewind). ---

    /** Capture a session's full snapshot blob. NOT_FOUND on a stale
     *  id. */
    Status snapshotWorld(WorldId id,
                         std::vector<std::uint8_t> &out) const;

    /**
     * Capture a session's state as a delta against `base` (a full
     * snapshot blob previously streamed to the same client), or as
     * a full snapshot when `base` is null — the common join/rewind
     * stream: one full blob, then per-tick deltas.
     *
     * When the session's delta stream is dirty — a rollback rewound
     * the world, or a previous delta failed to apply — the base is
     * ignored and a full snapshot is sent (detect it client-side
     * with isSnapshotDelta), resynchronizing the stream instead of
     * emitting deltas against a base the client no longer shares.
     */
    Status streamSnapshot(WorldId id,
                          const std::vector<std::uint8_t> *base,
                          std::vector<std::uint8_t> &out);

    /**
     * Restore a session from `blob` — a full snapshot, or a delta
     * (isSnapshotDelta) applied against `base`. A delta without its
     * base fails with FAILED_PRECONDITION. A delta that fails to
     * apply marks the session's outgoing stream dirty (the chain is
     * broken in both directions; the next streamSnapshot resyncs
     * with a full blob).
     */
    Status restoreWorld(WorldId id,
                        const std::vector<std::uint8_t> &blob,
                        const std::vector<std::uint8_t> *base =
                            nullptr);

    // --- Health / recovery. ---

    /** A session's recovery-lifecycle snapshot. NOT_FOUND on a
     *  stale id. */
    Status sessionHealth(WorldId id, SessionHealth &out) const;

    /** Recovery-ladder decisions in decision order (bounded: the
     *  oldest entries are dropped past maxRecoveryLogEntries). */
    const std::vector<RecoveryRecord> &recoveryLog() const
    { return recoveryLog_; }

    /** recoveryLog() retention bound. */
    static constexpr std::size_t maxRecoveryLogEntries = 4096;

    // --- Observability. ---

    const ServerStats &stats() const { return stats_; }

    /** The shared scheduler (for lane/steal counters). */
    const TaskScheduler &scheduler() const { return scheduler_; }

    /**
     * One single-line JSON object of server-level metrics, fixed key
     * order ("pax_server" marker). Per-world lines come from
     * world(id)->metricsLine(), already scoped as "world.<id>.*".
     */
    std::string metricsLine() const;

    const ServerConfig &config() const { return config_; }

  private:
    struct Session
    {
        WorldId id = invalidWorldId;
        std::unique_ptr<World> world;
        SessionConfig config;
        /** Banked real time not yet consumed by whole ticks. */
        double accumulator = 0.0;
        /** Whole ticks advance() decided to run this update. */
        int pendingTicks = 0;
        /** Latest measured (or mocked) seconds of one tick: the
         *  shedder's cost estimate and the watchdog's deadline
         *  sample. */
        double lastTickSeconds = 0.0;
        /** Ticks this session has executed. Monotonic — rollbacks
         *  rewind the world's stepCount, never this: fault schedules
         *  and backoff windows stay in a time that only moves
         *  forward. */
        std::uint64_t ticksRun = 0;

        // --- Self-healing state. ---

        CheckpointRing ring;
        /** Session tick at/after which the next checkpoint fires. */
        std::uint64_t nextCheckpointTick = 0;
        HealthState health = HealthState::Healthy;
        WorldFailure lastFailure = WorldFailure::None;
        std::uint32_t consecutiveRollbacks = 0;
        std::uint64_t totalRollbacks = 0;
        /** Backoff gate: watchdog trips before this tick are
         *  ignored. */
        std::uint64_t nextRetryTick = 0;
        /** Healthy at/after this tick completes probation. */
        std::uint64_t probationUntilTick = 0;
        /** Recovery-ladder degradation floor. */
        int recoveryRung = 0;
        /** Updates spent frozen (drives eviction). */
        std::uint64_t frozenUpdates = 0;
        /** Outgoing delta stream needs a full-snapshot resync. */
        bool streamDirty = false;
        /** Pending StalledTick fault: >= 0 overrides the next tick
         *  burst's cost sample. */
        double stallSeconds = -1.0;
        /** classify() of this update, stored by the lane that ran
         *  the session's ticks (or by the watchdog for a session
         *  that did not tick) and reused by takeCheckpoints. Every
         *  update clears it before the burst, and a rollback or a
         *  heal clears it too. */
        std::optional<WorldFailure> verdict;

        // --- Shedder ladder state. ---

        /** Shedder degradation rung (0 = full quality). */
        int shedRung = 0;
        /** Consecutive pressure-free updates (hysteresis). */
        int shedCalmUpdates = 0;
    };

    Session *findSession(WorldId id);
    const Session *findSession(WorldId id) const;

    /** Admission check + registration shared by create/adopt. */
    Status admit(std::unique_ptr<World> world,
                 const SessionConfig &session, WorldId &id);

    /** Any self-healing machinery configured? When false the update
     *  path is byte-for-byte the pre-recovery server. */
    bool selfHealingEnabled() const;

    /** Shed-rung-scaled cost estimate for one pending tick. */
    double tickCostEstimate(const Session &s) const;

    /** Push the session's combined degradation floor (recovery +
     *  shed rung) into the world. */
    void applyDegradationFloor(Session &s);

    /** Demote, then drop, until the projected bill fits the budget.
     *  Returns true when any action was taken (pressure). */
    bool shedPendingTicks();

    /** Promote calm shed-demoted sessions back up (hysteresis). */
    void relaxShedRungs(bool pressured);

    /** Run every session's pendingTicks on the shared scheduler;
     *  with self-healing on, each lane also stores the verdict of
     *  every session it ticked. */
    void runPendingTicks();

    /** Fire due ServerFaultPlan events (calling thread, session
     *  order, before the tick burst). */
    void injectFaults();

    /** Classify a session against the failure ladder. */
    WorldFailure classify(const Session &s) const;

    /** The session's verdict of this update: the stored one, else
     *  classify() now, stored for reuse. */
    WorldFailure verdictOf(Session &s);

    /** Drive the recovery ladder from every session's verdict, in
     *  session order; then age and evict frozen sessions. */
    void watchdogSweep();

    /** Pick the due, healthy sessions (staggered) in session order,
     *  then capture them into their rings in one parallelFor. */
    void takeCheckpoints();

    /** Roll `s` back to its newest reconstructable checkpoint.
     *  Returns the restore status; fills `restoredTick`. */
    Status attemptRollback(Session &s, std::uint64_t &restoredTick);

    void recordRecovery(const Session &s, WorldFailure failure,
                        RecoveryAction action,
                        std::uint64_t restoredTick, Status status);

    ServerConfig config_;
    TaskScheduler scheduler_;
    std::vector<Session> sessions_;
    /** Sessions with pending ticks, and sessions due a checkpoint:
     *  rebuilt every update, kept so their storage is reused. */
    std::vector<Session *> active_;
    std::vector<Session *> due_;
    WorldId nextId_ = 1;
    ServerStats stats_;
    /** One flag per ServerFaultPlan event: fired yet? */
    std::vector<bool> faultFired_;
    std::vector<RecoveryRecord> recoveryLog_;
};

} // namespace parallax

#endif // PARALLAX_SERVER_SERVER_HH
