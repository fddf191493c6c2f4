/**
 * @file
 * Multi-world server implementation. See server.hh for the model.
 *
 * The scheduling trick is a single parallelFor over the sessions
 * with pending ticks, one per chunk: each chunk is one whole
 * session, so an idle lane steals an entire world's tick burst at
 * once. A session is only ever touched by the one lane executing its
 * chunk, which makes the per-session bookkeeping (tick counters,
 * cost samples) race-free without any locks.
 *
 * Everything the self-healing layer decides — fault firing, the
 * recovery ladder, checkpoint cadence — runs on the calling thread,
 * outside the parallelFor, in session order, from deterministic
 * inputs (session tick counters and, in tests, mockTickSeconds).
 * The lanes do only per-session work that reads and writes nothing
 * but the session they hold: World::step(), the watchdog verdict
 * (a pure function of the session's own world and cost sample),
 * and, in a second parallelFor after the watchdog, the capture of a
 * due checkpoint into the session's own ring. Recovery decisions
 * and checkpoint bytes therefore replay bitwise-identically at any
 * worker count.
 */

#include "server/server.hh"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <limits>

#include "physics/debug/capture.hh"
#include "physics/governor/governor.hh"
#include "sim/logging.hh"

namespace parallax
{

namespace
{

std::string
joinErrors(const std::vector<std::string> &errors)
{
    std::string joined;
    for (const std::string &e : errors) {
        if (!joined.empty())
            joined += "; ";
        joined += e;
    }
    return joined;
}

/** Whole ticks banked in `accumulator`, robust to the float error
 *  of repeated `elapsed` additions (2.9999999996 ticks is 3).
 *  Clamped to [0, max_ticks] (max_ticks <= 0 means INT_MAX): the
 *  double->int cast is UB once the quotient exceeds INT_MAX, so a
 *  huge `elapsed` must never reach the cast unclamped. */
int
wholeTicks(double accumulator, double tick_dt, int max_ticks)
{
    const double ticks = std::floor(accumulator / tick_dt + 1e-9);
    const int cap = max_ticks > 0 ? max_ticks : INT_MAX;
    if (ticks <= 0)
        return 0;
    if (ticks >= static_cast<double>(cap))
        return cap;
    return static_cast<int>(ticks);
}

} // namespace

const char *
worldFailureName(WorldFailure failure)
{
    switch (failure) {
    case WorldFailure::None:
        return "none";
    case WorldFailure::InvariantHardFail:
        return "invariant_hardfail";
    case WorldFailure::PermanentQuarantine:
        return "permanent_quarantine";
    case WorldFailure::NonFiniteState:
        return "nonfinite_state";
    case WorldFailure::DeadlineOverrun:
        return "deadline_overrun";
    }
    return "unknown";
}

const char *
healthStateName(HealthState state)
{
    switch (state) {
    case HealthState::Healthy:
        return "healthy";
    case HealthState::Probation:
        return "probation";
    case HealthState::Frozen:
        return "frozen";
    }
    return "unknown";
}

const char *
recoveryActionName(RecoveryAction action)
{
    switch (action) {
    case RecoveryAction::Rollback:
        return "rollback";
    case RecoveryAction::RollbackDemote:
        return "rollback_demote";
    case RecoveryAction::Freeze:
        return "freeze";
    case RecoveryAction::Evict:
        return "evict";
    case RecoveryAction::Heal:
        return "heal";
    }
    return "unknown";
}

std::vector<std::string>
ServerConfig::validate() const
{
    std::vector<std::string> errors;
    auto check = [&errors](bool ok, std::string msg) {
        if (!ok)
            errors.push_back(std::move(msg));
    };
    check(std::isfinite(tickDt) && tickDt > 0,
          "tickDt must be positive and finite (got " +
              std::to_string(tickDt) + ")");
    check(workerThreads <= 1024,
          "workerThreads must be <= 1024 (got " +
              std::to_string(workerThreads) + ")");
    check(std::isfinite(tickBudget) && tickBudget >= 0,
          "tickBudget must be >= 0 and finite (got " +
              std::to_string(tickBudget) + ")");
    check(maxTicksPerUpdate >= 0,
          "maxTicksPerUpdate must be >= 0 (got " +
              std::to_string(maxTicksPerUpdate) + ")");
    check(shedDemoteMaxRung >= 0,
          "shedDemoteMaxRung must be >= 0 (got " +
              std::to_string(shedDemoteMaxRung) + ")");
    check(std::isfinite(shedDemoteCostScale) &&
              shedDemoteCostScale > 0 && shedDemoteCostScale <= 1,
          "shedDemoteCostScale must be in (0, 1] (got " +
              std::to_string(shedDemoteCostScale) + ")");
    check(shedRecoveryUpdates >= 1,
          "shedRecoveryUpdates must be >= 1 (got " +
              std::to_string(shedRecoveryUpdates) + ")");
    check(checkpointIntervalTicks >= 0,
          "checkpointIntervalTicks must be >= 0 (got " +
              std::to_string(checkpointIntervalTicks) + ")");
    check(checkpointRingSize >= 1,
          "checkpointRingSize must be >= 1 (got " +
              std::to_string(checkpointRingSize) + ")");
    check(std::isfinite(tickDeadline) && tickDeadline >= 0,
          "tickDeadline must be >= 0 and finite (got " +
              std::to_string(tickDeadline) + ")");
    check(recovery.maxRollbacks >= 0,
          "recovery.maxRollbacks must be >= 0 (got " +
              std::to_string(recovery.maxRollbacks) + ")");
    check(recovery.backoffBaseTicks >= 1,
          "recovery.backoffBaseTicks must be >= 1 (got " +
              std::to_string(recovery.backoffBaseTicks) + ")");
    check(recovery.demoteRungsPerRetry >= 0,
          "recovery.demoteRungsPerRetry must be >= 0 (got " +
              std::to_string(recovery.demoteRungsPerRetry) + ")");
    return errors;
}

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      scheduler_(SchedulerConfig{config_.workerThreads})
{
    const std::vector<std::string> errors = config_.validate();
    if (!errors.empty())
        fatal("invalid ServerConfig: %s", joinErrors(errors).c_str());
    faultFired_.assign(config_.faultPlan.events.size(), false);
}

Server::~Server() = default;

bool
Server::selfHealingEnabled() const
{
    return config_.checkpointIntervalTicks > 0 ||
           config_.tickDeadline > 0 || !config_.faultPlan.empty();
}

Server::Session *
Server::findSession(WorldId id)
{
    for (Session &s : sessions_)
        if (s.id == id)
            return &s;
    return nullptr;
}

const Server::Session *
Server::findSession(WorldId id) const
{
    for (const Session &s : sessions_)
        if (s.id == id)
            return &s;
    return nullptr;
}

Status
Server::admit(std::unique_ptr<World> world,
              const SessionConfig &session, WorldId &id)
{
    if (config_.maxWorlds > 0 &&
        sessions_.size() >= config_.maxWorlds) {
        ++stats_.admissionRejects;
        return resourceExhausted(
            "admission refused: server hosts " +
            std::to_string(sessions_.size()) + " worlds, cap is " +
            std::to_string(config_.maxWorlds));
    }
    Session s;
    s.id = nextId_++;
    s.world = std::move(world);
    s.config = session;
    s.world->setMetricsScope("world." + std::to_string(s.id));
    if (selfHealingEnabled()) {
        // Hosted worlds must never take the process down: a HardFail
        // invariant becomes a sticky code the watchdog reads.
        s.world->setDeferInvariantHardFail(true);
        s.ring.setCapacity(config_.checkpointRingSize);
        if (config_.checkpointIntervalTicks > 0) {
            // Stagger first captures by id so a fleet admitted
            // together does not checkpoint in lockstep forever.
            s.nextCheckpointTick =
                1 + s.id % static_cast<std::uint64_t>(
                               config_.checkpointIntervalTicks);
        }
    }
    id = s.id;
    sessions_.push_back(std::move(s));
    return okStatus();
}

Status
Server::createWorld(const WorldConfig &config, WorldId &id,
                    const SessionConfig &session)
{
    WorldConfig cfg = config;
    cfg.dt = config_.tickDt;
    cfg.workerThreads = 0;
    const std::vector<std::string> errors = cfg.validate();
    if (!errors.empty())
        return invalidArgument("invalid WorldConfig: " +
                               joinErrors(errors));
    return admit(std::make_unique<World>(std::move(cfg)), session,
                 id);
}

Status
Server::adoptWorld(std::unique_ptr<World> world, WorldId &id,
                   const SessionConfig &session)
{
    if (!world)
        return invalidArgument("adoptWorld: null world");
    if (world->config().workerThreads != 0) {
        return invalidArgument(
            "adoptWorld: world has workerThreads == " +
            std::to_string(world->config().workerThreads) +
            "; hosted worlds must be single-threaded (the server's "
            "scheduler supplies the parallelism)");
    }
    if (world->config().dt != config_.tickDt) {
        return invalidArgument(
            "adoptWorld: world dt " +
            std::to_string(world->config().dt) +
            " != server tickDt " + std::to_string(config_.tickDt));
    }
    return admit(std::move(world), session, id);
}

Status
Server::destroyWorld(WorldId id)
{
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
        if (it->id == id) {
            // The Session owns the world and its checkpoint ring;
            // erasing frees both (the churn test pins this down).
            sessions_.erase(it);
            return okStatus();
        }
    }
    return notFound("no session with WorldId " + std::to_string(id));
}

std::unique_ptr<World>
Server::releaseWorld(WorldId id)
{
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
        if (it->id == id) {
            std::unique_ptr<World> world = std::move(it->world);
            sessions_.erase(it);
            world->setMetricsScope("");
            // Back to solo semantics: hard-fails abort again, and
            // any server-imposed quality floor is lifted.
            world->setDeferInvariantHardFail(false);
            world->setDegradationFloor(0);
            return world;
        }
    }
    return nullptr;
}

World *
Server::world(WorldId id)
{
    Session *s = findSession(id);
    return s ? s->world.get() : nullptr;
}

const World *
Server::world(WorldId id) const
{
    const Session *s = findSession(id);
    return s ? s->world.get() : nullptr;
}

std::vector<WorldId>
Server::worldIds() const
{
    std::vector<WorldId> ids;
    ids.reserve(sessions_.size());
    for (const Session &s : sessions_)
        ids.push_back(s.id);
    return ids;
}

double
Server::phase(WorldId id) const
{
    const Session *s = findSession(id);
    if (!s)
        return 0.0;
    const double p = s->accumulator / config_.tickDt;
    return std::min(std::max(p, 0.0), 1.0);
}

double
Server::tickCostEstimate(const Session &s) const
{
    double cost = config_.mockTickSeconds
                      ? config_.mockTickSeconds(s.ticksRun, s.id)
                      : s.lastTickSeconds;
    // A demoted session runs a cheaper ladder plan; price it so,
    // or the shedder would keep demoting past the point of relief.
    if (s.shedRung > 0)
        cost *= std::pow(config_.shedDemoteCostScale, s.shedRung);
    return cost;
}

void
Server::applyDegradationFloor(Session &s)
{
    s.world->setDegradationFloor(
        std::max(s.recoveryRung, s.shedRung));
}

bool
Server::shedPendingTicks()
{
    // Projected bill: pending ticks priced at each session's latest
    // cost sample (or the injected schedule). Sessions that have
    // never ticked price at zero, so a cold server always admits its
    // first update — shedding needs evidence.
    double projected = 0.0;
    for (const Session &s : sessions_)
        projected += s.pendingTicks * tickCostEstimate(s);
    if (projected <= config_.tickBudget)
        return false;

    std::vector<Session *> order;
    order.reserve(sessions_.size());
    for (Session &s : sessions_)
        if (s.config.sheddable && s.pendingTicks > 0)
            order.push_back(&s);
    std::sort(order.begin(), order.end(),
              [](const Session *a, const Session *b) {
                  return a->id > b->id;
              });

    // Tier one: demote quality before dropping time. One rung per
    // session per pass, newest first, so the pain spreads across the
    // sheddable population instead of crushing one session.
    if (config_.shedDemoteMaxRung > 0) {
        const int max_rung = std::min(config_.shedDemoteMaxRung,
                                      StepGovernor::maxLadderLevel);
        bool progress = true;
        while (projected > config_.tickBudget && progress) {
            progress = false;
            for (Session *s : order) {
                if (projected <= config_.tickBudget)
                    break;
                if (s->shedRung >= max_rung)
                    continue;
                projected -=
                    s->pendingTicks * tickCostEstimate(*s);
                ++s->shedRung;
                s->shedCalmUpdates = 0;
                applyDegradationFloor(*s);
                ++stats_.demotions;
                projected +=
                    s->pendingTicks * tickCostEstimate(*s);
                progress = true;
            }
        }
        if (projected <= config_.tickBudget)
            return true;
    }

    // Tier two: drop whole sessions' pending ticks, newest (highest
    // id) first — a deterministic order that favors long-lived
    // sessions, and one tests can predict exactly. Non-sheddable
    // sessions always run.
    for (Session *s : order) {
        if (projected <= config_.tickBudget)
            break;
        projected -= s->pendingTicks * tickCostEstimate(*s);
        stats_.ticksShed += s->pendingTicks;
        s->pendingTicks = 0;
    }
    return true;
}

void
Server::relaxShedRungs(bool pressured)
{
    if (config_.shedDemoteMaxRung <= 0)
        return;
    for (Session &s : sessions_) {
        if (s.shedRung == 0)
            continue;
        if (pressured) {
            s.shedCalmUpdates = 0;
            continue;
        }
        if (++s.shedCalmUpdates >= config_.shedRecoveryUpdates) {
            --s.shedRung;
            s.shedCalmUpdates = 0;
            applyDegradationFloor(s);
        }
    }
}

void
Server::injectFaults()
{
    if (config_.faultPlan.empty())
        return;
    const std::vector<ServerFaultEvent> &events =
        config_.faultPlan.events;
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (faultFired_[i])
            continue;
        const ServerFaultEvent &e = events[i];
        Session *s = findSession(e.world);
        if (!s || s->ticksRun < e.tick)
            continue;
        faultFired_[i] = true;
        ++stats_.faultsInjected;
        switch (e.kind) {
        case ServerFaultKind::NanState:
        case ServerFaultKind::HugeImpulse: {
            std::vector<RigidBody *> dynamic;
            for (const auto &b : s->world->bodies())
                if (!b->isStatic())
                    dynamic.push_back(b.get());
            if (dynamic.empty())
                break;
            RigidBody *body = dynamic[e.target % dynamic.size()];
            if (e.kind == ServerFaultKind::NanState) {
                const double nan =
                    std::numeric_limits<double>::quiet_NaN();
                body->setLinearVelocity(Vec3(nan, nan, nan));
            } else {
                body->applyImpulse(Vec3(e.magnitude, 0.0, 0.0),
                                   body->position());
            }
            break;
        }
        case ServerFaultKind::CorruptCheckpoint:
            s->ring.corruptNewest();
            break;
        case ServerFaultKind::StalledTick:
            s->stallSeconds = e.magnitude;
            break;
        }
    }
}

void
Server::runPendingTicks()
{
    active_.clear();
    for (Session &s : sessions_) {
        s.verdict.reset();
        if (s.pendingTicks > 0)
            active_.push_back(&s);
    }
    if (active_.empty()) {
        stats_.lastUpdateSeconds = 0.0;
        return;
    }

    const bool judge = selfHealingEnabled();
    const auto wall_start = std::chrono::steady_clock::now();
    // One session per chunk: the maximal stealing surface.
    scheduler_.parallelFor(
        active_.size(),
        [this, judge](std::size_t begin, std::size_t end,
                      unsigned /*lane*/) {
            for (std::size_t i = begin; i < end; ++i) {
                Session &s = *active_[i];
                for (int t = 0; t < s.pendingTicks; ++t) {
                    if (config_.mockTickSeconds) {
                        s.lastTickSeconds =
                            config_.mockTickSeconds(s.ticksRun,
                                                    s.id);
                        s.world->step();
                    } else {
                        const auto t0 =
                            std::chrono::steady_clock::now();
                        s.world->step();
                        const auto t1 =
                            std::chrono::steady_clock::now();
                        s.lastTickSeconds =
                            std::chrono::duration<double>(t1 - t0)
                                .count();
                    }
                    ++s.ticksRun;
                }
                // A scripted stall overrides the burst's cost sample
                // (this session belongs to this lane alone — no
                // race). Consumed once: the next burst measures
                // normally again.
                if (s.stallSeconds >= 0.0) {
                    s.lastTickSeconds = s.stallSeconds;
                    s.stallSeconds = -1.0;
                }
                // The watchdog's verdict reads this session alone,
                // cost sample included, so it is taken here, after
                // the stall override, while the world is warm in
                // this lane's cache.
                if (judge)
                    s.verdict = classify(s);
            }
        });
    const auto wall_end = std::chrono::steady_clock::now();
    stats_.lastUpdateSeconds =
        std::chrono::duration<double>(wall_end - wall_start).count();

    // Merge per-session counters on the calling thread, after the
    // parallelFor barrier: no lane contention on the global stats.
    std::uint64_t ran = 0;
    for (Session *s : active_) {
        ran += static_cast<std::uint64_t>(s->pendingTicks);
        s->pendingTicks = 0;
    }
    stats_.ticksRun += ran;
}

WorldFailure
Server::classify(const Session &s) const
{
    // Severity order: an explicit invariant verdict outranks the
    // cheap numeric probe, which outranks the timing symptom.
    if (!s.world->invariantHardFailure().empty())
        return WorldFailure::InvariantHardFail;
    if (s.world->permanentQuarantineCount() > 0)
        return WorldFailure::PermanentQuarantine;
    if (!worldStateFinite(*s.world))
        return WorldFailure::NonFiniteState;
    if (config_.tickDeadline > 0 &&
        s.lastTickSeconds > config_.tickDeadline)
        return WorldFailure::DeadlineOverrun;
    return WorldFailure::None;
}

WorldFailure
Server::verdictOf(Session &s)
{
    if (!s.verdict)
        s.verdict = classify(s);
    return *s.verdict;
}

Status
Server::attemptRollback(Session &s, std::uint64_t &restoredTick)
{
    Status last = failedPrecondition(
        "no checkpoint available for world " + std::to_string(s.id));
    // Newest first; a corrupt entry (checksum mismatch) or one the
    // world rejects falls through to the next-older checkpoint —
    // entries are encoded independently against the ring's anchor,
    // so one bad blob never poisons the rest.
    for (std::size_t i = 0; i < s.ring.size(); ++i) {
        std::vector<std::uint8_t> full;
        Status st = s.ring.reconstruct(i, full);
        if (!st.ok()) {
            last = std::move(st);
            continue;
        }
        st = s.world->restoreState(full);
        if (!st.ok()) {
            last = std::move(st);
            continue;
        }
        restoredTick = s.ring.tickAt(i);
        // Entries newer than the restore point captured states on
        // the now-abandoned (possibly poisoned) timeline: restart
        // the ring from the proven-good snapshot.
        s.ring.clear();
        s.ring.push(restoredTick, std::move(full));
        return okStatus();
    }
    return last;
}

void
Server::recordRecovery(const Session &s, WorldFailure failure,
                       RecoveryAction action,
                       std::uint64_t restoredTick, Status status)
{
    RecoveryRecord r;
    r.update = stats_.updates;
    r.world = s.id;
    r.failure = failure;
    r.action = action;
    r.tick = s.ticksRun;
    r.restoredTick = restoredTick;
    r.rung = std::max(s.recoveryRung, s.shedRung);
    r.status = std::move(status);
    if (recoveryLog_.size() >= maxRecoveryLogEntries)
        recoveryLog_.erase(recoveryLog_.begin());
    recoveryLog_.push_back(std::move(r));
}

void
Server::watchdogSweep()
{
    const RecoveryConfig &rec = config_.recovery;
    std::vector<WorldId> evict;
    for (Session &s : sessions_) {
        if (s.health == HealthState::Frozen) {
            ++s.frozenUpdates;
            if (rec.freezeUpdates > 0 &&
                s.frozenUpdates >= rec.freezeUpdates) {
                recordRecovery(
                    s, s.lastFailure, RecoveryAction::Evict, 0,
                    dataLoss("world " + std::to_string(s.id) +
                             " evicted: unrecoverable after " +
                             std::to_string(s.totalRollbacks) +
                             " rollbacks (" +
                             worldFailureName(s.lastFailure) + ")"));
                ++stats_.evictions;
                evict.push_back(s.id);
            }
            continue;
        }

        // Sessions that ticked carry the verdict their lane took;
        // the rest are classified here, in session order.
        const WorldFailure failure = verdictOf(s);
        if (failure == WorldFailure::None) {
            if (s.health == HealthState::Probation &&
                s.ticksRun >= s.probationUntilTick) {
                // A healed (or rolled-back) session is classified
                // afresh before its checkpoint.
                s.verdict.reset();
                s.health = HealthState::Healthy;
                s.consecutiveRollbacks = 0;
                s.recoveryRung = 0;
                s.lastFailure = WorldFailure::None;
                applyDegradationFloor(s);
                ++stats_.recoveries;
                recordRecovery(s, WorldFailure::None,
                               RecoveryAction::Heal, 0, okStatus());
                s.world->markRecoveryEvent(
                    "server_heal",
                    static_cast<std::int64_t>(s.id));
            }
            continue;
        }

        ++stats_.watchdogTrips;
        s.lastFailure = failure;
        // Backoff: a world that keeps re-tripping right after a
        // rollback must not consume the server in a rollback storm;
        // it runs sick (deterministically) until the window passes.
        if (s.ticksRun < s.nextRetryTick)
            continue;

        const int attempt =
            static_cast<int>(s.consecutiveRollbacks);
        if (attempt >= rec.maxRollbacks) {
            s.health = HealthState::Frozen;
            s.frozenUpdates = 0;
            ++stats_.freezes;
            recordRecovery(
                s, failure, RecoveryAction::Freeze, 0,
                unavailable("world " + std::to_string(s.id) +
                            " frozen: rollback budget exhausted (" +
                            std::to_string(rec.maxRollbacks) + ")"));
            s.world->markRecoveryEvent(
                "server_freeze", static_cast<std::int64_t>(s.id));
            continue;
        }

        std::uint64_t restored_tick = 0;
        Status st = attemptRollback(s, restored_tick);
        if (!st.ok()) {
            s.health = HealthState::Frozen;
            s.frozenUpdates = 0;
            ++stats_.freezes;
            recordRecovery(s, failure, RecoveryAction::Freeze, 0,
                           std::move(st));
            s.world->markRecoveryEvent(
                "server_freeze", static_cast<std::int64_t>(s.id));
            continue;
        }

        s.verdict.reset();
        ++s.consecutiveRollbacks;
        ++s.totalRollbacks;
        ++stats_.rollbacks;
        RecoveryAction action = RecoveryAction::Rollback;
        const int rung =
            std::min(StepGovernor::maxLadderLevel,
                     (static_cast<int>(s.consecutiveRollbacks) - 1) *
                         rec.demoteRungsPerRetry);
        if (rung > s.recoveryRung) {
            s.recoveryRung = rung;
            ++stats_.demotions;
            action = RecoveryAction::RollbackDemote;
        }
        applyDegradationFloor(s);
        s.health = HealthState::Probation;
        s.probationUntilTick = s.ticksRun + rec.probationTicks;
        const unsigned shift = std::min(
            s.consecutiveRollbacks - 1, std::uint32_t(20));
        s.nextRetryTick =
            s.ticksRun + (rec.backoffBaseTicks << shift);
        // The rewind invalidated every delta base clients hold.
        s.streamDirty = true;
        s.world->markRecoveryEvent(
            "server_rollback",
            static_cast<std::int64_t>(restored_tick));
        recordRecovery(s, failure, action, restored_tick,
                       okStatus());
    }

    for (WorldId id : evict)
        destroyWorld(id);
}

void
Server::takeCheckpoints()
{
    if (config_.checkpointIntervalTicks <= 0)
        return;
    due_.clear();
    for (Session &s : sessions_) {
        if (s.health == HealthState::Frozen)
            continue;
        if (s.ticksRun == 0 || s.ticksRun < s.nextCheckpointTick)
            continue;
        // Only provably-healthy states enter the ring: a checkpoint
        // of a sick world would make rollback a no-op.
        if (verdictOf(s) != WorldFailure::None)
            continue;
        due_.push_back(&s);
        s.nextCheckpointTick =
            s.ticksRun + static_cast<std::uint64_t>(
                             config_.checkpointIntervalTicks);
        ++stats_.checkpoints;
    }
    // Capture and encode on the lanes: each chunk reads one world
    // and writes one ring, so the bytes do not depend on the lane.
    scheduler_.parallelFor(
        due_.size(),
        [this](std::size_t begin, std::size_t end, unsigned /*lane*/) {
            for (std::size_t i = begin; i < end; ++i) {
                Session &s = *due_[i];
                s.ring.push(s.ticksRun, s.world->captureState());
            }
        });
}

Status
Server::advance(double elapsed)
{
    if (!std::isfinite(elapsed) || elapsed < 0)
        return invalidArgument("advance: elapsed must be >= 0 and "
                               "finite (got " +
                               std::to_string(elapsed) + ")");
    for (Session &s : sessions_) {
        if (s.health == HealthState::Frozen) {
            // Frozen worlds hold at last-good: no ticks, and no
            // banked debt to repay on a thaw that may never come.
            s.accumulator = 0.0;
            s.pendingTicks = 0;
            continue;
        }
        s.accumulator += elapsed;
        s.pendingTicks = wholeTicks(s.accumulator, config_.tickDt,
                                    config_.maxTicksPerUpdate);
        // Banked time is consumed whether the ticks run or get
        // shed: a shed session drops simulation time instead of
        // accumulating an unpayable debt. Likewise when the
        // spiral-of-death guard clamps the count, the unpayable
        // remainder is dropped, not carried into the next update.
        const int cap = config_.maxTicksPerUpdate > 0
                            ? config_.maxTicksPerUpdate
                            : INT_MAX;
        if (s.pendingTicks >= cap)
            s.accumulator = 0.0;
        else
            s.accumulator -= s.pendingTicks * config_.tickDt;
    }
    if (config_.tickBudget > 0) {
        const bool pressured = shedPendingTicks();
        relaxShedRungs(pressured);
    }
    if (selfHealingEnabled())
        injectFaults();
    runPendingTicks();
    ++stats_.updates;
    if (selfHealingEnabled()) {
        watchdogSweep();
        takeCheckpoints();
    }
    return okStatus();
}

Status
Server::tickAll(int ticks)
{
    if (ticks < 0)
        return invalidArgument("tickAll: ticks must be >= 0 (got " +
                               std::to_string(ticks) + ")");
    for (Session &s : sessions_)
        s.pendingTicks =
            s.health == HealthState::Frozen ? 0 : ticks;
    if (selfHealingEnabled())
        injectFaults();
    runPendingTicks();
    ++stats_.updates;
    if (selfHealingEnabled()) {
        watchdogSweep();
        takeCheckpoints();
    }
    return okStatus();
}

Status
Server::snapshotWorld(WorldId id,
                      std::vector<std::uint8_t> &out) const
{
    const Session *s = findSession(id);
    if (!s)
        return notFound("no session with WorldId " +
                        std::to_string(id));
    out = s->world->captureState();
    return okStatus();
}

Status
Server::streamSnapshot(WorldId id,
                       const std::vector<std::uint8_t> *base,
                       std::vector<std::uint8_t> &out)
{
    Session *s = findSession(id);
    if (!s)
        return notFound("no session with WorldId " +
                        std::to_string(id));
    std::vector<std::uint8_t> full = s->world->captureState();
    if (!base || s->streamDirty) {
        if (base && s->streamDirty) {
            // Resync: the caller expected a delta; the full blob it
            // gets instead (detectable via isSnapshotDelta) restarts
            // the chain from shared ground truth.
            ++stats_.resyncFulls;
        }
        s->streamDirty = false;
        out = std::move(full);
        return okStatus();
    }
    out = encodeSnapshotDelta(*base, full);
    return okStatus();
}

Status
Server::restoreWorld(WorldId id,
                     const std::vector<std::uint8_t> &blob,
                     const std::vector<std::uint8_t> *base)
{
    Session *s = findSession(id);
    if (!s)
        return notFound("no session with WorldId " +
                        std::to_string(id));
    if (isSnapshotDelta(blob)) {
        if (!base) {
            return failedPrecondition(
                "restoreWorld: blob is a snapshot delta but no base "
                "snapshot was supplied");
        }
        std::vector<std::uint8_t> full;
        const Status st = applySnapshotDelta(*base, blob, full);
        if (!st.ok()) {
            // The delta chain is broken in both directions: the
            // next streamSnapshot must not build on a base the
            // client provably no longer shares.
            s->streamDirty = true;
            return st;
        }
        return s->world->restoreState(full);
    }
    return s->world->restoreState(blob);
}

Status
Server::sessionHealth(WorldId id, SessionHealth &out) const
{
    const Session *s = findSession(id);
    if (!s)
        return notFound("no session with WorldId " +
                        std::to_string(id));
    out.state = s->health;
    out.lastFailure = s->lastFailure;
    out.consecutiveRollbacks = s->consecutiveRollbacks;
    out.totalRollbacks = s->totalRollbacks;
    out.recoveryRung = s->recoveryRung;
    out.shedRung = s->shedRung;
    out.checkpoints = s->ring.size();
    out.checkpointBytes = s->ring.bytesUsed();
    out.lastCheckpointTick =
        s->ring.empty() ? 0 : s->ring.tickAt(0);
    return okStatus();
}

std::string
Server::metricsLine() const
{
    // Deterministic values only (counts, never wall-clock), fixed
    // key order; consumers key on "pax_server". New keys append so
    // substring-based consumers of older keys keep matching.
    auto u64 = [](std::uint64_t v) { return std::to_string(v); };
    std::size_t checkpoint_bytes = 0;
    for (const Session &s : sessions_)
        checkpoint_bytes += s.ring.bytesUsed();
    std::string out = "{\"pax_server\":1";
    out += ",\"worlds\":" + u64(sessions_.size());
    out += ",\"updates\":" + u64(stats_.updates);
    out += ",\"ticks_total\":" + u64(stats_.ticksRun);
    out += ",\"ticks_shed_total\":" + u64(stats_.ticksShed);
    out += ",\"admission_rejects\":" + u64(stats_.admissionRejects);
    out += ",\"checkpoints\":" + u64(stats_.checkpoints);
    out += ",\"checkpoint_bytes\":" + u64(checkpoint_bytes);
    out += ",\"watchdog_trips\":" + u64(stats_.watchdogTrips);
    out += ",\"rollbacks\":" + u64(stats_.rollbacks);
    out += ",\"recoveries\":" + u64(stats_.recoveries);
    out += ",\"demotions\":" + u64(stats_.demotions);
    out += ",\"freezes\":" + u64(stats_.freezes);
    out += ",\"evictions\":" + u64(stats_.evictions);
    out += ",\"faults_injected\":" + u64(stats_.faultsInjected);
    out += ",\"resync_fulls\":" + u64(stats_.resyncFulls);
    out += "}";
    return out;
}

} // namespace parallax
