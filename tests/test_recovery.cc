/**
 * @file
 * Self-healing server tests: the checkpoint ring (bitwise round-trip
 * across all benchmark scenes, corruption fallback), the watchdog's
 * failure classification, the recovery ladder (rollback → demoted
 * rollback → freeze → evict) and its bitwise determinism across
 * worker counts, shedder quality demotion with hysteresis, delta-
 * stream resync after a rejected delta, session churn hygiene, and
 * the default-config identity guarantee (self-healing off changes
 * nothing).
 */

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "parallax.hh"
#include "server/checkpoint_ring.hh"

namespace parallax
{
namespace
{

WorldConfig
hostedConfig()
{
    WorldConfig config;
    config.workerThreads = 0; // The server supplies the parallelism.
    return config;
}

std::unique_ptr<World>
buildScene(BenchmarkId id, double scale = 0.08)
{
    return buildBenchmark(id, hostedConfig(), scale);
}

/** Flatten the recovery log into one comparable string. */
std::string
describeLog(const Server &server)
{
    std::ostringstream out;
    for (const RecoveryRecord &r : server.recoveryLog()) {
        out << "u" << r.update << " w" << r.world << " "
            << worldFailureName(r.failure) << " "
            << recoveryActionName(r.action) << " t" << r.tick
            << " rt" << r.restoredTick << " rung" << r.rung << " "
            << statusCodeName(r.status.code()) << "\n";
    }
    return out.str();
}

// --- Checkpoint ring. ---------------------------------------------

TEST(CheckpointRing, RoundTripsBitwiseAcrossAllScenes)
{
    for (BenchmarkId id : allBenchmarks) {
        auto world = buildScene(id, 0.05);
        CheckpointRing ring(4);
        std::vector<std::vector<std::uint8_t>> originals;
        for (int c = 0; c < 4; ++c) {
            for (int t = 0; t < 5; ++t)
                world->step();
            std::vector<std::uint8_t> full = world->captureState();
            originals.push_back(full);
            ring.push(world->stepCount(), std::move(full));
        }
        ASSERT_EQ(ring.size(), 4u) << benchmarkInfo(id).name;
        // Index 0 is the newest: originals in reverse order.
        for (std::size_t i = 0; i < 4; ++i) {
            std::vector<std::uint8_t> out;
            ASSERT_TRUE(ring.reconstruct(i, out).ok())
                << benchmarkInfo(id).name << " entry " << i;
            EXPECT_EQ(out, originals[3 - i])
                << benchmarkInfo(id).name << " entry " << i
                << " did not round-trip bitwise";
        }
    }
}

TEST(CheckpointRing, CapacityEvictsOldestAndBoundsMemory)
{
    auto world = buildScene(BenchmarkId::Mix, 0.05);
    CheckpointRing ring(3);
    for (int c = 0; c < 8; ++c) {
        for (int t = 0; t < 3; ++t)
            world->step();
        ring.push(world->stepCount(), world->captureState());
        EXPECT_LE(ring.size(), 3u);
    }
    // The ring holds at most the anchor plus two deltas; a full
    // snapshot bounds each entry, so 3 snapshots bound the ring.
    const std::size_t one = world->captureState().size();
    EXPECT_LE(ring.bytesUsed(), 3 * one);
    EXPECT_EQ(ring.tickAt(0), world->stepCount());
}

TEST(CheckpointRing, CorruptNewestLeavesOlderEntriesRestorable)
{
    auto world = buildScene(BenchmarkId::Periodic, 0.05);
    CheckpointRing ring(3);
    std::vector<std::uint8_t> older;
    for (int c = 0; c < 3; ++c) {
        for (int t = 0; t < 4; ++t)
            world->step();
        std::vector<std::uint8_t> full = world->captureState();
        if (c == 1)
            older = full;
        ring.push(world->stepCount(), std::move(full));
    }
    ring.corruptNewest();
    std::vector<std::uint8_t> out;
    EXPECT_FALSE(ring.reconstruct(0, out).ok())
        << "corrupted newest entry must fail its checksum";
    ASSERT_TRUE(ring.reconstruct(1, out).ok())
        << "independent delta encoding must keep older entries";
    EXPECT_EQ(out, older);
}

TEST(CheckpointRing, StoresTheReferenceEncodingAcrossScenes)
{
    for (BenchmarkId id : allBenchmarks) {
        const char *name = benchmarkInfo(id).name;
        auto world = buildScene(id, 0.05);
        CheckpointRing ring(3);
        std::vector<std::uint8_t> anchor;
        int deltas = 0;
        // Six pushes into a ring of three: the anchor, two deltas,
        // then three pushes that each evict the oldest delta.
        for (int c = 0; c < 6; ++c) {
            for (int t = 0; t < 3; ++t)
                world->step();
            std::vector<std::uint8_t> full = world->captureState();
            ring.push(world->stepCount(), full);
            if (c == 0) {
                anchor = full;
                EXPECT_EQ(ring.storedBytes(0), anchor) << name;
                continue;
            }
            const std::vector<std::uint8_t> delta =
                encodeSnapshotDelta(anchor, full);
            const bool stored_delta = delta.size() < full.size();
            deltas += stored_delta;
            EXPECT_EQ(ring.storedBytes(0), stored_delta ? delta : full)
                << name << " push " << c;
        }
        EXPECT_EQ(ring.storedBytes(ring.size() - 1), anchor) << name;
        EXPECT_GT(deltas, 0) << name << ": no entry stored as a delta";
    }

    // A corrupted anchor is what later deltas encode against, also
    // after a delta was encoded against the intact anchor: shrink the
    // ring to its anchor, corrupt it, grow the ring again.
    auto world = buildScene(BenchmarkId::Mix, 0.05);
    CheckpointRing ring(3);
    ring.push(world->stepCount(), world->captureState());
    world->step();
    ring.push(world->stepCount(), world->captureState());
    ring.setCapacity(1);
    ring.corruptNewest();
    const std::vector<std::uint8_t> corrupt_anchor = ring.storedBytes(0);
    ring.setCapacity(3);
    world->step();
    const std::vector<std::uint8_t> full = world->captureState();
    ring.push(world->stepCount(), full);
    ASSERT_TRUE(isSnapshotDelta(ring.storedBytes(0)));
    EXPECT_EQ(ring.storedBytes(0), encodeSnapshotDelta(corrupt_anchor, full));
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(ring.reconstruct(0, out).ok());
    EXPECT_EQ(out, full);
}

// --- Watchdog + recovery ladder. ----------------------------------

TEST(Recovery, RollbackRestoresPoisonedWorld)
{
    ServerConfig sc;
    sc.checkpointIntervalTicks = 4;
    sc.checkpointRingSize = 3;
    sc.recovery.probationTicks = 6;
    sc.faultPlan.events.push_back(
        {12, 1, ServerFaultKind::NanState, 0, 0.0});
    Server server(sc);
    WorldId id = invalidWorldId;
    ASSERT_TRUE(
        server.adoptWorld(buildScene(BenchmarkId::Mix), id).ok());
    ASSERT_EQ(id, 1u);

    for (int t = 0; t < 25; ++t)
        ASSERT_TRUE(server.tickAll(1).ok());

    EXPECT_EQ(server.stats().faultsInjected, 1u);
    EXPECT_EQ(server.stats().watchdogTrips, 1u);
    EXPECT_EQ(server.stats().rollbacks, 1u);
    EXPECT_TRUE(worldStateFinite(*server.world(id)))
        << "rollback must purge the NaN";

    SessionHealth health;
    ASSERT_TRUE(server.sessionHealth(id, health).ok());
    EXPECT_EQ(health.state, HealthState::Healthy)
        << "probation must complete after healthy ticks";
    EXPECT_EQ(health.consecutiveRollbacks, 0u);
    EXPECT_EQ(health.totalRollbacks, 1u);
    EXPECT_EQ(health.recoveryRung, 0);
    EXPECT_EQ(server.stats().recoveries, 1u);

    ASSERT_GE(server.recoveryLog().size(), 2u);
    EXPECT_EQ(server.recoveryLog()[0].action,
              RecoveryAction::Rollback);
    EXPECT_EQ(server.recoveryLog()[0].failure,
              WorldFailure::NonFiniteState);
    EXPECT_GT(server.recoveryLog()[0].restoredTick, 0u);
    EXPECT_EQ(server.recoveryLog().back().action,
              RecoveryAction::Heal);
}

TEST(Recovery, CorruptCheckpointFallsBackToOlderEntry)
{
    ServerConfig sc;
    sc.checkpointIntervalTicks = 3;
    sc.checkpointRingSize = 3;
    // Both fire in the same update, corruption first: the NaN trips
    // the watchdog while the newest checkpoint (tick 8) is corrupt
    // and before any newer one is taken.
    sc.faultPlan.events.push_back(
        {9, 1, ServerFaultKind::CorruptCheckpoint, 0, 0.0});
    sc.faultPlan.events.push_back(
        {9, 1, ServerFaultKind::NanState, 1, 0.0});
    Server server(sc);
    WorldId id = invalidWorldId;
    ASSERT_TRUE(
        server.adoptWorld(buildScene(BenchmarkId::Mix), id).ok());

    for (int t = 0; t < 16; ++t)
        ASSERT_TRUE(server.tickAll(1).ok());

    ASSERT_EQ(server.stats().rollbacks, 1u)
        << "rollback must survive one corrupted ring entry";
    ASSERT_FALSE(server.recoveryLog().empty());
    const RecoveryRecord &r = server.recoveryLog()[0];
    EXPECT_EQ(r.action, RecoveryAction::Rollback);
    // Checkpoints landed at ticks 2, 5, 8; the newest (8) was
    // corrupted, so the ladder must land on tick 5.
    EXPECT_EQ(r.restoredTick, 5u);
    EXPECT_TRUE(worldStateFinite(*server.world(id)));
}

TEST(Recovery, LadderEscalatesRollbackDemoteFreezeEvict)
{
    ServerConfig sc;
    sc.checkpointIntervalTicks = 2;
    sc.checkpointRingSize = 3;
    sc.tickDeadline = 0.5;
    sc.recovery.maxRollbacks = 2;
    sc.recovery.backoffBaseTicks = 1;
    sc.recovery.demoteRungsPerRetry = 2;
    sc.recovery.freezeUpdates = 3;
    // World 1 stalls permanently from tick 5: every burst overruns
    // the deadline, so each retry re-trips until the ladder gives up.
    sc.mockTickSeconds = [](std::uint64_t tick, WorldId world) {
        return (world == 1 && tick >= 5) ? 1.0 : 0.001;
    };
    Server server(sc);
    WorldId sick = invalidWorldId;
    WorldId healthy = invalidWorldId;
    ASSERT_TRUE(
        server.adoptWorld(buildScene(BenchmarkId::Mix), sick).ok());
    ASSERT_TRUE(server.adoptWorld(buildScene(BenchmarkId::Periodic),
                                  healthy)
                    .ok());

    for (int t = 0; t < 20 && server.worldCount() == 2; ++t)
        ASSERT_TRUE(server.tickAll(1).ok());

    EXPECT_EQ(server.stats().rollbacks, 2u);
    EXPECT_EQ(server.stats().freezes, 1u);
    EXPECT_EQ(server.stats().evictions, 1u);
    EXPECT_EQ(server.worldCount(), 1u);
    EXPECT_EQ(server.world(sick), nullptr)
        << "evicted session must be gone";
    EXPECT_NE(server.world(healthy), nullptr);

    // The ladder, in order: plain rollback, demoted rollback,
    // freeze, evict — each with the deadline classification.
    ASSERT_EQ(server.recoveryLog().size(), 4u);
    const auto &log = server.recoveryLog();
    EXPECT_EQ(log[0].action, RecoveryAction::Rollback);
    EXPECT_EQ(log[0].rung, 0);
    EXPECT_EQ(log[1].action, RecoveryAction::RollbackDemote);
    EXPECT_EQ(log[1].rung, 2);
    EXPECT_EQ(log[2].action, RecoveryAction::Freeze);
    EXPECT_EQ(log[2].status.code(), StatusCode::Unavailable);
    EXPECT_EQ(log[3].action, RecoveryAction::Evict);
    EXPECT_EQ(log[3].status.code(), StatusCode::DataLoss);
    for (const RecoveryRecord &r : log)
        EXPECT_EQ(r.failure, WorldFailure::DeadlineOverrun);
}

TEST(Recovery, NoUsableCheckpointFreezesInsteadOfRollingBack)
{
    ServerConfig sc;
    // Deadline watchdog on, checkpointing off: a sick world has
    // nothing to roll back to and must freeze at last-good.
    sc.tickDeadline = 0.5;
    sc.recovery.freezeUpdates = 0; // Frozen forever, never evicted.
    sc.mockTickSeconds = [](std::uint64_t tick, WorldId) {
        return tick >= 3 ? 1.0 : 0.001;
    };
    Server server(sc);
    WorldId id = invalidWorldId;
    ASSERT_TRUE(
        server.adoptWorld(buildScene(BenchmarkId::Mix), id).ok());

    for (int t = 0; t < 8; ++t)
        ASSERT_TRUE(server.tickAll(1).ok());

    EXPECT_EQ(server.stats().rollbacks, 0u);
    EXPECT_EQ(server.stats().freezes, 1u);
    EXPECT_EQ(server.stats().evictions, 0u);
    SessionHealth health;
    ASSERT_TRUE(server.sessionHealth(id, health).ok());
    EXPECT_EQ(health.state, HealthState::Frozen);
    ASSERT_FALSE(server.recoveryLog().empty());
    EXPECT_EQ(server.recoveryLog()[0].status.code(),
              StatusCode::FailedPrecondition);

    // Frozen means held at last-good: the world stops ticking while
    // the rest of the server keeps running.
    const std::uint64_t frozen_at = server.world(id)->stepCount();
    for (int t = 0; t < 4; ++t)
        ASSERT_TRUE(server.tickAll(1).ok());
    EXPECT_EQ(server.world(id)->stepCount(), frozen_at);
    EXPECT_EQ(server.phase(id), 0.0);
}

TEST(Recovery, DeferredHardFailIsClassifiedAndRolledBack)
{
    ServerConfig sc;
    sc.checkpointIntervalTicks = 4;
    sc.checkpointRingSize = 3;
    sc.recovery.probationTicks = 8;
    sc.faultPlan.events.push_back(
        {10, 1, ServerFaultKind::NanState, 0, 0.0});
    Server server(sc);
    // HardFail invariants would abort a solo process; hosted, the
    // violation must become a sticky code the watchdog reads.
    WorldConfig cfg = hostedConfig();
    cfg.invariantMode = InvariantMode::HardFail;
    WorldId id = invalidWorldId;
    ASSERT_TRUE(
        server.adoptWorld(buildBenchmark(BenchmarkId::Mix, cfg, 0.08),
                          id)
            .ok());

    for (int t = 0; t < 14; ++t)
        ASSERT_TRUE(server.tickAll(1).ok());

    ASSERT_FALSE(server.recoveryLog().empty());
    EXPECT_EQ(server.recoveryLog()[0].failure,
              WorldFailure::InvariantHardFail)
        << "the invariant verdict must outrank the numeric probe";
    EXPECT_EQ(server.stats().rollbacks, 1u);
    EXPECT_TRUE(server.world(id)->invariantHardFailure().empty())
        << "rollback must clear the sticky hard-fail code";
    EXPECT_TRUE(worldStateFinite(*server.world(id)));
}

// --- Determinism across worker counts. ----------------------------

struct StormOutcome
{
    std::string log;
    std::vector<std::uint64_t> hashes;
    std::string metrics;
};

StormOutcome
runStorm(unsigned workers)
{
    ServerConfig sc;
    sc.workerThreads = workers;
    sc.checkpointIntervalTicks = 5;
    sc.checkpointRingSize = 3;
    sc.tickDeadline = 0.5;
    sc.recovery.backoffBaseTicks = 4;
    sc.recovery.probationTicks = 8;
    sc.mockTickSeconds = [](std::uint64_t, WorldId) {
        return 0.001;
    };
    // A mixed storm: NaN poison, a corrupted ring entry ahead of a
    // second poisoning, a scripted stall, and a double hit that
    // forces a demoted second rollback.
    sc.faultPlan.events = {
        {12, 2, ServerFaultKind::NanState, 0, 0.0},
        {10, 3, ServerFaultKind::CorruptCheckpoint, 0, 0.0},
        {12, 3, ServerFaultKind::NanState, 1, 0.0},
        {15, 4, ServerFaultKind::StalledTick, 0, 2.0},
        {12, 5, ServerFaultKind::NanState, 0, 0.0},
        {22, 5, ServerFaultKind::NanState, 1, 0.0},
    };
    Server server(sc);
    const BenchmarkId scenes[] = {
        BenchmarkId::Mix,      BenchmarkId::Periodic,
        BenchmarkId::Ragdoll,  BenchmarkId::Mix,
        BenchmarkId::Periodic, BenchmarkId::Mix};
    for (BenchmarkId scene : scenes) {
        WorldId id = invalidWorldId;
        EXPECT_TRUE(
            server.adoptWorld(buildScene(scene, 0.08), id).ok());
    }
    for (int t = 0; t < 40; ++t)
        EXPECT_TRUE(server.tickAll(1).ok());

    StormOutcome outcome;
    outcome.log = describeLog(server);
    for (WorldId id : server.worldIds())
        outcome.hashes.push_back(worldStateHash(*server.world(id)));
    outcome.metrics = server.metricsLine();
    return outcome;
}

TEST(Recovery, DecisionsAndStateBitwiseIdenticalAcrossWorkerCounts)
{
    const StormOutcome solo = runStorm(0);
    EXPECT_FALSE(solo.log.empty())
        << "the storm must actually trip the watchdog";
    for (unsigned workers : {2u, 8u}) {
        const StormOutcome outcome = runStorm(workers);
        EXPECT_EQ(outcome.log, solo.log)
            << "recovery decisions diverged at workers=" << workers;
        EXPECT_EQ(outcome.hashes, solo.hashes)
            << "post-recovery state diverged at workers=" << workers;
        EXPECT_EQ(outcome.metrics, solo.metrics)
            << "metrics diverged at workers=" << workers;
    }
}

/** Every rollback restores the live world's bytes: with a
 *  checkpoint after every healthy tick, a session poisoned at tick T
 *  rolls back to the capture taken at T, which must hash equal to
 *  the same scene stepped solo T times, at any worker count. */
TEST(Recovery, RollbacksRestoreTheLiveWorldsCheckpoint)
{
    struct Scene
    {
        BenchmarkId id;
        double scale;
    };
    const Scene scenes[] = {
        {BenchmarkId::Mix, 0.05},        {BenchmarkId::Periodic, 0.05},
        {BenchmarkId::Ragdoll, 0.08},    {BenchmarkId::Deformable, 0.1},
        {BenchmarkId::Breakable, 0.08},  {BenchmarkId::Mix, 0.08},
        {BenchmarkId::Continuous, 0.05}, {BenchmarkId::Breakable, 0.08},
    };
    // One NaN fault per poisoned session (ids 1, 2, 4, 5, 6, 8), at
    // chosen ticks; sessions 3 and 7 stay healthy throughout.
    // Session 8's poisoned tick spawns blast volumes, so its rollback
    // must take back spawns made after the capture.
    {
        auto breakable = buildScene(BenchmarkId::Breakable, 0.08);
        for (int k = 0; k < 13; ++k)
            breakable->step();
        const std::size_t geoms = breakable->geomCount();
        breakable->step();
        ASSERT_GT(breakable->geomCount(), geoms)
            << "session 8's tick 14 no longer spawns a blast";
    }
    const std::vector<ServerFaultEvent> faults = {
        {4, 1, ServerFaultKind::NanState, 0, 0.0},
        {9, 2, ServerFaultKind::NanState, 1, 0.0},
        {6, 4, ServerFaultKind::NanState, 2, 0.0},
        {11, 5, ServerFaultKind::NanState, 0, 0.0},
        {13, 6, ServerFaultKind::NanState, 3, 0.0},
        {13, 8, ServerFaultKind::NanState, 0, 0.0},
    };
    for (unsigned workers : {0u, 2u, 8u}) {
        ServerConfig sc;
        sc.workerThreads = workers;
        sc.checkpointIntervalTicks = 1;
        sc.checkpointRingSize = 3;
        sc.faultPlan.events = faults;
        Server server(sc);
        for (const Scene &scene : scenes) {
            WorldId id = invalidWorldId;
            ASSERT_TRUE(server
                            .adoptWorld(buildScene(scene.id, scene.scale),
                                        id)
                            .ok());
        }

        std::size_t seen = 0;
        std::vector<WorldId> rolled_back;
        for (int t = 0; t < 20; ++t) {
            ASSERT_TRUE(server.tickAll(1).ok());
            for (; seen < server.recoveryLog().size(); ++seen) {
                const RecoveryRecord &r = server.recoveryLog()[seen];
                ASSERT_EQ(r.action, RecoveryAction::Rollback)
                    << "workers=" << workers << " world " << r.world
                    << ": " << r.status.toString();
                rolled_back.push_back(r.world);
                std::uint64_t fault_tick = 0;
                for (const ServerFaultEvent &e : faults)
                    if (e.world == r.world)
                        fault_tick = e.tick;
                EXPECT_EQ(r.restoredTick, fault_tick)
                    << "workers=" << workers << " world " << r.world
                    << ": the newest checkpoint is the last healthy tick";

                const Scene &scene = scenes[r.world - 1];
                auto solo = buildScene(scene.id, scene.scale);
                for (std::uint64_t k = 0; k < r.restoredTick; ++k)
                    solo->step();
                const World &restored = *server.world(r.world);
                EXPECT_EQ(restored.stepCount(), r.restoredTick);
                EXPECT_EQ(worldStateHash(restored), worldStateHash(*solo))
                    << "workers=" << workers << " world " << r.world
                    << " restored tick " << r.restoredTick;
                EXPECT_EQ(restored.captureState(), solo->captureState())
                    << "workers=" << workers << " world " << r.world;
                // Classified afresh after its rollback, the restored
                // world is checkpointed in the same update.
                SessionHealth health;
                ASSERT_TRUE(server.sessionHealth(r.world, health).ok());
                EXPECT_EQ(health.lastCheckpointTick, r.tick)
                    << "workers=" << workers << " world " << r.world;
            }
        }
        EXPECT_EQ(rolled_back, (std::vector<WorldId>{1, 4, 2, 5, 6, 8}))
            << "workers=" << workers;
        EXPECT_EQ(server.stats().rollbacks, faults.size());
    }
}

// --- Shedder degradation ladder. ----------------------------------

TEST(Shedding, DemotesQualityBeforeDroppingTicks)
{
    ServerConfig sc;
    sc.tickDt = 0.01;
    sc.tickBudget = 0.05;
    sc.shedDemoteMaxRung = 4;
    sc.shedDemoteCostScale = 0.85;
    sc.shedRecoveryUpdates = 3;
    // Three worlds at 0.02 s/tick: one tick each busts the 0.05
    // budget; demotion alone can fit it, so nothing should drop.
    auto cost = std::make_shared<double>(0.02);
    sc.mockTickSeconds = [cost](std::uint64_t, WorldId) {
        return *cost;
    };
    Server server(sc);
    std::vector<WorldId> ids(3, invalidWorldId);
    for (WorldId &id : ids)
        ASSERT_TRUE(
            server.adoptWorld(buildScene(BenchmarkId::Mix, 0.05), id)
                .ok());

    // Prime cost estimates (cold sessions price at the mock already,
    // but they need one burst to exist as shed candidates).
    ASSERT_TRUE(server.advance(0.01).ok());
    ASSERT_TRUE(server.advance(0.01).ok());

    EXPECT_GT(server.stats().demotions, 0u)
        << "pressure must demote before dropping";
    EXPECT_EQ(server.stats().ticksShed, 0u)
        << "demotion covered the budget; nothing should drop";

    SessionHealth health;
    ASSERT_TRUE(server.sessionHealth(ids[2], health).ok());
    EXPECT_GT(health.shedRung, 0)
        << "the newest session demotes first";
    // The demoted world really runs the cheaper ladder plan.
    EXPECT_GE(server.world(ids[2])
                  ->lastStepStats()
                  .governor.ladderLevel,
              health.shedRung);

    // Calm updates promote back one rung at a time (hysteresis).
    *cost = 0.0001;
    const int before = health.shedRung;
    for (int u = 0; u < 3; ++u)
        ASSERT_TRUE(server.advance(0.01).ok());
    ASSERT_TRUE(server.sessionHealth(ids[2], health).ok());
    EXPECT_EQ(health.shedRung, before - 1)
        << "one rung per shedRecoveryUpdates calm updates";
}

TEST(Shedding, DropOnlyBehaviorUnchangedWithLadderDisabled)
{
    ServerConfig sc;
    sc.tickBudget = 0.05;
    sc.shedDemoteMaxRung = 0; // Ladder off: drop-only shedder.
    sc.mockTickSeconds = [](std::uint64_t, WorldId) {
        return 0.04;
    };
    Server server(sc);
    std::vector<WorldId> ids(3, invalidWorldId);
    for (WorldId &id : ids)
        ASSERT_TRUE(
            server.adoptWorld(buildScene(BenchmarkId::Mix, 0.05), id)
                .ok());
    ASSERT_TRUE(server.advance(0.01).ok());
    ASSERT_TRUE(server.advance(0.01).ok());
    EXPECT_EQ(server.stats().demotions, 0u);
    EXPECT_GT(server.stats().ticksShed, 0u);
}

// --- Delta-stream resync. -----------------------------------------

TEST(Streaming, RejectedDeltaMarksStreamDirtyAndResyncsFull)
{
    Server server;
    WorldId id = invalidWorldId;
    ASSERT_TRUE(
        server.adoptWorld(buildScene(BenchmarkId::Mix), id).ok());

    std::vector<std::uint8_t> base;
    ASSERT_TRUE(server.streamSnapshot(id, nullptr, base).ok());
    ASSERT_TRUE(server.tickAll(3).ok());
    std::vector<std::uint8_t> delta;
    ASSERT_TRUE(server.streamSnapshot(id, &base, delta).ok());
    ASSERT_TRUE(isSnapshotDelta(delta));

    // A base with a corrupted checksum must be rejected — and the
    // rejection must poison the outgoing stream too: the server can
    // no longer assume the client holds the base it thinks it does.
    std::vector<std::uint8_t> corrupt_base = base;
    for (std::size_t i = 8; i < 16 && i < corrupt_base.size(); ++i)
        corrupt_base[i] ^= 0xff;
    const Status st = server.restoreWorld(id, delta, &corrupt_base);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::DataLoss);

    // Next stream call ignores the supplied base and resyncs with a
    // full snapshot.
    std::vector<std::uint8_t> resync;
    ASSERT_TRUE(server.streamSnapshot(id, &base, resync).ok());
    EXPECT_FALSE(isSnapshotDelta(resync))
        << "a dirty stream must resync with a full snapshot";
    EXPECT_EQ(server.stats().resyncFulls, 1u);

    // The resync cleared the flag: deltas flow again.
    ASSERT_TRUE(server.tickAll(1).ok());
    std::vector<std::uint8_t> next;
    ASSERT_TRUE(server.streamSnapshot(id, &resync, next).ok());
    EXPECT_TRUE(isSnapshotDelta(next));
}

// --- Session churn hygiene. ---------------------------------------

TEST(Churn, CreateEvictCreateLeaksNothing)
{
    ServerConfig sc;
    sc.checkpointIntervalTicks = 1;
    sc.checkpointRingSize = 2;
    Server server(sc);
    WorldConfig cfg;

    for (int cycle = 0; cycle < 1000; ++cycle) {
        WorldId id = invalidWorldId;
        ASSERT_TRUE(server.createWorld(cfg, id, {}).ok());
        ASSERT_TRUE(server.tickAll(2).ok());
        ASSERT_TRUE(server.destroyWorld(id).ok());
    }

    EXPECT_EQ(server.worldCount(), 0u);
    // Every ring died with its session: the gauge reads zero.
    EXPECT_NE(server.metricsLine().find("\"checkpoint_bytes\":0"),
              std::string::npos)
        << server.metricsLine();
    // Ids are never reused — stale handles from any cycle stay dead.
    EXPECT_EQ(server.world(2), nullptr);
}

// --- Default-config identity. -------------------------------------

TEST(Recovery, SelfHealingOffChangesNothing)
{
    // Reference trajectory: the plain solo world.
    auto solo = buildScene(BenchmarkId::Mix);
    for (int t = 0; t < 30; ++t)
        solo->step();
    const std::uint64_t want = worldStateHash(*solo);

    // Default config: no checkpoints, no deadline, no fault plan.
    Server server;
    WorldId id = invalidWorldId;
    ASSERT_TRUE(
        server.adoptWorld(buildScene(BenchmarkId::Mix), id).ok());
    ASSERT_TRUE(server.tickAll(30).ok());
    EXPECT_EQ(worldStateHash(*server.world(id)), want);

    // No recovery machinery ran or registered anything.
    EXPECT_EQ(server.stats().checkpoints, 0u);
    EXPECT_EQ(server.stats().watchdogTrips, 0u);
    EXPECT_TRUE(server.recoveryLog().empty());
    SessionHealth health;
    ASSERT_TRUE(server.sessionHealth(id, health).ok());
    EXPECT_EQ(health.state, HealthState::Healthy);
    EXPECT_EQ(health.checkpoints, 0u);
    EXPECT_EQ(health.checkpointBytes, 0u);
    // Solo semantics preserved on release: hard-fail defers only
    // while hosted with self-healing on.
    std::unique_ptr<World> released = server.releaseWorld(id);
    ASSERT_NE(released, nullptr);
    EXPECT_EQ(released->degradationFloor(), 0);
}

} // namespace
} // namespace parallax
