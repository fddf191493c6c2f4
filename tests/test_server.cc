/**
 * @file
 * Multi-world server tests (src/server/): the session lifecycle, the
 * bitwise solo-vs-hosted trajectory guarantee at several worker
 * counts, fixed-tick accumulator stepping and interpolation phase,
 * deterministic admission/shedding, delta-snapshot streaming,
 * per-world metrics scoping, and the server metrics line.
 */

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "metrics_fields.hh"
#include "parallax.hh"

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

// --- Bitwise trajectory identity. ---------------------------------

TEST(Server, HostedTrajectoriesMatchSoloBitwise)
{
    // The same scenes stepped solo...
    const BenchmarkId scenes[] = {BenchmarkId::Mix,
                                  BenchmarkId::Periodic,
                                  BenchmarkId::Mix};
    const double scales[] = {0.08, 0.08, 0.12};
    constexpr int ticks = 40;

    std::vector<std::uint64_t> solo;
    for (std::size_t i = 0; i < 3; ++i) {
        auto world = buildScene(scenes[i], scales[i]);
        for (int t = 0; t < ticks; ++t)
            world->step();
        solo.push_back(worldStateHash(*world));
    }

    // ...must hash identically when multiplexed over the server's
    // scheduler, whichever lane steals which world, at every worker
    // count.
    for (unsigned workers : {0u, 2u, 8u}) {
        ServerConfig sc;
        sc.workerThreads = workers;
        Server server(sc);
        std::vector<WorldId> ids;
        for (std::size_t i = 0; i < 3; ++i) {
            WorldId id = invalidWorldId;
            ASSERT_TRUE(server
                            .adoptWorld(buildScene(scenes[i],
                                                   scales[i]),
                                        id)
                            .ok());
            ids.push_back(id);
        }
        ASSERT_TRUE(server.tickAll(ticks).ok());
        for (std::size_t i = 0; i < 3; ++i) {
            EXPECT_EQ(worldStateHash(*server.world(ids[i])), solo[i])
                << "world " << i << " diverged at workers="
                << workers;
        }
    }
}

// --- Session lifecycle + admission. -------------------------------

TEST(Server, SessionLifecycleAndStaleHandles)
{
    Server server;
    WorldId a = invalidWorldId;
    WorldId b = invalidWorldId;
    ASSERT_TRUE(server.createWorld(hostedConfig(), a).ok());
    ASSERT_TRUE(server.createWorld(hostedConfig(), b).ok());
    EXPECT_NE(a, invalidWorldId);
    EXPECT_NE(a, b);
    EXPECT_EQ(server.worldCount(), 2u);
    EXPECT_NE(server.world(a), nullptr);

    ASSERT_TRUE(server.destroyWorld(a).ok());
    EXPECT_EQ(server.worldCount(), 1u);
    EXPECT_EQ(server.world(a), nullptr);
    // A stale handle names nothing — and is never reissued.
    EXPECT_EQ(server.destroyWorld(a).code(), StatusCode::NotFound);
    WorldId c = invalidWorldId;
    ASSERT_TRUE(server.createWorld(hostedConfig(), c).ok());
    EXPECT_NE(c, a);
    EXPECT_NE(c, b);
}

TEST(Server, AdoptRejectsMisconfiguredWorlds)
{
    Server server;
    WorldId id = invalidWorldId;

    EXPECT_EQ(server.adoptWorld(nullptr, id).code(),
              StatusCode::InvalidArgument);

    WorldConfig threaded = hostedConfig();
    threaded.workerThreads = 2;
    EXPECT_EQ(server
                  .adoptWorld(std::make_unique<World>(threaded), id)
                  .code(),
              StatusCode::InvalidArgument);

    WorldConfig wrong_dt = hostedConfig();
    wrong_dt.dt = 0.02;
    EXPECT_EQ(server
                  .adoptWorld(std::make_unique<World>(wrong_dt), id)
                  .code(),
              StatusCode::InvalidArgument);
}

TEST(Server, AdmissionCapRejectsDeterministically)
{
    ServerConfig sc;
    sc.maxWorlds = 2;
    Server server(sc);
    WorldId id = invalidWorldId;
    ASSERT_TRUE(server.createWorld(hostedConfig(), id).ok());
    ASSERT_TRUE(server.createWorld(hostedConfig(), id).ok());
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(server.createWorld(hostedConfig(), id).code(),
                  StatusCode::ResourceExhausted);
    }
    EXPECT_EQ(server.stats().admissionRejects, 3u);
    // Freeing a slot re-opens admission.
    ASSERT_TRUE(server.destroyWorld(1).ok());
    EXPECT_TRUE(server.createWorld(hostedConfig(), id).ok());
}

// --- Fixed-tick accumulator + interpolation phase. ----------------

TEST(Server, AccumulatorRunsWholeTicksAndBanksRemainder)
{
    Server server; // tickDt = 0.01
    WorldId id = invalidWorldId;
    ASSERT_TRUE(server.createWorld(hostedConfig(), id).ok());

    ASSERT_TRUE(server.advance(0.025).ok());
    EXPECT_EQ(server.world(id)->stepCount(), 2u);
    EXPECT_NEAR(server.phase(id), 0.5, 1e-9);

    ASSERT_TRUE(server.advance(0.005).ok());
    EXPECT_EQ(server.world(id)->stepCount(), 3u);
    EXPECT_NEAR(server.phase(id), 0.0, 1e-9);

    // Sub-tick time only banks; nothing runs.
    ASSERT_TRUE(server.advance(0.004).ok());
    EXPECT_EQ(server.world(id)->stepCount(), 3u);
    EXPECT_NEAR(server.phase(id), 0.4, 1e-9);

    EXPECT_EQ(server.advance(-1.0).code(),
              StatusCode::InvalidArgument);
}

TEST(Server, InterpolateEndpointsAreBitwise)
{
    auto world = buildScene(BenchmarkId::Mix);
    world->step();
    const RenderState a = world->renderState();
    world->step();
    const RenderState b = world->renderState();
    ASSERT_EQ(a.bodies.size(), b.bodies.size());

    const RenderState at0 = World::interpolate(a, b, 0.0);
    const RenderState at1 = World::interpolate(a, b, 1.0);
    ASSERT_EQ(at0.bodies.size(), a.bodies.size());
    for (std::size_t i = 0; i < a.bodies.size(); ++i) {
        // Exactly the sampled state, not a lerp that rounded
        // through it.
        EXPECT_EQ(at0.bodies[i].position.x, a.bodies[i].position.x);
        EXPECT_EQ(at0.bodies[i].position.y, a.bodies[i].position.y);
        EXPECT_EQ(at0.bodies[i].position.z, a.bodies[i].position.z);
        EXPECT_EQ(at0.bodies[i].orientation.w,
                  a.bodies[i].orientation.w);
        EXPECT_EQ(at1.bodies[i].position.y, b.bodies[i].position.y);
        EXPECT_EQ(at1.bodies[i].orientation.w,
                  b.bodies[i].orientation.w);
    }
    ASSERT_EQ(at0.cloths.size(), a.cloths.size());
    for (std::size_t c = 0; c < a.cloths.size(); ++c) {
        ASSERT_EQ(at0.cloths[c].size(), a.cloths[c].size());
        for (std::size_t p = 0; p < a.cloths[c].size(); ++p)
            EXPECT_EQ(at0.cloths[c][p].y, a.cloths[c][p].y);
    }
}

TEST(Server, InterpolationIsMonotonicAndNormalized)
{
    auto world = buildScene(BenchmarkId::Mix);
    for (int i = 0; i < 5; ++i)
        world->step();
    const RenderState a = world->renderState();
    world->step();
    const RenderState b = world->renderState();

    double prev_phase = 0.0;
    RenderState prev = World::interpolate(a, b, 0.0);
    for (double phase : {0.25, 0.5, 0.75, 1.0}) {
        const RenderState mid = World::interpolate(a, b, phase);
        EXPECT_NEAR(mid.time,
                    a.time + (b.time - a.time) * phase, 1e-12);
        for (std::size_t i = 0; i < mid.bodies.size(); ++i) {
            // Each coordinate moves monotonically from a to b...
            const double lo = std::min(a.bodies[i].position.y,
                                       b.bodies[i].position.y);
            const double hi = std::max(a.bodies[i].position.y,
                                       b.bodies[i].position.y);
            EXPECT_GE(mid.bodies[i].position.y, lo - 1e-12);
            EXPECT_LE(mid.bodies[i].position.y, hi + 1e-12);
            // ...and blended orientations stay unit quaternions.
            const Quat &q = mid.bodies[i].orientation;
            EXPECT_NEAR(q.w * q.w + q.x * q.x + q.y * q.y +
                            q.z * q.z,
                        1.0, 1e-9);
        }
        prev = mid;
        prev_phase = phase;
        (void)prev_phase;
    }
}

// --- Deterministic load shedding. ---------------------------------

TEST(Server, SheddingIsDeterministicUnderMockedCosts)
{
    // Three sessions, 0.4 s per tick each, 1.0 s of budget: the
    // projection (1.2 s) exceeds the budget, so exactly the newest
    // sheddable session is dropped — every update, identically.
    ServerConfig sc;
    sc.tickBudget = 1.0;
    sc.mockTickSeconds = [](std::uint64_t, WorldId) {
        return 0.4;
    };
    Server server(sc);
    WorldId w1 = invalidWorldId;
    WorldId w2 = invalidWorldId;
    WorldId w3 = invalidWorldId;
    ASSERT_TRUE(server.createWorld(hostedConfig(), w1).ok());
    ASSERT_TRUE(server.createWorld(hostedConfig(), w2).ok());
    ASSERT_TRUE(server.createWorld(hostedConfig(), w3).ok());

    for (int round = 1; round <= 4; ++round) {
        ASSERT_TRUE(server.advance(0.01).ok());
        EXPECT_EQ(server.world(w1)->stepCount(),
                  static_cast<std::uint64_t>(round));
        EXPECT_EQ(server.world(w2)->stepCount(),
                  static_cast<std::uint64_t>(round));
        EXPECT_EQ(server.world(w3)->stepCount(), 0u);
        EXPECT_EQ(server.stats().ticksShed,
                  static_cast<std::uint64_t>(round));
    }
    EXPECT_EQ(server.stats().ticksRun, 8u);
}

TEST(Server, NonSheddableSessionsAlwaysRun)
{
    ServerConfig sc;
    sc.tickBudget = 0.4;
    sc.mockTickSeconds = [](std::uint64_t, WorldId) {
        return 0.4;
    };
    Server server(sc);
    SessionConfig pinned;
    pinned.sheddable = false;
    WorldId cheap = invalidWorldId;
    WorldId vip = invalidWorldId;
    ASSERT_TRUE(server.createWorld(hostedConfig(), cheap).ok());
    ASSERT_TRUE(
        server.createWorld(hostedConfig(), vip, pinned).ok());

    ASSERT_TRUE(server.advance(0.01).ok());
    // Both pending ticks cost 0.4; the budget fits one. The
    // sheddable session is dropped, the pinned one runs.
    EXPECT_EQ(server.world(cheap)->stepCount(), 0u);
    EXPECT_EQ(server.world(vip)->stepCount(), 1u);
}

TEST(Server, NoBudgetMeansNoShedding)
{
    Server server; // tickBudget = 0: shedder disabled.
    WorldId id = invalidWorldId;
    ASSERT_TRUE(server.createWorld(hostedConfig(), id).ok());
    ASSERT_TRUE(server.advance(0.05).ok());
    EXPECT_EQ(server.world(id)->stepCount(), 5u);
    EXPECT_EQ(server.stats().ticksShed, 0u);
}

// --- Delta-compressed snapshot streaming. -------------------------

TEST(Server, DeltaSnapshotRoundTrip)
{
    Server server;
    WorldId id = invalidWorldId;
    ASSERT_TRUE(
        server.adoptWorld(buildScene(BenchmarkId::Mix), id).ok());
    ASSERT_TRUE(server.tickAll(5).ok());

    // Client joins: one full snapshot...
    std::vector<std::uint8_t> base;
    ASSERT_TRUE(server.streamSnapshot(id, nullptr, base).ok());
    EXPECT_FALSE(isSnapshotDelta(base));

    // ...then per-tick deltas against it.
    ASSERT_TRUE(server.tickAll(1).ok());
    std::vector<std::uint8_t> delta;
    ASSERT_TRUE(server.streamSnapshot(id, &base, delta).ok());
    EXPECT_TRUE(isSnapshotDelta(delta));

    std::vector<std::uint8_t> full;
    ASSERT_TRUE(server.snapshotWorld(id, full).ok());
    std::vector<std::uint8_t> reconstructed;
    ASSERT_TRUE(
        applySnapshotDelta(base, delta, reconstructed).ok());
    EXPECT_EQ(reconstructed, full);

    // The client's replica, rebuilt from base + delta, lands on the
    // server's exact trajectory.
    auto replica = buildScene(BenchmarkId::Mix);
    ASSERT_TRUE(replica->restoreState(reconstructed).ok());
    EXPECT_EQ(worldStateHash(*replica),
              worldStateHash(*server.world(id)));

    // Rewind: the server restores its own session from the stream.
    ASSERT_TRUE(server.tickAll(3).ok());
    ASSERT_TRUE(server.restoreWorld(id, delta, &base).ok());
    EXPECT_EQ(worldStateHash(*server.world(id)),
              worldStateHash(*replica));
}

TEST(Server, DeltaFailuresAreStructured)
{
    Server server;
    WorldId id = invalidWorldId;
    ASSERT_TRUE(
        server.adoptWorld(buildScene(BenchmarkId::Mix), id).ok());
    ASSERT_TRUE(server.tickAll(2).ok());

    std::vector<std::uint8_t> base;
    ASSERT_TRUE(server.streamSnapshot(id, nullptr, base).ok());
    ASSERT_TRUE(server.tickAll(1).ok());
    std::vector<std::uint8_t> delta;
    ASSERT_TRUE(server.streamSnapshot(id, &base, delta).ok());

    // Applying against the wrong base fails by checksum, loudly.
    std::vector<std::uint8_t> wrong_base = base;
    wrong_base[wrong_base.size() - 1] ^= 0xff;
    std::vector<std::uint8_t> out;
    EXPECT_EQ(applySnapshotDelta(wrong_base, delta, out).code(),
              StatusCode::DataLoss);

    // Truncated deltas are malformed, not misapplied.
    std::vector<std::uint8_t> cut(delta.begin(),
                                  delta.begin() + delta.size() / 2);
    EXPECT_EQ(applySnapshotDelta(base, cut, out).code(),
              StatusCode::InvalidArgument);

    // A delta without its base cannot restore.
    EXPECT_EQ(server.restoreWorld(id, delta, nullptr).code(),
              StatusCode::FailedPrecondition);

    // Self-delta (no changes) is near-empty: streaming a static
    // world costs header bytes, not a snapshot.
    std::vector<std::uint8_t> self =
        encodeSnapshotDelta(base, base);
    EXPECT_LT(self.size(), 64u);
    ASSERT_TRUE(applySnapshotDelta(base, self, out).ok());
    EXPECT_EQ(out, base);
}

TEST(Server, CorruptDeltaHeadersAreRejected)
{
    Server server;
    WorldId id = invalidWorldId;
    ASSERT_TRUE(
        server.adoptWorld(buildScene(BenchmarkId::Mix), id).ok());
    ASSERT_TRUE(server.tickAll(2).ok());

    std::vector<std::uint8_t> base;
    ASSERT_TRUE(server.streamSnapshot(id, nullptr, base).ok());
    ASSERT_TRUE(server.tickAll(1).ok());
    std::vector<std::uint8_t> delta;
    ASSERT_TRUE(server.streamSnapshot(id, &base, delta).ok());

    // Delta layout: magic(8) + version(4) + base checksum(8) +
    // target checksum(8) + target size(8) + range count(4), then
    // per range offset(8) + length(4) + payload.
    constexpr std::size_t target_size_at = 28;
    constexpr std::size_t first_range_at = 40;
    ASSERT_GT(delta.size(), first_range_at + 12);
    auto pokeU64 = [](std::vector<std::uint8_t> &bytes,
                      std::size_t at, std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            bytes[at + i] =
                static_cast<std::uint8_t>(v >> (8 * i));
    };

    // A range offset near UINT64_MAX must not wrap the bounds check
    // and reach the out-of-bounds memcpy.
    std::vector<std::uint8_t> wrap = delta;
    pokeU64(wrap, first_range_at, 0xFFFFFFFFFFFFFFF8ull);
    std::vector<std::uint8_t> out;
    EXPECT_EQ(applySnapshotDelta(base, wrap, out).code(),
              StatusCode::InvalidArgument);

    // An absurd target size is rejected before any allocation is
    // attempted (no bad_alloc / length_error escapes).
    std::vector<std::uint8_t> huge = delta;
    pokeU64(huge, target_size_at, ~std::uint64_t{0});
    EXPECT_EQ(applySnapshotDelta(base, huge, out).code(),
              StatusCode::InvalidArgument);
}

TEST(Server, MaxTicksPerUpdateClampsSpiral)
{
    ServerConfig sc;
    sc.maxTicksPerUpdate = 4;
    Server server(sc);
    WorldId id = invalidWorldId;
    ASSERT_TRUE(server.createWorld(hostedConfig(), id).ok());

    // An elapsed worth ~1e18 ticks would overflow the int tick
    // count; the guard clamps it to the cap and drops the unpayable
    // backlog instead of carrying it into the next update.
    ASSERT_TRUE(server.advance(1e16).ok());
    EXPECT_EQ(server.world(id)->stepCount(), 4u);
    ASSERT_TRUE(server.advance(0.01).ok());
    EXPECT_EQ(server.world(id)->stepCount(), 5u);
}

// --- Per-world metrics scoping. -----------------------------------

TEST(Server, MetricsAreScopedPerWorld)
{
    Server server;
    WorldId id = invalidWorldId;
    ASSERT_TRUE(
        server.adoptWorld(buildScene(BenchmarkId::Mix), id).ok());
    ASSERT_TRUE(server.tickAll(1).ok());

    const std::string scope =
        "world." + std::to_string(id) + ".";
    const std::string line = server.world(id)->metricsLine();
    EXPECT_NE(line.find("\"" + scope + "step\""),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("\"pax_metrics\":1"), std::string::npos);

    // Solo worlds are unscoped — their line is byte-identical to a
    // single-world deployment (the PR-4 golden guards the exact
    // bytes; this guards the absence of a prefix).
    auto solo = buildScene(BenchmarkId::Mix);
    solo->step();
    EXPECT_EQ(solo->metricsLine().find("world."),
              std::string::npos);

    // Server-level line carries the admission/shedding counters.
    const std::string sline = server.metricsLine();
    EXPECT_NE(sline.find("\"pax_server\":1"), std::string::npos);
    EXPECT_NE(sline.find("\"ticks_total\":1"), std::string::npos);

    // A released world steps on, unscoped again.
    std::unique_ptr<World> released = server.releaseWorld(id);
    ASSERT_NE(released, nullptr);
    released->step();
    EXPECT_EQ(released->metricsLine().find("world."),
              std::string::npos);
    EXPECT_EQ(server.worldCount(), 0u);
}

TEST(Server, MetricsLineReadsServerStats)
{
    // The server line is ServerStats, the session count and the ring
    // bytes, field for field and in the documented key order. A
    // refused third session and one poisoned world make the admission
    // and recovery counters live.
    ServerConfig sc;
    sc.maxWorlds = 2;
    sc.checkpointIntervalTicks = 2;
    sc.faultPlan.events.push_back(
        {6, 1, ServerFaultKind::NanState, 0, 0.0});
    Server server(sc);
    std::vector<WorldId> ids;
    for (int i = 0; i < 3; ++i) {
        WorldId id = invalidWorldId;
        if (server.adoptWorld(buildScene(BenchmarkId::Mix), id).ok())
            ids.push_back(id);
    }
    ASSERT_EQ(ids.size(), 2u);
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(server.tickAll(2).ok());

    std::uint64_t checkpoint_bytes = 0;
    for (WorldId id : server.worldIds()) {
        SessionHealth health;
        ASSERT_TRUE(server.sessionHealth(id, health).ok());
        checkpoint_bytes += health.checkpointBytes;
    }
    const ServerStats &st = server.stats();
    const MetricsFields want = {
        {"pax_server", 1},
        {"worlds", server.worldCount()},
        {"updates", st.updates},
        {"ticks_total", st.ticksRun},
        {"ticks_shed_total", st.ticksShed},
        {"admission_rejects", st.admissionRejects},
        {"checkpoints", st.checkpoints},
        {"checkpoint_bytes", checkpoint_bytes},
        {"watchdog_trips", st.watchdogTrips},
        {"rollbacks", st.rollbacks},
        {"recoveries", st.recoveries},
        {"demotions", st.demotions},
        {"freezes", st.freezes},
        {"evictions", st.evictions},
        {"faults_injected", st.faultsInjected},
        {"resync_fulls", st.resyncFulls},
    };
    EXPECT_EQ(metricsFields(server.metricsLine()), want);
    EXPECT_EQ(st.admissionRejects, 1u);
    EXPECT_EQ(st.rollbacks, 1u);
    EXPECT_GT(checkpoint_bytes, 0u);

    // A hosted world's line carries its scope on every key but the
    // format marker.
    for (WorldId id : ids) {
        const std::string scope = "world." + std::to_string(id) + ".";
        const MetricsFields fields =
            metricsFields(server.world(id)->metricsLine());
        ASSERT_EQ(fields.size(), 17u);
        EXPECT_EQ(fields[0].first, "pax_metrics");
        for (std::size_t k = 1; k < fields.size(); ++k)
            EXPECT_EQ(fields[k].first.rfind(scope, 0), 0u)
                << fields[k].first;
    }
}

} // namespace
} // namespace parallax
