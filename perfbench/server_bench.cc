/**
 * @file
 * The `server_1k` workload: one Server with 2 workers hosting 1,000
 * sessions and checkpointing every 10 ticks, Server::advance(tickDt)
 * called back to back (closed loop). Each update runs a thousand
 * tiny serial World::step calls, where fixed per-step cost
 * dominates, plus the server's serial work on the calling thread:
 * the watchdog sweep and state capture into the checkpoint rings.
 *
 * Most sessions are small rooms of a few bodies; a seeded 8% each
 * host one of the paper's light scenes (Ragdoll or Continuous) at
 * small scale. The traced run times each update from outside and
 * folds every hosted world's lastStepStats() into the layer table.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "parallax.hh"

namespace perfbench
{
namespace
{

using namespace parallax;

constexpr int sessionCount = 1000;
constexpr double tickDt = 0.01;
constexpr int checkpointInterval = 10;
/** Heavy sessions per checkpoint stagger class: 8 x 10 = 80 (8%). */
constexpr int heavyPerClass = 8;
/** Updates before measuring: at least one full ring of checkpoints
 *  (first capture by tick 10, ring of 3 at 10-tick spacing) plus the
 *  heavy scenes' opening transient. */
constexpr int warmupUpdates = 60;
/** Updates per block in the traced run's alternation. */
constexpr int blockUpdates = 10;
/** Every this many measured updates the untraced run samples each
 *  hosted world's step time (outside the update timer). */
constexpr int stepSampleEvery = 10;
/** Sessions replayed solo for the hash check, and timed captures. */
constexpr int hashSampleRooms = 8;
constexpr int hashSampleHeavy = 4;
constexpr int captureSample = 64;

enum class Kind
{
    Room,
    Ragdoll,
    Continuous,
};

struct SessionPlan
{
    Kind kind = Kind::Room;
    /** Scene scale of a heavy session. */
    double scale = 0.0;
    /** Dynamic bodies and layout seed of a room. */
    int bodies = 0;
    std::uint64_t roomSeed = 0;
};

/** The heavy minority has a fixed make-up, so every seed hosts the
 *  same work; the seed decides which sessions carry it. */
struct HeavyVariant
{
    Kind kind;
    double scale;
};

constexpr HeavyVariant heavyVariants[] = {
    {Kind::Ragdoll, 0.05},     // 2 humanoids
    {Kind::Ragdoll, 0.1},      // 3 humanoids
    {Kind::Continuous, 0.03},  // 1 car on the terrain course
    {Kind::Continuous, 0.05},  // 2 cars
};

std::vector<SessionPlan>
planSessions(std::uint64_t seed)
{
    SeededRng rng(seed);
    std::vector<SessionPlan> plans(sessionCount);
    for (SessionPlan &p : plans) {
        p.bodies = rng.range(2, 6);
        p.roomSeed = rng.next();
    }
    // The server staggers first checkpoints by session id modulo the
    // interval. Drawing the same number of heavy sessions at random
    // from each stagger class keeps heavy captures spread evenly over
    // updates for every seed; a fixed stride dividing the interval
    // would put them all in one update.
    std::vector<int> heavy;
    for (int c = 0; c < checkpointInterval; ++c) {
        std::vector<int> members;
        for (int i = c; i < sessionCount; i += checkpointInterval)
            members.push_back(i);
        for (int k = 0; k < heavyPerClass; ++k) {
            const int j =
                rng.range(k, static_cast<int>(members.size()) - 1);
            std::swap(members[k], members[j]);
            heavy.push_back(members[k]);
        }
    }
    constexpr int variantCount =
        static_cast<int>(std::size(heavyVariants));
    std::vector<HeavyVariant> variants;
    for (std::size_t k = 0; k < heavy.size(); ++k)
        variants.push_back(heavyVariants[k % variantCount]);
    for (int k = static_cast<int>(variants.size()) - 1; k > 0; --k)
        std::swap(variants[k], variants[rng.range(0, k)]);
    for (std::size_t k = 0; k < heavy.size(); ++k) {
        plans[heavy[k]].kind = variants[k].kind;
        plans[heavy[k]].scale = variants[k].scale;
    }
    return plans;
}

/** Hosted worlds: library defaults, single-threaded (the server's
 *  lanes run whole ticks), deterministic, stepping at the tick. */
WorldConfig
sessionConfig()
{
    WorldConfig config;
    config.dt = tickDt;
    config.workerThreads = 0;
    config.deterministic = true;
    return config;
}

/** A small room: ground plane plus a few spheres and crates dropped
 *  into distinct cells of a 3 x 3 grid, so no two start overlapping. */
std::unique_ptr<World>
buildRoom(const SessionPlan &plan)
{
    auto world = std::make_unique<World>(sessionConfig());
    SeededRng rng(plan.roomSeed);
    const PlaneShape *floor = world->addPlane(Vec3{0.0, 1.0, 0.0}, 0.0);
    world->createGeom(floor, world->createStaticBody(Transform()));
    const SphereShape *ball = world->addSphere(0.4);
    const BoxShape *crate = world->addBox(Vec3{0.3, 0.3, 0.3});
    int cells[9] = {0, 1, 2, 3, 4, 5, 6, 7, 8};
    for (int k = 0; k < plan.bodies; ++k) {
        std::swap(cells[k], cells[rng.range(k, 8)]);
        const Vec3 pos{(cells[k] % 3 - 1) * 1.2 + rng.uniform(-0.1, 0.1),
                       rng.uniform(0.5, 2.5),
                       (cells[k] / 3 - 1) * 1.2 + rng.uniform(-0.1, 0.1)};
        const Shape *shape =
            rng.range(0, 1) == 0 ? static_cast<const Shape *>(ball)
                                 : static_cast<const Shape *>(crate);
        RigidBody *body =
            world->createDynamicBody(Transform(Quat(), pos), *shape, 1.0);
        world->createGeom(shape, body);
    }
    return world;
}

std::unique_ptr<World>
buildSession(const SessionPlan &plan)
{
    switch (plan.kind) {
      case Kind::Ragdoll:
        return buildBenchmark(BenchmarkId::Ragdoll, sessionConfig(),
                              plan.scale);
      case Kind::Continuous:
        return buildBenchmark(BenchmarkId::Continuous, sessionConfig(),
                              plan.scale);
      case Kind::Room:
        break;
    }
    return buildRoom(plan);
}

struct Hosted
{
    std::unique_ptr<Server> server;
    std::vector<WorldId> ids;
    /** Hosted worlds in session order (valid while hosted). */
    std::vector<const World *> worlds;
};

Hosted
hostSessions(const std::vector<SessionPlan> &plans, Report &report)
{
    ServerConfig config;
    config.workerThreads = workerThreads;
    config.tickDt = tickDt;
    config.checkpointIntervalTicks = checkpointInterval;
    Hosted h;
    h.server = std::make_unique<Server>(config);
    for (const SessionPlan &plan : plans) {
        std::unique_ptr<World> world = buildSession(plan);
        const World *raw = world.get();
        WorldId id = invalidWorldId;
        const Status st = h.server->adoptWorld(std::move(world), id);
        if (!st.ok()) {
            report.fail("adoptWorld: " + st.message());
            continue;
        }
        h.ids.push_back(id);
        h.worlds.push_back(raw);
    }
    return h;
}

void
advanceChecked(Server &server, Report &report)
{
    const Status st = server.advance(tickDt);
    if (!st.ok())
        report.fail("advance: " + st.message());
}

/** Warm up, then check that every checkpoint ring is full. */
void
warmUp(Hosted &h, Report &report)
{
    for (int u = 0; u < warmupUpdates; ++u)
        advanceChecked(*h.server, report);
    const std::size_t ring = h.server->config().checkpointRingSize;
    std::size_t short_rings = 0;
    for (WorldId id : h.ids) {
        SessionHealth health;
        if (!h.server->sessionHealth(id, health).ok() ||
            health.checkpoints < ring)
            ++short_rings;
    }
    if (short_rings > 0)
        report.fail(std::to_string(short_rings) +
                    " checkpoint rings not full after warm-up");
}

/** Count the measured window's world-ticks: every session should run
 *  one tick per update; a missing tick or a watchdog trip fails. */
void
accountTicks(const ServerStats &before, const ServerStats &after,
             std::uint64_t updates, Report &report)
{
    const std::uint64_t expected =
        static_cast<std::uint64_t>(sessionCount) * updates;
    const std::uint64_t ran = after.ticksRun - before.ticksRun;
    report.attempted += expected;
    report.failed += (expected > ran ? expected - ran : 0) +
                     (after.watchdogTrips - before.watchdogTrips);
}

/** Every session Healthy, ticksRun == sessions x updates, and a
 *  seeded sample of sessions hash-equal to the same scene stepped
 *  solo for the same number of ticks. */
void
checkSessions(const Hosted &h, const std::vector<SessionPlan> &plans,
              std::uint64_t seed, Report &report)
{
    const ServerStats &stats = h.server->stats();
    if (h.ids.size() != static_cast<std::size_t>(sessionCount))
        report.fail("hosted " + std::to_string(h.ids.size()) +
                    " sessions, not " + std::to_string(sessionCount));
    if (stats.ticksRun != h.ids.size() * stats.updates)
        report.fail("ticksRun " + std::to_string(stats.ticksRun) +
                    " != sessions x updates");
    std::size_t unhealthy = 0;
    for (WorldId id : h.ids) {
        SessionHealth health;
        if (!h.server->sessionHealth(id, health).ok() ||
            health.state != HealthState::Healthy)
            ++unhealthy;
    }
    if (unhealthy > 0)
        report.fail(std::to_string(unhealthy) + " sessions not Healthy");

    SeededRng rng(seed ^ 0x5eedull);
    int rooms = 0, heavy = 0;
    for (int tries = 0; tries < 100 * sessionCount &&
                        (rooms < hashSampleRooms || heavy < hashSampleHeavy);
         ++tries) {
        const int i = rng.range(0, static_cast<int>(h.ids.size()) - 1);
        const bool is_room = plans[i].kind == Kind::Room;
        if (is_room ? rooms >= hashSampleRooms : heavy >= hashSampleHeavy)
            continue;
        (is_room ? rooms : heavy)++;
        std::unique_ptr<World> solo = buildSession(plans[i]);
        for (std::uint64_t t = 0; t < stats.updates; ++t)
            solo->step();
        if (worldStateHash(*solo) != worldStateHash(*h.worlds[i]))
            report.fail("session " + std::to_string(h.ids[i]) +
                        " differs from the same scene stepped solo");
    }
}

/** Host the sessions and check every world's kernel backend. */
Hosted
setUp(const std::vector<SessionPlan> &plans, Report &report)
{
    Hosted h = hostSessions(plans, report);
    for (const World *w : h.worlds)
        if (w->kernelBackend().kind() != SimdBackend::Scalar)
            report.fail("a hosted world runs a non-scalar kernel backend");
    return h;
}

void
runUntraced(const Options &options, Report &report)
{
    const std::vector<SessionPlan> plans = planSessions(options.seed);
    EndToEnd e2e;
    Hosted h = setUp(plans, report);
    warmUp(h, report);

    SetupSampler setup(options, report);
    const ServerStats before = h.server->stats();
    double busy_seconds = 0.0;
    std::uint64_t updates = 0, measured_ticks = 0;
    const Clock::time_point begin = Clock::now();
    for (double elapsed = 0.0; elapsed < options.seconds;
         elapsed = secondsBetween(begin, Clock::now())) {
        ++updates;
        if (setup.sampleIfDue(elapsed)) {
            advanceChecked(*h.server, report); // re-warm, untimed
            continue;
        }
        const std::uint64_t ticks_before = h.server->stats().ticksRun;
        const Clock::time_point t0 = Clock::now();
        advanceChecked(*h.server, report);
        const double ms = secondsBetween(t0, Clock::now()) * 1e3;
        measured_ticks += h.server->stats().ticksRun - ticks_before;
        e2e.updateMs.push_back(ms);
        busy_seconds += ms * 1e-3;
        if (e2e.updateMs.size() % stepSampleEvery == 0) {
            // A hosted step is timed by its own phase timers: the
            // server offers no outside view of a single World::step.
            for (const World *w : h.worlds)
                e2e.stepMs.push_back(w->lastStepStats().totalSeconds() *
                                     1e3);
        }
    }
    e2e.peakRssMb = peakRssMb();
    e2e.setupSeconds = setup.seconds();
    e2e.worldTicksPerSecond =
        static_cast<double>(measured_ticks) / busy_seconds;
    accountTicks(before, h.server->stats(), updates, report);
    checkSessions(h, plans, options.seed, report);
    reportEndToEnd(e2e, report);
}

// --- Traced run --------------------------------------------------------

/** What the traced run keeps of one measured update: the outside
 *  timers plus the hosted worlds' step stats, summed. */
struct UpdateRecord
{
    double wallMs = 0, burstMs = 0, tickWorkMs = 0;
    std::array<double, phaseCount> phaseMs{};
    double pairs = 0, pairsTested = 0, contacts = 0, islands = 0,
           contactJoints = 0, largestRows = 0, rowIterations = 0,
           relaxations = 0, largestSolveUs = 0, largestClothUs = 0,
           arenaGrowths = 0;
    double chunks = 0, steals = 0, checkpoints = 0, allocs = 0;
    std::vector<double> laneChunks;
};

UpdateRecord
recordUpdate(const Hosted &h, double wall_ms,
             const std::vector<LaneStats> &lanesBefore,
             const std::vector<LaneStats> &lanesAfter,
             std::uint64_t checkpoints, std::uint64_t allocs)
{
    UpdateRecord r;
    r.wallMs = wall_ms;
    r.burstMs = h.server->stats().lastUpdateSeconds * 1e3;
    for (const World *w : h.worlds) {
        const StepStats &s = w->lastStepStats();
        for (int p = 0; p < phaseCount; ++p)
            r.phaseMs[p] += s.phaseSeconds[p] * 1e3;
        r.pairs += static_cast<double>(s.pairsFound);
        r.pairsTested += static_cast<double>(s.narrowphase.pairsTested);
        r.contacts += static_cast<double>(s.contactsCreated);
        r.islands += static_cast<double>(s.islands.size());
        r.contactJoints += static_cast<double>(s.contactJointsCreated);
        r.largestRows = std::max(
            r.largestRows, static_cast<double>(s.island.largestIslandRows));
        r.rowIterations += static_cast<double>(s.solver.rowIterations);
        r.relaxations +=
            static_cast<double>(s.cloth.constraintRelaxations);
        r.largestSolveUs =
            std::max(r.largestSolveUs, s.phaseSeconds[ipPhase] * 1e6);
        r.largestClothUs =
            std::max(r.largestClothUs, s.phaseSeconds[clothPhase] * 1e6);
        r.arenaGrowths += static_cast<double>(s.arenaGrowths);
    }
    for (double ms : r.phaseMs)
        r.tickWorkMs += ms;
    r.laneChunks.resize(lanesAfter.size());
    for (std::size_t l = 0; l < lanesAfter.size(); ++l) {
        r.laneChunks[l] = static_cast<double>(
            lanesAfter[l].chunksExecuted - lanesBefore[l].chunksExecuted);
        r.chunks += r.laneChunks[l];
        r.steals += static_cast<double>(lanesAfter[l].rangesStolen -
                                        lanesBefore[l].rangesStolen);
    }
    r.checkpoints = static_cast<double>(checkpoints);
    r.allocs = static_cast<double>(allocs);
    return r;
}

template <typename Fn>
double
medianOver(const std::vector<UpdateRecord> &recs, Fn &&fn)
{
    std::vector<double> v;
    v.reserve(recs.size());
    for (const UpdateRecord &r : recs)
        v.push_back(fn(r));
    return median(std::move(v));
}

template <typename Fn>
double
meanOver(const std::vector<UpdateRecord> &recs, Fn &&fn)
{
    double total = 0;
    for (const UpdateRecord &r : recs)
        total += fn(r);
    return ratio(total, static_cast<double>(recs.size()));
}

/** Update wall clock = serial part + tick burst; the burst's
 *  lane-time = hosted phase timers + time outside them (per-step
 *  overhead, dispatch, idle lanes). Means, so the rows add up. */
void
printLayerTable(const std::vector<UpdateRecord> &recs, unsigned lanes)
{
    const double wall = meanOver(recs, [](auto &r) { return r.wallMs; });
    const double burst = meanOver(recs, [](auto &r) { return r.burstMs; });
    const double work =
        meanOver(recs, [](auto &r) { return r.tickWorkMs; });
    const double lane_time = burst * lanes;
    std::printf("layer table: server_1k, %zu traced updates of %d "
                "world-ticks, %u lanes, mean per update\n",
                recs.size(), sessionCount, lanes);
    std::printf("  %-40s %10.4f ms %6.1f%%\n", "update wall clock", wall,
                100.0);
    std::printf("  %-40s %10.4f ms %6.1f%%\n",
                "serial: accumulators, watchdog, checkpoints",
                wall - burst, 100.0 * ratio(wall - burst, wall));
    std::printf("  %-40s %10.4f ms %6.1f%%\n", "burst: world ticks on "
                "all lanes", burst, 100.0 * ratio(burst, wall));
    std::printf("  %-40s %10.4f ms %6.1f%%  (burst x lanes)\n",
                "burst lane-time", lane_time, 100.0);
    for (int p = 0; p < phaseCount; ++p) {
        const double ms =
            meanOver(recs, [p](auto &r) { return r.phaseMs[p]; });
        std::printf("    %-38s %10.4f ms %6.1f%%\n",
                    pipelinePhaseName(static_cast<PipelinePhase>(p)), ms,
                    100.0 * ratio(ms, lane_time));
    }
    std::printf("    %-38s %10.4f ms %6.1f%%\n",
                "unattributed: outside phase timers, idle",
                lane_time - work, 100.0 * ratio(lane_time - work, lane_time));
    for (unsigned l = 0; l < lanes; ++l) {
        const double chunks = meanOver(recs, [l](auto &r) {
            return l < r.laneChunks.size() ? r.laneChunks[l] : 0.0;
        });
        std::printf("    lane %u: %.1f world-tick chunks per update\n", l,
                    chunks);
    }
}

void
runTraced(const Options &options, Report &report)
{
    const std::vector<SessionPlan> plans = planSessions(options.seed);
    Hosted h = setUp(plans, report);
    warmUp(h, report);
    Server &server = *h.server;
    const unsigned lanes = server.scheduler().laneCount();

    // Untraced and traced blocks alternate on the one server; a
    // traced update adds the allocation count and, after the timer
    // stops, the sweep over every hosted world's step stats.
    const ServerStats before = server.stats();
    std::vector<double> plain_ms;
    std::vector<UpdateRecord> recs;
    std::vector<LaneStats> lanes_before, lanes_after;
    std::uint64_t updates = 0;
    const Clock::time_point begin = Clock::now();
    while (secondsBetween(begin, Clock::now()) < options.seconds) {
        for (int b = 0; b < blockUpdates; ++b, ++updates) {
            const Clock::time_point t0 = Clock::now();
            advanceChecked(server, report);
            plain_ms.push_back(secondsBetween(t0, Clock::now()) * 1e3);
        }
        for (int b = 0; b < blockUpdates; ++b, ++updates) {
            server.scheduler().laneStats(lanes_before);
            const std::uint64_t checkpoints = server.stats().checkpoints;
            const std::uint64_t allocs_before = allocCount();
            setAllocCounting(true);
            const Clock::time_point t0 = Clock::now();
            advanceChecked(server, report);
            const double ms = secondsBetween(t0, Clock::now()) * 1e3;
            setAllocCounting(false);
            const std::uint64_t allocs = allocCount() - allocs_before;
            server.scheduler().laneStats(lanes_after);
            recs.push_back(recordUpdate(
                h, ms, lanes_before, lanes_after,
                server.stats().checkpoints - checkpoints, allocs));
        }
    }
    accountTicks(before, server.stats(), updates, report);
    printLayerTable(recs, lanes);

    LayerMetrics l;
    double allocs = 0, np_ms = 0, ip_ms = 0, cloth_ms = 0, pairs = 0,
           row_iters = 0, relaxations = 0;
    for (const UpdateRecord &r : recs) {
        allocs += r.allocs;
        np_ms += r.phaseMs[npPhase];
        ip_ms += r.phaseMs[ipPhase];
        cloth_ms += r.phaseMs[clothPhase];
        pairs += r.pairsTested;
        row_iters += r.rowIterations;
        relaxations += r.relaxations;
        l.parallelArenaGrowths += r.arenaGrowths;
    }
    // world.unattributed_ms stays 0: a hosted step has no outside
    // timer, so its time outside the phase timers is not observable
    // per step (the table shows it per update, mixed with idle).
    l.worldSerialShare = medianOver(recs, [](const UpdateRecord &r) {
        return ratio(r.phaseMs[bpPhase] + r.phaseMs[icPhase], r.tickWorkMs);
    });
    l.worldHeapAllocsPerStep =
        ratio(allocs, static_cast<double>(recs.size()) * sessionCount);
    auto med = [&recs](double UpdateRecord::*f) {
        return medianOver(recs, [f](const UpdateRecord &r) { return r.*f; });
    };
    auto phase_med = [&recs](int p) {
        return medianOver(recs,
                          [p](const UpdateRecord &r) { return r.phaseMs[p]; });
    };
    l.broadphaseMs = phase_med(bpPhase);
    l.broadphasePairs = med(&UpdateRecord::pairs);
    l.narrowphaseMs = phase_med(npPhase);
    l.narrowphasePairsTested = med(&UpdateRecord::pairsTested);
    l.narrowphaseContacts = med(&UpdateRecord::contacts);
    l.narrowphaseNsPerPair = ratio(np_ms * 1e6, pairs);
    l.islandMs = phase_med(icPhase);
    l.islandIslands = med(&UpdateRecord::islands);
    l.islandContactJoints = med(&UpdateRecord::contactJoints);
    l.islandLargestRows = med(&UpdateRecord::largestRows);
    l.solverMs = phase_med(ipPhase);
    l.solverRowIterations = med(&UpdateRecord::rowIterations);
    l.solverNsPerRowIter = ratio(ip_ms * 1e6, row_iters);
    l.solverLargestIslandUs = med(&UpdateRecord::largestSolveUs);
    l.clothMs = phase_med(clothPhase);
    l.clothRelaxations = med(&UpdateRecord::relaxations);
    l.clothNsPerRelaxation = ratio(cloth_ms * 1e6, relaxations);
    l.clothLargestClothUs = med(&UpdateRecord::largestClothUs);
    l.parallelChunks = med(&UpdateRecord::chunks);
    l.parallelSteals = med(&UpdateRecord::steals);

    l.serverBurstMs = med(&UpdateRecord::burstMs);
    l.serverSerialMs = medianOver(
        recs, [](const UpdateRecord &r) { return r.wallMs - r.burstMs; });
    l.serverTickWorkMs = med(&UpdateRecord::tickWorkMs);
    l.serverBurstUtilization =
        medianOver(recs, [lanes](const UpdateRecord &r) {
            return ratio(r.tickWorkMs, r.burstMs * lanes);
        });
    l.serverCheckpoints = med(&UpdateRecord::checkpoints);
    for (WorldId id : h.ids) {
        SessionHealth health;
        if (server.sessionHealth(id, health).ok())
            l.serverCheckpointBytes +=
                static_cast<double>(health.checkpointBytes);
    }

    // State capture on a seeded sample of sessions, outside the
    // measured window.
    SeededRng rng(options.seed ^ 0xca97ull);
    std::vector<double> capture_us;
    double capture_bytes = 0;
    std::vector<std::uint8_t> blob;
    for (int k = 0; k < captureSample; ++k) {
        const WorldId id =
            h.ids[rng.range(0, static_cast<int>(h.ids.size()) - 1)];
        const Clock::time_point t0 = Clock::now();
        const Status st = server.snapshotWorld(id, blob);
        capture_us.push_back(secondsBetween(t0, Clock::now()) * 1e6);
        if (!st.ok())
            report.fail("snapshotWorld: " + st.message());
        capture_bytes += static_cast<double>(blob.size());
    }
    l.captureUsPerWorld = median(capture_us);
    l.captureBytesPerWorld = capture_bytes / captureSample;

    const double traced_p50 = med(&UpdateRecord::wallMs);
    const double plain_p50 = median(plain_ms);
    l.traceOverheadPct = 100.0 * (traced_p50 / plain_p50 - 1.0);
    for (const World *w : h.worlds)
        l.traceEventsDropped +=
            static_cast<double>(w->trace().droppedEvents());
    std::printf("trace overhead: traced update p50 %.4f ms vs untraced "
                "%.4f ms over %zu + %zu interleaved updates\n",
                traced_p50, plain_p50, recs.size(), plain_ms.size());
    if (l.traceEventsDropped > 0)
        report.fail("trace events dropped");

    checkSessions(h, plans, options.seed, report);
    reportLayers(l, report);
}

} // namespace

double
timeServerSetup(const Options &options, Report &report)
{
    const std::vector<SessionPlan> plans = planSessions(options.seed);
    const Clock::time_point t0 = Clock::now();
    const Hosted h = setUp(plans, report);
    return secondsBetween(t0, Clock::now());
}

void
runServerWorkload(const Options &options, Report &report)
{
    if (options.trace)
        runTraced(options, report);
    else
        runUntraced(options, report);
}

} // namespace perfbench
