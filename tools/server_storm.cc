/**
 * @file
 * Server-scale chaos harness: one parallax::Server hosting a fleet
 * of small worlds under a scripted ServerFaultPlan — NaN poisoning,
 * corrupted checkpoints, stalled ticks, and a doomed cohort whose
 * persistent stalls must walk the whole recovery ladder down to
 * eviction. The same storm is replayed at worker counts 0, 2 and 8;
 * the run fails (nonzero exit) if
 *
 *  - any surviving world ends the storm unrecovered (non-finite
 *    state, frozen, or still on probation after the fault window),
 *  - the doomed cohort was not fully evicted,
 *  - recovery decisions (the ladder's action log), per-world state
 *    hashes, or the server metrics line differ between worker
 *    counts — the self-healing layer must be bitwise deterministic,
 *  - or no faults fired at all (a miswired storm proves nothing).
 *
 * The last stdout line is a machine-readable JSON summary; --json
 * silences the human banner.
 *
 * Run: ./build/tools/server_storm [worlds] [ticks] [--json]
 *      (defaults: 1000 worlds, 60 ticks)
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "parallax.hh"

using namespace parallax;

namespace
{

/** A tiny deterministic scene: ground plane + 3-sphere stack, with
 *  a per-world lateral offset so cross-world hash comparisons
 *  cannot pass by accident (the bench_server idiom). */
WorldConfig
smallWorldConfig(double tick_dt)
{
    WorldConfig config;
    config.dt = tick_dt;
    config.workerThreads = 0;
    return config;
}

void
populateSmallWorld(World &world, std::uint64_t seed)
{
    const SphereShape *sphere = world.addSphere(0.5);
    const PlaneShape *plane =
        world.addPlane(Vec3{0.0, 1.0, 0.0}, 0.0);
    RigidBody *ground =
        world.createStaticBody(Transform(Quat(), Vec3{0, 0, 0}));
    world.createGeom(plane, ground);
    const double dx = 0.001 * static_cast<double>(seed % 97);
    for (int i = 0; i < 3; ++i) {
        RigidBody *body = world.createDynamicBody(
            Transform(Quat(), Vec3{dx, 0.6 + 1.05 * i, 0.0}),
            *sphere, 1.0);
        world.createGeom(sphere, body);
    }
}

// Deterministic fault cohorts by world id. A world may belong to
// several; overlaps are part of the storm.
bool
inNanCohort(WorldId id)
{
    return id % 10 == 3;
}

bool
inDoubleNanCohort(WorldId id)
{
    return id % 20 == 13; // Second hit => demoted rollback.
}

bool
inCorruptCohort(WorldId id)
{
    return id % 17 == 5; // Newest checkpoint dies before the NaN.
}

bool
inStallCohort(WorldId id)
{
    return id % 13 == 7; // One scripted deadline overrun.
}

bool
inDoomedCohort(WorldId id)
{
    return id % 101 == 9; // Permanent stall: ladder must evict.
}

ServerFaultPlan
buildPlan(std::size_t worlds)
{
    ServerFaultPlan plan;
    for (WorldId id = 1; id <= worlds; ++id) {
        if (inNanCohort(id)) {
            plan.events.push_back(
                {20, id, ServerFaultKind::NanState,
                 static_cast<std::uint32_t>(id % 3), 0.0});
            if (inDoubleNanCohort(id))
                plan.events.push_back(
                    {35, id, ServerFaultKind::NanState,
                     static_cast<std::uint32_t>((id + 1) % 3), 0.0});
        }
        if (inCorruptCohort(id)) {
            plan.events.push_back(
                {18, id, ServerFaultKind::CorruptCheckpoint, 0,
                 0.0});
            plan.events.push_back(
                {18, id, ServerFaultKind::NanState, 0, 0.0});
        }
        if (inStallCohort(id))
            plan.events.push_back(
                {25, id, ServerFaultKind::StalledTick, 0, 2.0});
    }
    return plan;
}

struct StormOutcome
{
    std::string decisions; // Flattened recovery log.
    std::string metrics;   // Server metrics line.
    std::vector<std::uint64_t> hashes;
    std::vector<WorldId> survivors;
    ServerStats stats;
    std::uint64_t unrecovered = 0;
    std::uint64_t doomedAlive = 0;
};

StormOutcome
runStorm(unsigned workers, std::size_t worlds, int ticks)
{
    ServerConfig sc;
    sc.workerThreads = workers;
    sc.tickDt = 0.01;
    sc.checkpointIntervalTicks = 6;
    sc.checkpointRingSize = 3;
    sc.tickDeadline = 0.5;
    sc.recovery.maxRollbacks = 2;
    sc.recovery.backoffBaseTicks = 4;
    sc.recovery.demoteRungsPerRetry = 2;
    sc.recovery.probationTicks = 10;
    sc.recovery.freezeUpdates = 3;
    sc.faultPlan = buildPlan(worlds);
    // Mocked tick costs make deadline decisions a pure function of
    // (tick, world): the doomed cohort stalls forever from tick 30.
    sc.mockTickSeconds = [](std::uint64_t tick, WorldId id) {
        return (inDoomedCohort(id) && tick >= 30) ? 1.0 : 0.001;
    };
    Server server(sc);

    for (std::size_t i = 0; i < worlds; ++i) {
        auto world =
            std::make_unique<World>(smallWorldConfig(sc.tickDt));
        populateSmallWorld(*world, i + 1);
        WorldId id = invalidWorldId;
        const Status st = server.adoptWorld(std::move(world), id);
        if (!st.ok()) {
            std::fprintf(stderr, "adopt failed: %s\n",
                         st.toString().c_str());
            std::exit(2);
        }
    }

    for (int t = 0; t < ticks; ++t) {
        const Status st = server.tickAll(1);
        if (!st.ok()) {
            std::fprintf(stderr, "tickAll failed: %s\n",
                         st.toString().c_str());
            std::exit(2);
        }
    }

    StormOutcome outcome;
    std::ostringstream log;
    for (const RecoveryRecord &r : server.recoveryLog()) {
        log << "u" << r.update << " w" << r.world << " "
            << worldFailureName(r.failure) << " "
            << recoveryActionName(r.action) << " t" << r.tick
            << " rt" << r.restoredTick << " rung" << r.rung << " "
            << statusCodeName(r.status.code()) << "\n";
    }
    outcome.decisions = log.str();
    outcome.metrics = server.metricsLine();
    outcome.stats = server.stats();
    for (WorldId id : server.worldIds()) {
        outcome.survivors.push_back(id);
        outcome.hashes.push_back(worldStateHash(*server.world(id)));
        if (inDoomedCohort(id))
            ++outcome.doomedAlive;
        SessionHealth health;
        if (!server.sessionHealth(id, health).ok() ||
            health.state != HealthState::Healthy ||
            !worldStateFinite(*server.world(id)))
            ++outcome.unrecovered;
    }
    return outcome;
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t worlds = 1000;
    int ticks = 60;
    bool quiet = false;
    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            quiet = true;
        } else if (positional == 0) {
            worlds = static_cast<std::size_t>(
                std::strtoull(argv[i], nullptr, 10));
            ++positional;
        } else if (positional == 1) {
            ticks = std::atoi(argv[i]);
            ++positional;
        } else {
            std::fprintf(stderr,
                         "usage: server_storm [worlds] [ticks] "
                         "[--json]\n");
            return 2;
        }
    }
    if (worlds == 0 || ticks <= 0) {
        std::fprintf(stderr, "worlds and ticks must be positive\n");
        return 2;
    }

    const unsigned worker_counts[] = {0u, 2u, 8u};
    std::vector<StormOutcome> outcomes;
    for (unsigned workers : worker_counts) {
        if (!quiet) {
            std::fprintf(stderr,
                         "storm: %zu worlds, %d ticks, w=%u...\n",
                         worlds, ticks, workers);
            std::fflush(stderr);
        }
        outcomes.push_back(runStorm(workers, worlds, ticks));
    }

    std::uint64_t mismatches = 0;
    for (std::size_t i = 1; i < outcomes.size(); ++i) {
        if (outcomes[i].decisions != outcomes[0].decisions ||
            outcomes[i].hashes != outcomes[0].hashes ||
            outcomes[i].survivors != outcomes[0].survivors ||
            outcomes[i].metrics != outcomes[0].metrics) {
            ++mismatches;
            if (!quiet)
                std::fprintf(stderr,
                             "w=%u diverges from w=%u\n",
                             worker_counts[i], worker_counts[0]);
        }
    }

    const StormOutcome &base = outcomes[0];
    if (!quiet) {
        std::fprintf(
            stderr,
            "faults=%llu trips=%llu rollbacks=%llu "
            "recoveries=%llu freezes=%llu evictions=%llu "
            "survivors=%zu unrecovered=%llu doomed_alive=%llu\n",
            static_cast<unsigned long long>(
                base.stats.faultsInjected),
            static_cast<unsigned long long>(
                base.stats.watchdogTrips),
            static_cast<unsigned long long>(base.stats.rollbacks),
            static_cast<unsigned long long>(base.stats.recoveries),
            static_cast<unsigned long long>(base.stats.freezes),
            static_cast<unsigned long long>(base.stats.evictions),
            base.survivors.size(),
            static_cast<unsigned long long>(base.unrecovered),
            static_cast<unsigned long long>(base.doomedAlive));
    }

    const bool pass = base.unrecovered == 0 &&
                      base.doomedAlive == 0 && mismatches == 0 &&
                      base.stats.faultsInjected > 0 &&
                      base.stats.rollbacks > 0 &&
                      base.stats.evictions > 0;
    std::printf(
        "{\"tool\":\"server_storm\",\"worlds\":%zu,\"ticks\":%d,"
        "\"workers\":[0,2,8],\"faults_injected\":%llu,"
        "\"watchdog_trips\":%llu,\"rollbacks\":%llu,"
        "\"recoveries\":%llu,\"demotions\":%llu,\"freezes\":%llu,"
        "\"evictions\":%llu,\"survivors\":%zu,\"unrecovered\":%llu,"
        "\"doomed_alive\":%llu,\"decision_mismatches\":%llu,"
        "\"status\":\"%s\"}\n",
        worlds, ticks,
        static_cast<unsigned long long>(base.stats.faultsInjected),
        static_cast<unsigned long long>(base.stats.watchdogTrips),
        static_cast<unsigned long long>(base.stats.rollbacks),
        static_cast<unsigned long long>(base.stats.recoveries),
        static_cast<unsigned long long>(base.stats.demotions),
        static_cast<unsigned long long>(base.stats.freezes),
        static_cast<unsigned long long>(base.stats.evictions),
        base.survivors.size(),
        static_cast<unsigned long long>(base.unrecovered),
        static_cast<unsigned long long>(base.doomedAlive),
        static_cast<unsigned long long>(mismatches),
        pass ? "pass" : "fail");
    return pass ? 0 : 1;
}
