/**
 * @file
 * Fault storm: the containment acceptance driver. Every benchmark
 * scene runs at {0,2,8} workers under InvariantMode::Quarantine with
 * a scripted fault schedule (NaN velocities, oversized impulses,
 * corrupted contact normals, stalled scheduler lanes) and a real-time
 * governor fed by a mocked clock whose cost model tracks the
 * governor's own effective iteration counts — a closed loop, so
 * walking down the degradation ladder genuinely reduces the modeled
 * step time and the storm can assert the ladder stabilises above its
 * floor.
 *
 * A run passes when:
 *  - the process survives every fault (Quarantine contains them),
 *  - the world's invariants are clean after the storm,
 *  - every injected state fault ended quarantined or cleanly
 *    recovered (final invariants clean covers recovery; at least the
 *    NaN faults must have triggered containment),
 *  - the governor never degraded below its documented floors and
 *    never missed a deadline while already at the ladder floor,
 *  - quarantine decisions are identical across worker counts
 *    (containment is deterministic),
 *  - a server-level pass (the same scenes hosted under the
 *    self-healing multi-world server with a scripted
 *    ServerFaultPlan) ends with every world recovered and bitwise
 *    identical recovery decisions at every worker count.
 *
 * The last stdout line is a machine-readable JSON summary; exit is
 * nonzero on any failure. Per-run progress goes to stderr.
 *
 * Observability (docs/OBSERVABILITY.md): --trace=FILE records
 * per-phase spans (plus quarantine/fault instant markers) in every
 * run and writes one Chrome trace JSON per (scene, workers),
 * decorated into FILE's name; --metrics-json prints one
 * World::metricsLine() per run to stderr, keeping the "last stdout
 * line is the summary" contract intact.
 *
 * Run: ./build/tools/fault_storm [steps] [scale] [--json]
 *          [--trace=FILE] [--metrics-json]
 *      (--json only silences the human banner; the JSON summary line
 *       is always emitted)
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "parallax.hh"
#include "workload/benchmarks.hh"

using namespace parallax;

namespace
{

/** The scripted storm: one of each fault kind plus a second NaN late
 *  in the run so thaw/probation paths see traffic too. */
FaultPlan
stormPlan()
{
    FaultPlan plan;
    plan.events = {
        {25, FaultKind::NanVelocity, 3, 0.0},
        {40, FaultKind::HugeImpulse, 7, 1.0e4},
        {55, FaultKind::CorruptContactNormal, 1, 0.0},
        {70, FaultKind::StallLane, 1, 0.002},
        {90, FaultKind::NanVelocity, 11, 0.0},
    };
    return plan;
}

/** One run's containment outcome, compared across worker counts. */
struct RunTrace
{
    std::vector<std::string> records; // "step:body:cloth:code:perm"
    std::uint64_t faultsInjected = 0;
    std::uint64_t quarantineEvents = 0;
    std::uint64_t violations = 0;
};

/** Server-level containment outcome: a small hosted fleet under a
 *  ServerFaultPlan, checked the same way the world-level storm is —
 *  everything recovered, decisions identical across worker counts. */
struct ServerStormResult
{
    std::uint64_t faults = 0;
    std::uint64_t rollbacks = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t evictions = 0;
    std::uint64_t unrecovered = 0;
    std::uint64_t mismatches = 0;
};

/** Host one benchmark scene per slot under the self-healing server
 *  and poison three of them (NaN state, corrupt newest checkpoint,
 *  permanent stall). Replays at {0,2,8} workers and demands bitwise
 *  identical recovery logs and surviving-world hashes. */
ServerStormResult
runServerStorm(double scale, SimdBackend simd)
{
    struct Outcome
    {
        std::string decisions;
        std::vector<std::uint64_t> hashes;
        ServerStats stats;
        std::uint64_t unrecovered = 0;
    };
    const unsigned worker_counts[] = {0, 2, 8};
    std::vector<Outcome> outcomes;
    for (unsigned workers : worker_counts) {
        ServerConfig sc;
        sc.workerThreads = workers;
        sc.tickDt = 0.01;
        sc.checkpointIntervalTicks = 4;
        sc.checkpointRingSize = 3;
        sc.tickDeadline = 0.5;
        sc.recovery.maxRollbacks = 2;
        sc.recovery.backoffBaseTicks = 2;
        sc.recovery.probationTicks = 6;
        sc.recovery.freezeUpdates = 2;
        sc.faultPlan.events = {
            {12, 2, ServerFaultKind::NanState, 0, 0.0},
            {10, 3, ServerFaultKind::CorruptCheckpoint, 0, 0.0},
            {12, 3, ServerFaultKind::NanState, 1, 0.0},
        };
        // World 4 stalls permanently from tick 15: the ladder must
        // walk it down to eviction.
        sc.mockTickSeconds = [](std::uint64_t tick, WorldId id) {
            return (id == 4 && tick >= 15) ? 1.0 : 0.001;
        };
        Server server(sc);
        for (BenchmarkId id : allBenchmarks) {
            WorldConfig config;
            config.workerThreads = 0;
            config.dt = sc.tickDt;
            config.simdBackend = simd;
            WorldId wid = invalidWorldId;
            if (!server
                     .adoptWorld(buildBenchmark(id, config, scale),
                                 wid)
                     .ok())
                return ServerStormResult{0, 0, 0, 0, 1, 0};
        }
        for (int t = 0; t < 40; ++t) {
            if (!server.tickAll(1).ok())
                return ServerStormResult{0, 0, 0, 0, 1, 0};
        }
        Outcome o;
        for (const RecoveryRecord &r : server.recoveryLog()) {
            o.decisions +=
                std::to_string(r.update) + ":" +
                std::to_string(r.world) + ":" +
                worldFailureName(r.failure) + ":" +
                recoveryActionName(r.action) + ":" +
                std::to_string(r.restoredTick) + ";";
        }
        o.stats = server.stats();
        for (WorldId wid : server.worldIds()) {
            o.hashes.push_back(worldStateHash(*server.world(wid)));
            SessionHealth health;
            if (!server.sessionHealth(wid, health).ok() ||
                health.state != HealthState::Healthy ||
                !worldStateFinite(*server.world(wid)))
                ++o.unrecovered;
        }
        outcomes.push_back(std::move(o));
    }
    ServerStormResult result;
    result.faults = outcomes[0].stats.faultsInjected;
    result.rollbacks = outcomes[0].stats.rollbacks;
    result.recoveries = outcomes[0].stats.recoveries;
    result.evictions = outcomes[0].stats.evictions;
    result.unrecovered = outcomes[0].unrecovered;
    for (std::size_t i = 1; i < outcomes.size(); ++i) {
        if (outcomes[i].decisions != outcomes[0].decisions ||
            outcomes[i].hashes != outcomes[0].hashes)
            ++result.mismatches;
    }
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quiet = false;
    bool metrics_json = false;
    std::string trace_path;
    int steps = 200;
    double scale = 0.12;
    int npos = 0;
    SimdBackend simd = simdBackendFromEnv(SimdBackend::Scalar);
    constexpr const char traceFlag[] = "--trace=";
    constexpr const char simdFlag[] = "--simd=";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            quiet = true;
        } else if (std::strcmp(argv[i], "--metrics-json") == 0) {
            metrics_json = true;
        } else if (std::strncmp(argv[i], traceFlag,
                                sizeof(traceFlag) - 1) == 0) {
            trace_path = argv[i] + sizeof(traceFlag) - 1;
        } else if (std::strncmp(argv[i], simdFlag,
                                sizeof(simdFlag) - 1) == 0) {
            const char *value = argv[i] + sizeof(simdFlag) - 1;
            if (!parseSimdBackend(value, simd)) {
                std::fprintf(stderr,
                             "unrecognized --simd value '%s' "
                             "(expected scalar or native)\n",
                             value);
                return 2;
            }
        } else if (npos == 0) {
            steps = std::atoi(argv[i]);
            ++npos;
        } else if (npos == 1) {
            scale = std::atof(argv[i]);
            ++npos;
        }
    }
    const unsigned worker_counts[] = {0, 2, 8};

    if (!quiet) {
        std::fprintf(stderr,
                     "fault storm: %d scenes x {0,2,8} workers x %d "
                     "substeps at scale %g, quarantine mode, "
                     "mocked-clock governor, %s kernels\n",
                     numBenchmarks, steps, scale,
                     kernelBackendFor(simd).name());
    }

    int runs = 0;
    std::uint64_t total_faults = 0;
    std::uint64_t total_quarantines = 0;
    std::uint64_t total_violations = 0;
    std::uint64_t floor_breaches = 0;
    std::uint64_t misses_at_floor = 0;
    std::uint64_t dirty_worlds = 0;
    std::uint64_t uncontained_runs = 0;
    std::uint64_t mismatches = 0;

    for (BenchmarkId id : allBenchmarks) {
        std::vector<RunTrace> traces;
        for (unsigned workers : worker_counts) {
            WorldConfig config;
            config.workerThreads = workers;
            config.simdBackend = simd;
            config.tracing = !trace_path.empty();
            config.invariantMode = InvariantMode::Quarantine;
            config.quarantineThawSteps = 20;
            config.quarantineMaxRetries = 1;
            config.quarantineProbationSteps = 15;
            config.faultPlan = stormPlan();
            // 33 ms display frame / 3 substeps = 11 ms per substep.
            config.frameBudget = 0.033;

            // Closed-loop mocked clock: a load spike between steps
            // 20 and 120 prices each solver iteration at 0.6 ms and
            // each cloth iteration at 0.2 ms, so full quality
            // (20/20 iterations) projects ~16 ms — over budget —
            // while the ladder's reduced iteration counts drop the
            // modeled time back under 11 ms well before the floor.
            auto world_slot = std::make_shared<World *>(nullptr);
            const int full_solver = config.solverIterations;
            const int full_cloth = config.clothIterations;
            config.mockPhaseTime =
                [world_slot, full_solver, full_cloth](
                    std::uint64_t step, PipelinePhase phase) {
                    int solver = full_solver;
                    int cloth = full_cloth;
                    if (World *w = *world_slot) {
                        const GovernorStats &g = w->governorStats();
                        if (g.solverIterations > 0)
                            solver = g.solverIterations;
                        if (g.clothIterations > 0)
                            cloth = g.clothIterations;
                    }
                    const double load =
                        step >= 20 && step < 120 ? 1.0 : 0.05;
                    switch (phase) {
                      case PipelinePhase::Broadphase:
                        return 0.0002 * load;
                      case PipelinePhase::Narrowphase:
                        return 0.0002 * load;
                      case PipelinePhase::IslandCreation:
                        return 0.0001 * load;
                      case PipelinePhase::IslandProcessing:
                        return 0.0006 * solver * load;
                      case PipelinePhase::Cloth:
                        return 0.0002 * cloth * load;
                    }
                    return 0.0;
                };

            std::unique_ptr<World> world =
                buildBenchmark(id, config, scale);
            *world_slot = world.get();

            const int solver_floor = std::min(
                config.governor.solverIterationFloor, full_solver);
            const int cloth_floor = std::min(
                config.governor.clothIterationFloor, full_cloth);
            RunTrace trace;
            for (int i = 0; i < steps; ++i) {
                world->step();
                const GovernorStats &g =
                    world->lastStepStats().governor;
                if (g.active && (g.solverIterations < solver_floor ||
                                 g.clothIterations < cloth_floor))
                    ++floor_breaches;
                trace.faultsInjected +=
                    world->lastStepStats().faultsInjected;
            }
            const GovernorStats &g = world->lastStepStats().governor;
            misses_at_floor += g.deadlineMissesAtFloor;
            trace.quarantineEvents = world->quarantineEventCount();
            trace.violations = world->invariantViolationCount();
            for (const World::QuarantineRecord &r :
                 world->quarantineRecords()) {
                trace.records.push_back(
                    std::to_string(r.step) + ":" +
                    std::to_string(r.body) + ":" +
                    std::to_string(r.cloth) + ":" + r.code + ":" +
                    (r.permanent ? "p" : "t"));
            }

            if (!trace_path.empty()) {
                const std::string path = decorateTracePath(
                    trace_path,
                    std::string(benchmarkInfo(id).shortName) + "_w" +
                        std::to_string(workers));
                const std::string err = world->writeTrace(path);
                if (!err.empty()) {
                    std::fprintf(stderr, "trace write failed: %s\n",
                                 err.c_str());
                }
            }
            if (metrics_json) {
                std::fprintf(stderr, "%s\n",
                             world->metricsLine().c_str());
            }

            // Containment: the world must be healthy after the storm
            // (quarantined islands are frozen at last-good state and
            // must pass the checker like everything else), and the
            // scripted NaN corruptions must have been caught.
            const std::vector<InvariantViolation> after =
                checkWorldInvariants(*world);
            if (!after.empty())
                ++dirty_worlds;
            const bool contained = trace.quarantineEvents >= 1;
            if (!contained)
                ++uncontained_runs;

            total_faults += trace.faultsInjected;
            total_quarantines += trace.quarantineEvents;
            total_violations += trace.violations;
            ++runs;
            if (!quiet) {
                std::fprintf(
                    stderr,
                    "  %-11s w=%u  %s  (%llu faults, %llu "
                    "quarantines, %llu violations, ladder peak "
                    "level %d, %llu misses-at-floor)\n",
                    benchmarkInfo(id).shortName, workers,
                    after.empty() && contained ? "ok" : "FAILED",
                    static_cast<unsigned long long>(
                        trace.faultsInjected),
                    static_cast<unsigned long long>(
                        trace.quarantineEvents),
                    static_cast<unsigned long long>(
                        trace.violations),
                    g.ladderLevel,
                    static_cast<unsigned long long>(
                        g.deadlineMissesAtFloor));
                std::fflush(stderr);
            }
            traces.push_back(std::move(trace));
        }

        // Containment must be deterministic: identical quarantine
        // decisions at every worker count.
        for (std::size_t i = 1; i < traces.size(); ++i) {
            if (traces[i].records != traces[0].records ||
                traces[i].violations != traces[0].violations) {
                ++mismatches;
                if (!quiet) {
                    std::fprintf(stderr,
                                 "  %-11s w=%u quarantine trace "
                                 "diverges from w=%u\n",
                                 benchmarkInfo(id).shortName,
                                 worker_counts[i], worker_counts[0]);
                }
            }
        }
    }

    // Server-level pass: the same scenes hosted under the
    // self-healing server with a scripted ServerFaultPlan.
    if (!quiet) {
        std::fprintf(stderr, "server storm: %d hosted scenes x "
                             "{0,2,8} workers, checkpoint/rollback "
                             "recovery\n",
                     numBenchmarks);
        std::fflush(stderr);
    }
    const ServerStormResult sv = runServerStorm(scale, simd);
    if (!quiet) {
        std::fprintf(
            stderr,
            "  server      %s  (%llu faults, %llu rollbacks, %llu "
            "recoveries, %llu evictions, %llu unrecovered)\n",
            sv.unrecovered == 0 && sv.mismatches == 0 &&
                    sv.faults > 0
                ? "ok"
                : "FAILED",
            static_cast<unsigned long long>(sv.faults),
            static_cast<unsigned long long>(sv.rollbacks),
            static_cast<unsigned long long>(sv.recoveries),
            static_cast<unsigned long long>(sv.evictions),
            static_cast<unsigned long long>(sv.unrecovered));
        std::fflush(stderr);
    }

    const bool pass = floor_breaches == 0 && misses_at_floor == 0 &&
                      dirty_worlds == 0 && uncontained_runs == 0 &&
                      mismatches == 0 && total_faults > 0 &&
                      sv.unrecovered == 0 && sv.mismatches == 0 &&
                      sv.faults > 0;
    std::printf(
        "{\"tool\":\"fault_storm\",\"scenes\":%d,"
        "\"workers\":[0,2,8],\"runs\":%d,\"steps\":%d,\"scale\":%g,"
        "\"faults_injected\":%llu,\"quarantine_events\":%llu,"
        "\"violations\":%llu,\"floor_breaches\":%llu,"
        "\"deadline_misses_at_floor\":%llu,\"dirty_worlds\":%llu,"
        "\"uncontained_runs\":%llu,\"trace_mismatches\":%llu,"
        "\"server_faults\":%llu,\"server_rollbacks\":%llu,"
        "\"server_recoveries\":%llu,\"server_evictions\":%llu,"
        "\"server_unrecovered\":%llu,\"server_mismatches\":%llu,"
        "\"status\":\"%s\"}\n",
        numBenchmarks, runs, steps, scale,
        static_cast<unsigned long long>(total_faults),
        static_cast<unsigned long long>(total_quarantines),
        static_cast<unsigned long long>(total_violations),
        static_cast<unsigned long long>(floor_breaches),
        static_cast<unsigned long long>(misses_at_floor),
        static_cast<unsigned long long>(dirty_worlds),
        static_cast<unsigned long long>(uncontained_runs),
        static_cast<unsigned long long>(mismatches),
        static_cast<unsigned long long>(sv.faults),
        static_cast<unsigned long long>(sv.rollbacks),
        static_cast<unsigned long long>(sv.recoveries),
        static_cast<unsigned long long>(sv.evictions),
        static_cast<unsigned long long>(sv.unrecovered),
        static_cast<unsigned long long>(sv.mismatches),
        pass ? "pass" : "fail");
    return pass ? 0 : 1;
}
