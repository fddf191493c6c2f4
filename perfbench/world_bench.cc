/**
 * @file
 * The world workloads, `mix` and `deformable`: one paper scene at
 * full Table 4 scale, World::step called back to back (closed loop).
 *
 * Untraced run: the end-to-end step wall times. Traced run: an
 * untraced and a traced copy of the scene step in alternating
 * blocks over the same trajectory; the untraced blocks give the
 * tracing overhead, the traced blocks the layer table — pipeline
 * phase, then stealable unit (narrowphase chunk, island solve, cloth
 * step), then kernel ns per unit of work, then per-lane busy and
 * idle time — reduced in-process from World::trace().events().
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
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

/** Timed World::captureState calls in the traced run. */
constexpr int captureRepeats = 5;
/** Steps per block in the traced run's untraced/traced alternation. */
constexpr int blockSteps = 10;
/**
 * Cap on traced measured steps: a Mix step records ~700 events
 * (~350 island solves, ~270 narrowphase chunks, phase spans,
 * counters), ~260 of them on lane 0, and a lane drops events past
 * TraceCollector::maxEventsPerLane.
 */
constexpr int maxTracedSteps = 1000;

struct Scene
{
    BenchmarkId id;
    const char *name;
    /** Steps before measuring: the transient the scene starts with
     *  (shells hitting walls in Mix, cloths draping in Deformable)
     *  is over by then. The seed adds 0..15 steps, so seeds measure
     *  slightly different windows of the same trajectory. */
    int warmupSteps;
};

Scene
sceneFor(const Options &options)
{
    const int jitter = static_cast<int>(options.seed % 16);
    if (options.workload == "mix")
        return Scene{BenchmarkId::Mix, "mix", 100 + jitter};
    return Scene{BenchmarkId::Deformable, "deformable", 100 + jitter};
}

/** Library defaults (Scalar kernels; tracing, governor, invariant
 *  checking and overlapPhases off) with the two pinned settings. */
std::unique_ptr<World>
buildScene(const Scene &scene, unsigned workers, bool tracing)
{
    WorldConfig config;
    config.workerThreads = workers;
    // Non-deterministic scheduling lets chunk order change the
    // contact order, so each run would simulate different work.
    config.deterministic = true;
    config.tracing = tracing;
    return buildBenchmark(scene.id, config, 1.0);
}

void
checkBackend(const World &world, Report &report)
{
    if (world.kernelBackend().kind() != SimdBackend::Scalar)
        report.fail(std::string("kernel backend is ") +
                    world.kernelBackend().name() + ", not scalar");
}

/** Step `steps` times; a non-finite state is a failed step. */
void
stepChecked(World &world, int steps, Report &report)
{
    for (int i = 0; i < steps; ++i) {
        world.step();
        if (!worldStateFinite(world)) {
            report.fail("non-finite state after step " +
                        std::to_string(world.stepCount()));
            return;
        }
    }
}

/** One timed step: wall ms; counts it attempted (and failed when the
 *  state turns non-finite, checked outside the timer). */
double
timedStep(World &world, Report &report)
{
    const Clock::time_point t0 = Clock::now();
    world.step();
    const double ms = secondsBetween(t0, Clock::now()) * 1e3;
    ++report.attempted;
    if (!worldStateFinite(world))
        ++report.failed;
    return ms;
}

void
checkInvariants(const World &world, const char *which, Report &report)
{
    const std::vector<InvariantViolation> violations =
        world.validateInvariants();
    if (!violations.empty()) {
        report.fail(std::string(which) + " final state violates " +
                    std::to_string(violations.size()) +
                    " invariants, first: " + violations.front().code +
                    " " + violations.front().message);
    }
}

/** The warmed-up state must equal a fresh single-threaded replay of
 *  the same prefix: deterministic mode's contract, so every run
 *  simulates exactly the work the seed names. */
void
checkReplay(const Scene &scene, std::uint64_t warmHash, Report &report)
{
    std::unique_ptr<World> solo = buildScene(scene, 0, false);
    stepChecked(*solo, scene.warmupSteps, report);
    if (worldStateHash(*solo) != warmHash)
        report.fail("state hash after warm-up differs from the "
                    "0-worker replay");
}

void
runUntraced(const Options &options, const Scene &scene, Report &report)
{
    EndToEnd e2e;
    std::unique_ptr<World> world = buildScene(scene, workerThreads, false);
    checkBackend(*world, report);
    stepChecked(*world, scene.warmupSteps, report);
    const std::uint64_t warm_hash = worldStateHash(*world);

    SetupSampler setup(options, report);
    double busy_seconds = 0.0;
    const Clock::time_point begin = Clock::now();
    for (double elapsed = 0.0; elapsed < options.seconds;
         elapsed = secondsBetween(begin, Clock::now())) {
        if (setup.sampleIfDue(elapsed)) {
            timedStep(*world, report); // re-warm, untimed
            continue;
        }
        const double ms = timedStep(*world, report);
        e2e.stepMs.push_back(ms);
        busy_seconds += ms * 1e-3;
    }
    e2e.peakRssMb = peakRssMb();
    e2e.setupSeconds = setup.seconds();
    // The closed loop's call is World::step itself.
    e2e.updateMs = e2e.stepMs;
    e2e.worldTicksPerSecond =
        static_cast<double>(e2e.stepMs.size()) / busy_seconds;

    checkInvariants(*world, scene.name, report);
    checkReplay(scene, warm_hash, report);
    reportEndToEnd(e2e, report);
}

// --- Traced run --------------------------------------------------------

/** What the traced run keeps of one measured step. */
struct StepRecord
{
    double wallMs = 0;
    std::array<double, phaseCount> phaseMs{};
    double pairs = 0, pairsTested = 0, contacts = 0, islands = 0,
           contactJoints = 0, largestRows = 0, rowIterations = 0,
           relaxations = 0, chunks = 0, steals = 0, arenaGrowths = 0,
           allocs = 0;
};

StepRecord
recordStep(const StepStats &s, double wall_ms, std::uint64_t allocs)
{
    StepRecord r;
    r.wallMs = wall_ms;
    for (int p = 0; p < phaseCount; ++p)
        r.phaseMs[p] = s.phaseSeconds[p] * 1e3;
    r.pairs = static_cast<double>(s.pairsFound);
    r.pairsTested = static_cast<double>(s.narrowphase.pairsTested);
    r.contacts = static_cast<double>(s.contactsCreated);
    r.islands = static_cast<double>(s.islands.size());
    r.contactJoints = static_cast<double>(s.contactJointsCreated);
    r.largestRows = static_cast<double>(s.island.largestIslandRows);
    r.rowIterations = static_cast<double>(s.solver.rowIterations);
    r.relaxations = static_cast<double>(s.cloth.constraintRelaxations);
    r.chunks = static_cast<double>(s.parTasksExecuted);
    r.steals = static_cast<double>(s.parTasksStolen);
    r.arenaGrowths = static_cast<double>(s.arenaGrowths);
    r.allocs = static_cast<double>(allocs);
    return r;
}

/** The stealable units, one per parallel phase. */
enum Unit
{
    NarrowphaseChunk,
    IslandSolve,
    ClothStep,
    unitCount
};

constexpr const char *unitNames[unitCount] = {"narrowphase_chunk",
                                              "island_solve",
                                              "cloth_step"};
constexpr int unitPhase[unitCount] = {npPhase, ipPhase, clothPhase};
constexpr unsigned maxLanes = 64;

/** Span totals of one unit kind within one step. */
struct UnitStep
{
    double sumUs = 0, maxUs = 0;
    int count = 0;
    std::array<double, maxLanes> laneUs{};
};

using StepUnits = std::array<UnitStep, unitCount>;

/** Fold the traced spans of steps [firstStep, firstStep + n) into
 *  per-step unit totals. Phase and step spans are not needed: the
 *  phase timers bracket the same intervals. */
std::vector<StepUnits>
reduceSpans(const std::vector<TraceEvent> &events,
            std::uint64_t firstStep, std::size_t n)
{
    std::vector<StepUnits> steps(n);
    for (const TraceEvent &e : events) {
        if (e.type != TraceEvent::Type::Span || e.step < firstStep ||
            e.step >= firstStep + n || e.lane >= maxLanes)
            continue;
        for (int u = 0; u < unitCount; ++u) {
            if (std::strcmp(e.name, unitNames[u]) != 0)
                continue;
            UnitStep &us = steps[e.step - firstStep][u];
            us.sumUs += e.dur;
            us.maxUs = std::max(us.maxUs, e.dur);
            ++us.count;
            us.laneUs[e.lane] += e.dur;
            break;
        }
    }
    return steps;
}

template <typename Fn>
std::vector<double>
column(std::size_t n, Fn &&fn)
{
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = fn(i);
    return out;
}

/**
 * Print the layer table: per-step means, so the rows add up to the
 * step wall clock exactly, with the time no phase timer covers as
 * its own row. Then per-lane busy and idle time over the parallel
 * phases.
 */
void
printLayerTable(const Scene &scene, const std::vector<StepRecord> &recs,
                const std::vector<StepUnits> &units, unsigned lanes)
{
    const double n = static_cast<double>(recs.size());
    auto mean = [&](auto &&fn) {
        double total = 0;
        for (std::size_t i = 0; i < recs.size(); ++i)
            total += fn(i);
        return total / n;
    };
    const double wall = mean([&](std::size_t i) { return recs[i].wallMs; });
    std::printf("layer table: %s, %zu traced steps, %u lanes, mean per "
                "step\n",
                scene.name, recs.size(), lanes);
    std::printf("  %-22s %10s %7s   %s\n", "row", "ms", "share",
                "stealable unit / kernel");
    std::printf("  %-22s %10.4f %6.1f%%\n", "step wall clock", wall,
                100.0);

    struct KernelWork
    {
        const char *what;
        double StepRecord::*count;
    };
    const KernelWork work[unitCount] = {
        {"pair", &StepRecord::pairsTested},
        {"row-iter", &StepRecord::rowIterations},
        {"relaxation", &StepRecord::relaxations}};

    double rows = 0;
    for (int p = 0; p < phaseCount; ++p) {
        const double ms =
            mean([&](std::size_t i) { return recs[i].phaseMs[p]; });
        rows += ms;
        std::printf("  %-22s %10.4f %6.1f%%", pipelinePhaseName(
                        static_cast<PipelinePhase>(p)),
                    ms, 100.0 * ratio(ms, wall));
        for (int u = 0; u < unitCount; ++u) {
            if (unitPhase[u] != p)
                continue;
            const double count = mean(
                [&](std::size_t i) { return double(units[i][u].count); });
            const double unit_ms = mean(
                [&](std::size_t i) { return units[i][u].sumUs * 1e-3; });
            const double work_n = mean(
                [&](std::size_t i) { return recs[i].*work[u].count; });
            std::printf("   %.1f %s = %.4f ms lane-time, %.0f %ss, "
                        "%.1f ns/%s",
                        count, unitNames[u], unit_ms, work_n,
                        work[u].what, ratio(unit_ms * 1e6, work_n),
                        work[u].what);
        }
        std::printf("\n");
    }
    const double unattributed = wall - rows;
    std::printf("  %-22s %10.4f %6.1f%%\n", "unattributed", unattributed,
                100.0 * ratio(unattributed, wall));
    std::printf("  %-22s %10.4f %6.1f%%\n", "sum of rows",
                rows + unattributed,
                100.0 * ratio(rows + unattributed, wall));

    std::printf("  lanes over the parallel phases (narrowphase, "
                "island_processing, cloth):\n");
    const double parallel_ms = mean([&](std::size_t i) {
        return recs[i].phaseMs[npPhase] + recs[i].phaseMs[ipPhase] +
               recs[i].phaseMs[clothPhase];
    });
    for (unsigned lane = 0; lane < lanes && lane < maxLanes; ++lane) {
        const double busy = mean([&](std::size_t i) {
            double us = 0;
            for (int u = 0; u < unitCount; ++u)
                us += units[i][u].laneUs[lane];
            return us * 1e-3;
        });
        std::printf("    lane %u: busy %.4f ms, idle %.4f ms, busy "
                    "share %.3f\n",
                    lane, busy, parallel_ms - busy,
                    ratio(busy, parallel_ms));
    }
}

/** Median of one StepRecord field over the traced steps. */
double
medianOf(const std::vector<StepRecord> &recs, double StepRecord::*field)
{
    return median(column(recs.size(),
                         [&](std::size_t i) { return recs[i].*field; }));
}

LayerMetrics
layerMetrics(const std::vector<StepRecord> &recs,
             const std::vector<StepUnits> &units, unsigned lanes)
{
    const std::size_t n = recs.size();
    LayerMetrics l;
    auto phase_median = [&](int p) {
        return median(
            column(n, [&](std::size_t i) { return recs[i].phaseMs[p]; }));
    };
    l.worldUnattributedMs = median(column(n, [&](std::size_t i) {
        double phases = 0;
        for (double ms : recs[i].phaseMs)
            phases += ms;
        return recs[i].wallMs - phases;
    }));
    l.worldSerialShare = median(column(n, [&](std::size_t i) {
        return ratio(recs[i].phaseMs[bpPhase] + recs[i].phaseMs[icPhase],
                     recs[i].wallMs);
    }));
    double allocs = 0;
    for (const StepRecord &r : recs)
        allocs += r.allocs;
    l.worldHeapAllocsPerStep = ratio(allocs, static_cast<double>(n));

    l.broadphaseMs = phase_median(bpPhase);
    l.broadphasePairs = medianOf(recs, &StepRecord::pairs);

    // ns per unit of kernel work: unit span time over the matching
    // work count, summed over the window. A narrowphase too small to
    // split runs inline without chunk spans; its phase timer is the
    // span then.
    double np_us = 0, solve_us = 0, cloth_us = 0, pairs = 0, row_iters = 0,
           relaxations = 0;
    for (std::size_t i = 0; i < n; ++i) {
        np_us += units[i][NarrowphaseChunk].count > 0
                     ? units[i][NarrowphaseChunk].sumUs
                     : recs[i].phaseMs[npPhase] * 1e3;
        solve_us += units[i][IslandSolve].sumUs;
        cloth_us += units[i][ClothStep].sumUs;
        pairs += recs[i].pairsTested;
        row_iters += recs[i].rowIterations;
        relaxations += recs[i].relaxations;
    }
    l.narrowphaseMs = phase_median(npPhase);
    l.narrowphasePairsTested = medianOf(recs, &StepRecord::pairsTested);
    l.narrowphaseContacts = medianOf(recs, &StepRecord::contacts);
    l.narrowphaseNsPerPair = ratio(np_us * 1e3, pairs);

    l.islandMs = phase_median(icPhase);
    l.islandIslands = medianOf(recs, &StepRecord::islands);
    l.islandContactJoints = medianOf(recs, &StepRecord::contactJoints);
    l.islandLargestRows = medianOf(recs, &StepRecord::largestRows);

    l.solverMs = phase_median(ipPhase);
    l.solverRowIterations = medianOf(recs, &StepRecord::rowIterations);
    l.solverNsPerRowIter = ratio(solve_us * 1e3, row_iters);
    l.solverLargestIslandUs = median(column(
        n, [&](std::size_t i) { return units[i][IslandSolve].maxUs; }));

    l.clothMs = phase_median(clothPhase);
    l.clothRelaxations = medianOf(recs, &StepRecord::relaxations);
    l.clothNsPerRelaxation = ratio(cloth_us * 1e3, relaxations);
    l.clothLargestClothUs = median(column(
        n, [&](std::size_t i) { return units[i][ClothStep].maxUs; }));

    l.parallelChunks = medianOf(recs, &StepRecord::chunks);
    l.parallelSteals = medianOf(recs, &StepRecord::steals);
    for (int u = 0; u < unitCount; ++u) {
        double busy_ms = 0, capacity_ms = 0;
        for (std::size_t i = 0; i < n; ++i) {
            busy_ms += units[i][u].sumUs * 1e-3;
            capacity_ms += recs[i].phaseMs[unitPhase[u]] * lanes;
        }
        l.parallelBusyShare[u] = ratio(busy_ms, capacity_ms);
        l.parallelIdleMs[u] = median(column(n, [&](std::size_t i) {
            return std::max(0.0, recs[i].phaseMs[unitPhase[u]] * lanes -
                                     units[i][u].sumUs * 1e-3);
        }));
    }
    for (const StepRecord &r : recs)
        l.parallelArenaGrowths += r.arenaGrowths;
    return l;
}

void
runTraced(const Options &options, const Scene &scene, Report &report)
{
    std::unique_ptr<World> plain = buildScene(scene, workerThreads, false);
    std::unique_ptr<World> traced = buildScene(scene, workerThreads, true);
    checkBackend(*plain, report);
    checkBackend(*traced, report);
    stepChecked(*plain, scene.warmupSteps, report);
    stepChecked(*traced, scene.warmupSteps, report);
    const std::uint64_t warm_hash = worldStateHash(*plain);
    const std::uint64_t first_step = traced->stepCount();

    // Both copies walk the same trajectory block by block, so the two
    // step-time samples cover the same simulated work.
    std::vector<double> plain_ms;
    std::vector<StepRecord> recs;
    const Clock::time_point begin = Clock::now();
    while (secondsBetween(begin, Clock::now()) < options.seconds &&
           recs.size() < static_cast<std::size_t>(maxTracedSteps)) {
        for (int b = 0; b < blockSteps; ++b)
            plain_ms.push_back(timedStep(*plain, report));
        for (int b = 0; b < blockSteps; ++b) {
            const std::uint64_t allocs_before = allocCount();
            setAllocCounting(true);
            const double ms = timedStep(*traced, report);
            setAllocCounting(false);
            recs.push_back(recordStep(traced->lastStepStats(), ms,
                                      allocCount() - allocs_before));
        }
    }

    const TraceCollector &trace = traced->trace();
    const unsigned lanes = traced->scheduler().laneCount();
    const std::vector<StepUnits> units =
        reduceSpans(trace.events(), first_step, recs.size());
    printLayerTable(scene, recs, units, lanes);

    LayerMetrics l = layerMetrics(recs, units, lanes);
    const double traced_p50 = medianOf(recs, &StepRecord::wallMs);
    const double plain_p50 = median(plain_ms);
    l.traceOverheadPct = 100.0 * (traced_p50 / plain_p50 - 1.0);
    l.traceEventsDropped = static_cast<double>(trace.droppedEvents());
    std::printf("trace overhead: traced step p50 %.4f ms vs untraced "
                "%.4f ms over %zu + %zu interleaved steps\n",
                traced_p50, plain_p50, recs.size(), plain_ms.size());

    // State capture, the server's write path, on this scene.
    std::vector<double> capture_us;
    std::size_t capture_bytes = 0;
    for (int i = 0; i < captureRepeats; ++i) {
        const Clock::time_point t0 = Clock::now();
        capture_bytes = plain->captureState().size();
        capture_us.push_back(secondsBetween(t0, Clock::now()) * 1e6);
    }
    l.captureUsPerWorld = median(capture_us);
    l.captureBytesPerWorld = static_cast<double>(capture_bytes);

    if (trace.droppedEvents() > 0)
        report.fail(std::to_string(trace.droppedEvents()) +
                    " trace events dropped");
    if (worldStateHash(*plain) != worldStateHash(*traced))
        report.fail("traced and untraced copies diverged");
    checkInvariants(*plain, scene.name, report);
    checkInvariants(*traced, scene.name, report);
    checkReplay(scene, warm_hash, report);
    reportLayers(l, report);
}

} // namespace

double
timeWorldSetup(const Options &options, Report &report)
{
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<World> world =
        buildScene(sceneFor(options), workerThreads, false);
    const double seconds = secondsBetween(t0, Clock::now());
    checkBackend(*world, report);
    return seconds;
}

void
runWorldWorkload(const Options &options, Report &report)
{
    const Scene scene = sceneFor(options);
    if (options.trace)
        runTraced(options, scene, report);
    else
        runUntraced(options, scene, report);
}

} // namespace perfbench
