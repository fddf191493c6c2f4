#include "harness.hh"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <tuple>

#include "parallax/config.hh"

namespace parallax
{
namespace bench
{

StepProfile
MeasuredRun::worstFrameProfile() const
{
    StepProfile best;
    double best_ops = -1.0;
    for (std::size_t f = 0; f + stepsPerFrame <= steps.size();
         f += stepsPerFrame) {
        StepProfile frame;
        for (int s = 0; s < stepsPerFrame; ++s)
            frame += steps[f + s];
        if (frame.totalOps() > best_ops) {
            best_ops = frame.totalOps();
            best = frame;
        }
    }
    return best;
}

int
MeasuredRun::worstFrameStart() const
{
    int best_start = 0;
    double best_ops = -1.0;
    for (std::size_t f = 0; f + stepsPerFrame <= steps.size();
         f += stepsPerFrame) {
        double ops = 0;
        for (int s = 0; s < stepsPerFrame; ++s)
            ops += steps[f + s].totalOps();
        if (ops > best_ops) {
            best_ops = ops;
            best_start = static_cast<int>(f);
        }
    }
    return best_start;
}

namespace
{

bool invariantChecks = false;
double frameBudget = 0.0;
std::string tracePath;
bool metricsJson = false;
std::string benchOut;
unsigned sweepJobs = 1;
double globalScale = 1.0;
SimdBackend hostSimd = simdBackendFromEnv(SimdBackend::Scalar);

} // namespace

void
parseCommonFlags(int *argc, char **argv)
{
    constexpr const char budgetFlag[] = "--frame-budget=";
    constexpr const char traceFlag[] = "--trace=";
    constexpr const char benchOutFlag[] = "--bench-out=";
    constexpr const char jobsFlag[] = "--jobs=";
    constexpr const char scaleFlag[] = "--scale=";
    constexpr const char simdFlag[] = "--simd=";
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
        if (std::strcmp(argv[i], "--check-invariants") == 0)
            invariantChecks = true;
        else if (std::strcmp(argv[i], "--metrics-json") == 0)
            metricsJson = true;
        else if (std::strncmp(argv[i], budgetFlag,
                              sizeof(budgetFlag) - 1) == 0)
            frameBudget =
                std::atof(argv[i] + sizeof(budgetFlag) - 1);
        else if (std::strncmp(argv[i], traceFlag,
                              sizeof(traceFlag) - 1) == 0)
            tracePath = argv[i] + sizeof(traceFlag) - 1;
        else if (std::strncmp(argv[i], benchOutFlag,
                              sizeof(benchOutFlag) - 1) == 0)
            benchOut = argv[i] + sizeof(benchOutFlag) - 1;
        else if (std::strncmp(argv[i], jobsFlag,
                              sizeof(jobsFlag) - 1) == 0)
            sweepJobs = static_cast<unsigned>(
                std::atoi(argv[i] + sizeof(jobsFlag) - 1));
        else if (std::strncmp(argv[i], scaleFlag,
                              sizeof(scaleFlag) - 1) == 0)
            globalScale =
                std::atof(argv[i] + sizeof(scaleFlag) - 1);
        else if (std::strncmp(argv[i], simdFlag,
                              sizeof(simdFlag) - 1) == 0) {
            const char *value = argv[i] + sizeof(simdFlag) - 1;
            if (!parseSimdBackend(value, hostSimd)) {
                std::fprintf(stderr,
                             "unrecognized --simd value '%s' "
                             "(expected scalar or native)\n",
                             value);
                std::exit(2);
            }
        } else
            argv[out++] = argv[i];
    }
    *argc = out;
    if (hostSimd == SimdBackend::Native && !nativeSimdAvailable()) {
        std::fprintf(stderr,
                     "notice: native SIMD kernels requested but "
                     "this build/host has no AVX2/NEON support; "
                     "running the scalar backend\n");
    }
}

bool
invariantChecksEnabled()
{
    return invariantChecks;
}

void
setInvariantChecks(bool enabled)
{
    invariantChecks = enabled;
}

double
hostFrameBudget()
{
    return frameBudget;
}

void
setHostFrameBudget(double seconds)
{
    frameBudget = seconds;
}

const std::string &
hostTracePath()
{
    return tracePath;
}

void
setHostTracePath(const std::string &path)
{
    tracePath = path;
}

bool
metricsJsonEnabled()
{
    return metricsJson;
}

void
setMetricsJson(bool enabled)
{
    metricsJson = enabled;
}

const std::string &
benchOutPath()
{
    return benchOut;
}

unsigned
jobs()
{
    return sweepJobs;
}

void
setJobs(unsigned count)
{
    sweepJobs = count;
}

double
measureScale()
{
    return globalScale;
}

void
setMeasureScale(double scale)
{
    globalScale = scale;
}

SimdBackend
hostSimdBackend()
{
    return hostSimd;
}

void
setHostSimdBackend(SimdBackend backend)
{
    hostSimd = backend;
}

void
runSweep(std::size_t count,
         const std::function<void(std::size_t)> &fn)
{
    const std::size_t lanes = std::min<std::size_t>(sweepJobs, count);
    if (lanes <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    // One chunk per sweep point, so idle lanes steal whole points.
    TaskScheduler scheduler(
        SchedulerConfig{static_cast<unsigned>(lanes - 1)});
    scheduler.parallelFor(
        count, [&fn](std::size_t begin, std::size_t end, unsigned) {
            for (std::size_t i = begin; i < end; ++i)
                fn(i);
        });
}

void
emitObservability(const World &world, const std::string &runTag)
{
    if (!tracePath.empty() && world.trace().enabled()) {
        const std::string path =
            decorateTracePath(tracePath, runTag);
        const std::string err = world.writeTrace(path);
        if (err.empty()) {
            std::fprintf(stderr, "trace written to %s\n",
                         path.c_str());
        } else {
            std::fprintf(stderr, "trace write failed: %s\n",
                         err.c_str());
        }
    }
    if (metricsJson)
        std::printf("%s\n", world.metricsLine().c_str());
}

WorldConfig
MeasureOptions::worldConfig() const
{
    WorldConfig config;
    config.workerThreads = hostWorkers;
    if (invariantChecksEnabled())
        config.invariantMode = InvariantMode::HardFail;
    // --frame-budget: measure under real-time degradation. The
    // governor keys off frames of `stepsPerFrame` substeps.
    config.frameBudget = hostFrameBudget();
    config.governor.frameSubsteps = stepsPerFrame;
    // --trace: record per-phase spans for Chrome-trace export.
    config.tracing = !hostTracePath().empty();
    // --simd / PAX_SIMD: kernel backend for the measured world.
    config.simdBackend = hostSimd;
    return config;
}

namespace
{

std::unique_ptr<MeasuredRun>
computeMeasuredRun(BenchmarkId id, const MeasureOptions &options)
{
    auto run = std::make_unique<MeasuredRun>();
    run->id = id;
    run->stepsPerFrame = options.stepsPerFrame;

    auto world = buildBenchmark(id, options.worldConfig(),
                                options.scale * globalScale);
    run->spec = staticSceneSpec(*world);

    for (int i = 0; i < options.warmupSteps; ++i)
        world->step();

    TraceOptions trace_options;
    trace_options.threads = options.threads;
    trace_options.kernelBytesPerThread =
        kernelFootprintForThreads(options.threads);
    TraceGenerator generator(trace_options);

    double pair_total = 0;
    double island_total = 0;
    const int total_steps = options.frames * options.stepsPerFrame;
    for (int s = 0; s < total_steps; ++s) {
        world->step();
        run->steps.push_back(Instrumentation::profileStep(*world));
        run->traces.push_back(generator.generate(*world));
        pair_total += world->lastStepStats().broadphase.pairsFound;
        island_total += world->lastStepStats().islands.size();
    }
    run->spec.objPairs =
        static_cast<std::uint64_t>(pair_total / total_steps);
    run->spec.islands =
        static_cast<std::uint64_t>(island_total / total_steps);

    emitObservability(*world,
                      std::string(tag(id)) + "_w" +
                          std::to_string(options.hostWorkers));
    return run;
}

} // namespace

const MeasuredRun &
measuredRun(BenchmarkId id, const MeasureOptions &options)
{
    // Sweep points dispatched by runSweep() hit this cache from
    // several host threads at once: the map is guarded by a mutex,
    // and each entry is computed exactly once (call_once parks any
    // concurrent requester for the same key until the run is ready)
    // so a scene is never measured twice.
    using Key = std::tuple<int, unsigned, unsigned>;
    struct Entry
    {
        std::once_flag once;
        std::unique_ptr<MeasuredRun> run;
    };
    static std::mutex cacheMutex;
    static std::map<Key, Entry> cache;
    const Key key{static_cast<int>(id), options.threads,
                  options.hostWorkers};
    Entry *entry;
    {
        std::lock_guard<std::mutex> lock(cacheMutex);
        entry = &cache[key];
    }
    std::call_once(entry->once, [&] {
        entry->run = computeMeasuredRun(id, options);
    });
    return *entry->run;
}

std::array<PhaseMemStats, numPhases>
replayRun(const MeasuredRun &run, MemoryHierarchy &hierarchy,
          int warmup_steps, int *measured_steps)
{
    int measured = 0;
    for (std::size_t s = 0; s < run.traces.size(); ++s) {
        if (static_cast<int>(s) == warmup_steps)
            hierarchy.resetStats();
        hierarchy.replayStep(run.traces[s]);
        if (static_cast<int>(s) >= warmup_steps)
            ++measured;
    }
    if (measured_steps != nullptr)
        *measured_steps = measured;
    std::array<PhaseMemStats, numPhases> stats{};
    for (int p = 0; p < numPhases; ++p)
        stats[p] = hierarchy.phaseStats(static_cast<Phase>(p));
    return stats;
}

namespace
{

PhaseMemStats
scaleStats(const PhaseMemStats &stats, double factor)
{
    PhaseMemStats scaled;
    auto mul = [factor](std::uint64_t v) {
        return static_cast<std::uint64_t>(
            std::llround(static_cast<double>(v) * factor));
    };
    scaled.refs = mul(stats.refs);
    scaled.l1Hits = mul(stats.l1Hits);
    scaled.l2Hits = mul(stats.l2Hits);
    scaled.l2Misses = mul(stats.l2Misses);
    scaled.kernelL2Misses = mul(stats.kernelL2Misses);
    scaled.userL2Misses = mul(stats.userL2Misses);
    scaled.invalidations = mul(stats.invalidations);
    scaled.cycles = mul(stats.cycles);
    return scaled;
}

} // namespace

FrameTime
frameTime(const MeasuredRun &run, const L2Plan &plan,
          unsigned threads, const CgTimingModel &timing)
{
    HierarchyConfig config;
    config.plan = plan;
    config.threads = threads;
    MemoryHierarchy hierarchy(config);

    int measured = 0;
    const auto mem =
        replayRun(run, hierarchy, run.stepsPerFrame, &measured);
    const double per_frame_factor =
        measured > 0
            ? static_cast<double>(run.stepsPerFrame) / measured
            : 1.0;

    // Sum per-step phase times across the worst frame: the phase
    // barrier is per step, so load balance (largest island / cloth)
    // binds within each step, not across the frame.
    const int start = run.worstFrameStart();
    FrameTime result;
    for (int s = 0; s < run.stepsPerFrame; ++s) {
        const StepProfile &step = run.steps[start + s];
        for (int p = 0; p < numPhases; ++p) {
            const Phase phase = static_cast<Phase>(p);
            const PhaseMemStats phase_mem = scaleStats(
                mem[p], per_frame_factor / run.stepsPerFrame);

            std::vector<double> weights;
            std::int64_t dispatches = -1;
            if (phase == Phase::Narrowphase) {
                // Pairs are pre-partitioned into one chunk per
                // worker: near-perfect balance, one dispatch per
                // chunk.
                weights.assign(
                    static_cast<std::size_t>(
                        std::max<std::uint64_t>(1, step.pairTasks)),
                    1.0);
                dispatches = threads;
            } else if (phase == Phase::IslandProcessing) {
                weights.assign(step.islandRows.begin(),
                               step.islandRows.end());
            } else if (phase == Phase::Cloth) {
                weights.assign(step.clothVertices.begin(),
                               step.clothVertices.end());
            }
            const PhaseTime t = timing.parallelPhaseTime(
                phase, step.ops(phase), phase_mem, threads, weights,
                dispatches);
            result[phase].computeSeconds += t.computeSeconds;
            result[phase].stallSeconds += t.stallSeconds;
        }
    }
    return result;
}

void
printHeader(const char *experiment, const char *paper_ref)
{
    std::printf("=== %s ===\n", experiment);
    std::printf("(reproduces %s; ParallAX reproduction)\n\n",
                paper_ref);
}

const char *
tag(BenchmarkId id)
{
    return benchmarkInfo(id).shortName;
}

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[1024];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    out += buf;
}

// --- JsonWriter --------------------------------------------------------

void
JsonWriter::comma()
{
    if (needComma_)
        out_ += ",";
    needComma_ = true;
}

JsonWriter &
JsonWriter::field(const char *key, double value)
{
    comma();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    out_ += std::string("\"") + key + "\":" + buf;
    return *this;
}

JsonWriter &
JsonWriter::field(const char *key, const char *value)
{
    comma();
    out_ += std::string("\"") + key + "\":\"" + value + "\"";
    return *this;
}

JsonWriter &
JsonWriter::field(const char *key, bool value)
{
    comma();
    out_ += std::string("\"") + key +
            (value ? "\":true" : "\":false");
    return *this;
}

JsonWriter &
JsonWriter::beginObject(const char *key)
{
    comma();
    out_ += std::string("\"") + key + "\":{";
    needComma_ = false;
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    out_ += "}";
    needComma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::beginArray(const char *key)
{
    comma();
    out_ += std::string("\"") + key + "\":[";
    needComma_ = false;
    return *this;
}

JsonWriter &
JsonWriter::arrayValue(double value)
{
    comma();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    out_ += buf;
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    out_ += "]";
    needComma_ = true;
    return *this;
}

std::string
JsonWriter::str() const
{
    return out_ + "}";
}

bool
JsonWriter::write(const char *path) const
{
    std::FILE *f = std::fopen(path, "w");
    if (f == nullptr)
        return false;
    const std::string text = str();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    return true;
}

// --- Host parallel-speedup measurement ---------------------------------

HostPhaseSeconds
measureHostPhases(BenchmarkId id, unsigned workers, double scale,
                  int warmup, int steps)
{
    WorldConfig config;
    config.workerThreads = workers;
    if (invariantChecksEnabled())
        config.invariantMode = InvariantMode::HardFail;
    config.tracing = !hostTracePath().empty();
    config.simdBackend = hostSimd;
    auto world = buildBenchmark(id, config, scale * globalScale);

    for (int i = 0; i < warmup; ++i)
        world->step();

    HostPhaseSeconds result;
    result.workers = workers;
    const std::uint64_t steals0 = world->scheduler().tasksStolen();
    for (int i = 0; i < steps; ++i) {
        world->step();
        const StepStats &stats = world->lastStepStats();
        for (int p = 0; p < numPipelinePhases; ++p)
            result.seconds[p] += stats.phaseSeconds[p];
        result.workspaceGrowths += stats.solver.workspaceGrowths;
        result.workspaceReuses += stats.solver.workspaceReuses;
        result.broadphaseStorageGrowths +=
            stats.broadphase.storageGrowths;
    }
    result.tasksStolen = world->scheduler().tasksStolen() - steals0;
    for (double s : result.seconds)
        result.total += s;

    emitObservability(*world,
                      std::string(tag(id)) + "_w" +
                          std::to_string(workers));
    return result;
}

} // namespace bench
} // namespace parallax
