/**
 * @file
 * Shared driver for the experiment harnesses.
 *
 * Each bench binary regenerates one table or figure of the paper's
 * evaluation. The driver runs a benchmark at full Table 4 scale
 * through the paper's measurement protocol — warm up, then measure
 * frames 5-7 and keep the worst frame — collecting both operation
 * profiles and per-step memory traces; results are cached per
 * (benchmark, threads) within a process.
 */

#ifndef PARALLAX_BENCH_HARNESS_HH
#define PARALLAX_BENCH_HARNESS_HH

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cpu/cg_timing.hh"
#include "mem/hierarchy.hh"
#include "parallax.hh"

namespace parallax
{
namespace bench
{

/** One measured benchmark run with traces. */
struct MeasuredRun
{
    BenchmarkId id;
    SceneSpec spec;
    std::vector<StepProfile> steps;  // Measured steps in order.
    std::vector<StepTrace> traces;   // One trace per measured step.
    int stepsPerFrame = 3;

    /** Aggregate profile of the worst frame. */
    StepProfile worstFrameProfile() const;

    /** Index of the first step of the worst frame. */
    int worstFrameStart() const;
};

/** Measurement protocol parameters. */
struct MeasureOptions
{
    int warmupSteps = 12; // Frames 1-4.
    int frames = 3;       // Frames 5-7.
    int stepsPerFrame = 3;
    unsigned threads = 1; // Trace-generation thread model.
    double scale = 1.0;

    /** Host-side work-stealing workers driving the simulation
     *  itself (independent of the modeled `threads` above). */
    unsigned hostWorkers = 0;

    /** WorldConfig carrying the host scheduler knobs. */
    WorldConfig worldConfig() const;
};

/**
 * Strip harness-wide flags from argv (in place, adjusting *argc)
 * before a bench parses its own arguments. Currently:
 *   --check-invariants   run every measured simulation under the
 *                        world-invariant checker (fatal on violation)
 *   --frame-budget=SEC   run every measured simulation under the
 *                        real-time step governor with a SEC-second
 *                        display-frame budget (0 disables; see
 *                        WorldConfig::frameBudget)
 *   --trace=FILE         record per-phase spans in every measured
 *                        simulation and write Chrome trace JSON to
 *                        FILE, decorated per scene/worker count
 *                        (open in chrome://tracing or Perfetto)
 *   --metrics-json       print one World::metricsLine() per measured
 *                        simulation to stdout (key "pax_metrics")
 *   --bench-out=FILE     override the BENCH_*.json output path of
 *                        benches that stage trend-tracking results
 *   --jobs=N             run independent sweep points of the bench
 *                        on N host threads (runSweep below); 1 (the
 *                        default) = serial. Table/figure output is
 *                        byte-identical either way; only the
 *                        interleaving of --trace/--metrics-json side
 *                        channels emitted *during* measurement may
 *                        change order (docs/SIMULATOR.md)
 *   --scale=F            multiply every measured scene's scale by F
 *                        (tools/check_figs.py smoke-runs figures at
 *                        F << 1; figures for the paper use F = 1)
 *   --simd=BACKEND       kernel backend for every measured world:
 *                        "scalar" (bitwise reference, the default)
 *                        or "native" (SIMD kernels; prints a notice
 *                        and degrades to scalar on hosts without
 *                        AVX2/NEON). The PAX_SIMD environment
 *                        variable sets the default; the flag wins
 */
void parseCommonFlags(int *argc, char **argv);

/** Whether --check-invariants was passed (or set programmatically). */
bool invariantChecksEnabled();
void setInvariantChecks(bool enabled);

/** Frame budget from --frame-budget (or set programmatically);
 *  0 = governor disabled. */
double hostFrameBudget();
void setHostFrameBudget(double seconds);

/** Trace path from --trace (or set programmatically); empty =
 *  tracing disabled. */
const std::string &hostTracePath();
void setHostTracePath(const std::string &path);

/** Whether --metrics-json was passed (or set programmatically). */
bool metricsJsonEnabled();
void setMetricsJson(bool enabled);

/** BENCH output override from --bench-out; empty = bench default. */
const std::string &benchOutPath();

/** Host threads for runSweep from --jobs; 0 or 1 = serial. */
unsigned jobs();
void setJobs(unsigned count);

/** Global scene-scale multiplier from --scale (default 1). */
double measureScale();
void setMeasureScale(double scale);

/** Kernel backend from --simd / PAX_SIMD (default Scalar). */
SimdBackend hostSimdBackend();
void setHostSimdBackend(SimdBackend backend);

/**
 * Run `count` independent sweep points, fn(0) .. fn(count-1).
 *
 * With jobs() <= 1 this is a plain serial loop. Otherwise the points
 * run as one TaskScheduler::parallelFor over min(jobs(), count)
 * lanes, one point per chunk, in no fixed order.
 * Callers must make fn(i) independent of fn(j): write results into
 * pre-sized slots and print them *after* runSweep returns, so the
 * figure output stays byte-identical to the serial order. The shared
 * measuredRun() cache is safe to hit from inside fn.
 */
void runSweep(std::size_t count,
              const std::function<void(std::size_t)> &fn);

/**
 * Emit the observability surface for a finished measured world: if
 * --trace is active, write its Chrome trace to the --trace path
 * decorated with `runTag` (e.g. trace.json -> trace_Mix_w2.json); if
 * --metrics-json is active, print its metrics line to stdout.
 */
void emitObservability(const World &world, const std::string &runTag);

/** Run (or fetch from cache) a measured benchmark. */
const MeasuredRun &measuredRun(BenchmarkId id,
                               const MeasureOptions &options =
                                   MeasureOptions());

/**
 * Replay a run's traces against a hierarchy: the first
 * `warmup_steps` steps warm the caches; remaining steps are
 * measured. Returns per-phase stats for the measured steps and the
 * number of measured steps via `measured_steps`.
 */
std::array<PhaseMemStats, numPhases>
replayRun(const MeasuredRun &run, MemoryHierarchy &hierarchy,
          int warmup_steps, int *measured_steps = nullptr);

/**
 * Full-frame phase times for a run under a given L2 plan and thread
 * count (combining the op profiles with a trace replay).
 */
FrameTime frameTime(const MeasuredRun &run, const L2Plan &plan,
                    unsigned threads,
                    const CgTimingModel &timing = CgTimingModel());

/** Print a standard header naming the experiment. */
void printHeader(const char *experiment, const char *paper_ref);

/** Short benchmark tag column. */
const char *tag(BenchmarkId id);

/**
 * printf-append to `out`. Sweep points run off the main thread under
 * --jobs, so benches format each table row into its own string
 * slot with this and print the slots in order afterwards — the bytes
 * on stdout never depend on the thread interleaving.
 */
void appendf(std::string &out, const char *fmt, ...)
#if defined(__GNUC__)
    __attribute__((format(printf, 2, 3)))
#endif
    ;

/**
 * Minimal JSON emitter for BENCH_*.json result staging: benches
 * append scalar fields, arrays, and nested objects, then write the
 * file. Enough structure for trend tracking, no dependency.
 */
class JsonWriter
{
  public:
    JsonWriter &field(const char *key, double value);
    JsonWriter &field(const char *key, const char *value);
    JsonWriter &field(const char *key, bool value);
    JsonWriter &beginObject(const char *key);
    JsonWriter &endObject();
    JsonWriter &beginArray(const char *key);
    JsonWriter &arrayValue(double value);
    JsonWriter &endArray();

    /** Serialize to text and write to `path` (returns success). */
    bool write(const char *path) const;

    std::string str() const;

  private:
    void comma();

    std::string out_ = "{";
    bool needComma_ = false;
};

/**
 * Per-phase wall-clock seconds of a stepped scene at one worker
 * count, summed over the measured steps (host time, not simulated
 * time — this is the engine's own parallel-speedup trajectory).
 */
struct HostPhaseSeconds
{
    unsigned workers = 0;
    std::array<double, numPipelinePhases> seconds{};
    double total = 0;
    std::uint64_t tasksStolen = 0;
    // Allocation trajectory over the measured window: a warm steady
    // state shows zero growths (solver workspaces, broadphase
    // storage).
    std::uint64_t workspaceGrowths = 0;
    std::uint64_t workspaceReuses = 0;
    std::uint64_t broadphaseStorageGrowths = 0;
};

/**
 * Step `id` at the given scale/worker count and measure per-phase
 * host seconds over `steps` steps (after `warmup` steps).
 */
HostPhaseSeconds measureHostPhases(BenchmarkId id, unsigned workers,
                                   double scale = 1.0,
                                   int warmup = 12, int steps = 9);

} // namespace bench
} // namespace parallax

#endif // PARALLAX_BENCH_HARNESS_HH
