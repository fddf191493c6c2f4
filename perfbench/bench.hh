/**
 * @file
 * Shared pieces of the repository benchmark: command-line options,
 * the result report every workload fills, sample statistics, the
 * seeded input generator, and the heap-allocation counter.
 *
 * The benchmark drives the engine only through the public
 * include/parallax/ surface and times every layer from outside,
 * around the calls it makes (README.md).
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "parallax/world.hh"

namespace perfbench
{

/** StepStats::phaseSeconds indices. */
constexpr int phaseCount = parallax::numPipelinePhases;
constexpr int bpPhase =
    static_cast<int>(parallax::PipelinePhase::Broadphase);
constexpr int npPhase =
    static_cast<int>(parallax::PipelinePhase::Narrowphase);
constexpr int icPhase =
    static_cast<int>(parallax::PipelinePhase::IslandCreation);
constexpr int ipPhase =
    static_cast<int>(parallax::PipelinePhase::IslandProcessing);
constexpr int clothPhase =
    static_cast<int>(parallax::PipelinePhase::Cloth);

/** Parsed command line (run.py forwards its own flags). */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /** false: end-to-end metrics, tracing off. true: the separate
     *  traced run that yields the per-layer metrics. */
    bool trace = false;
    /** > 0: only time this many setups and print them (the child
     *  process of SetupSampler). */
    int setupProbe = 0;
};

/**
 * Worker threads of every workload: 3 lanes on a 4-cpu host, which
 * leaves one core to the OS — a fork-join phase waits for its
 * slowest lane, so a lane preempted by the OS stalls the whole step.
 */
constexpr unsigned workerThreads = 2;

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** The result every workload fills: metrics plus failure counts. */
class Report
{
  public:
    /** Record one metric (printed in insertion order). */
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Record a failed output check; the run is then incorrect. */
    void fail(const std::string &why);

    bool correct() const { return problems_.empty(); }

    /** The final result line: {"correct", "attempted", "failed",
     *  "metrics"}. */
    std::string json() const;

    /** Operations attempted / failed in the measured window (steps
     *  for world workloads, world-ticks for the server). */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    std::vector<std::string> problems_;
};

/**
 * End-to-end samples of one untraced run. Every workload reports
 * every metric (BENCHMARK.json): "step" is one World::step and
 * "update" one call of the workload's closed loop — World::step
 * again for the world workloads, Server::advance for the server.
 */
struct EndToEnd
{
    std::vector<double> stepMs;
    std::vector<double> updateMs;
    double worldTicksPerSecond = 0.0;
    std::vector<double> setupSeconds;
    double peakRssMb = 0.0;
};

void reportEndToEnd(const EndToEnd &e2e, Report &report);

/**
 * Per-layer values of one traced run, named after the engine
 * modules. A layer the workload does not exercise reports 0 (the
 * server layer on a world workload, the intra-step parallel phases
 * on the server, whose worlds step single-threaded).
 */
struct LayerMetrics
{
    double worldUnattributedMs = 0, worldSerialShare = 0,
           worldHeapAllocsPerStep = 0;
    double broadphaseMs = 0, broadphasePairs = 0;
    double narrowphaseMs = 0, narrowphasePairsTested = 0,
           narrowphaseContacts = 0, narrowphaseNsPerPair = 0;
    double islandMs = 0, islandIslands = 0, islandContactJoints = 0,
           islandLargestRows = 0;
    double solverMs = 0, solverRowIterations = 0,
           solverNsPerRowIter = 0, solverLargestIslandUs = 0;
    double clothMs = 0, clothRelaxations = 0,
           clothNsPerRelaxation = 0, clothLargestClothUs = 0;
    double parallelChunks = 0, parallelSteals = 0;
    /** busy_share / idle_ms of narrowphase, island processing and
     *  cloth, in that order. */
    double parallelBusyShare[3] = {}, parallelIdleMs[3] = {};
    double parallelArenaGrowths = 0;
    double serverBurstMs = 0, serverSerialMs = 0, serverTickWorkMs = 0,
           serverBurstUtilization = 0, serverCheckpoints = 0,
           serverCheckpointBytes = 0;
    double captureUsPerWorld = 0, captureBytesPerWorld = 0;
    double traceOverheadPct = 0, traceEventsDropped = 0;
};

void reportLayers(const LayerMetrics &layers, Report &report);

/** Linear-interpolated q-quantile (q in [0, 1]); 0 when empty. */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** num / den, or 0 when there is nothing to divide by. */
inline double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Peak resident set size of this process so far, in MB. */
double peakRssMb();

/** splitmix64: a tiny seeded generator whose sequence does not
 *  depend on the standard library, so a seed names the same inputs
 *  everywhere. */
class SeededRng
{
  public:
    explicit SeededRng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();
    /** Uniform integer in [lo, hi]. */
    int range(int lo, int hi);
    /** Uniform real in [lo, hi). */
    double uniform(double lo, double hi);

  private:
    std::uint64_t state_;
};

/** Global operator new replacement (alloc_count.cc): counts heap
 *  allocations from every thread while counting is switched on. */
void setAllocCounting(bool on);
std::uint64_t allocCount();

/** Workload entry points. */
void runWorldWorkload(const Options &options, Report &report);
void runServerWorkload(const Options &options, Report &report);

/** One timed setup, in seconds: the scene build (world workloads) or
 *  the server with all its sessions, up to the first step or advance
 *  call. */
double timeWorldSetup(const Options &options, Report &report);
double timeServerSetup(const Options &options, Report &report);

/** Setup probes per untraced run, and setups timed in each. */
constexpr int setupProbes = 10;
constexpr int setupsPerProbe = 3;

/**
 * The setup_s sampler. Host speed drifts over tens of seconds, so
 * setups timed back to back read one moment's speed; this sampler
 * times them at evenly spaced points of the measured window instead.
 * Each probe runs in a child process (this binary with
 * --setup-probe), so probe memory never counts in the run's peak RSS
 * and never lands in the measured process's heap.
 */
class SetupSampler
{
  public:
    SetupSampler(const Options &options, Report &report)
        : options_(options), report_(report)
    {
    }

    /** Run the next probe if its point in the window has come
     *  (`elapsed` seconds in). True when it did: the caller then
     *  makes one untimed call to re-warm its caches. */
    bool sampleIfDue(double elapsed);

    /** Median setup seconds of each probe taken. */
    const std::vector<double> &seconds() const { return seconds_; }

  private:
    const Options &options_;
    Report &report_;
    std::vector<double> seconds_;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
