/**
 * @file
 * Entry point of the repository benchmark: parses the command line,
 * pins the settings every workload shares, prints the host
 * fingerprint, runs one workload and prints the result line.
 *
 * Usage:
 *   pax_perfbench --workload {mix|deformable|server_1k} --seed N
 *                 --seconds S --trace {0|1} [--source-id ID]
 *   pax_perfbench ... --setup-probe N   (SetupSampler's child: time
 *                 N setups, print one "setup_probe <seconds>" each)
 *
 * Output: informational lines (fingerprint, sample counts and, in a
 * traced run, the layer table), then, as the last line, one JSON
 * object {"correct", "attempted", "failed", "metrics"}. The exit
 * code is 0 only when every output check passed.
 */

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hh"
#include "parallax.hh"

extern char **environ;

namespace perfbench
{

namespace
{

/** Run this binary with --setup-probe in a child process and return
 *  the setup seconds it prints; empty when the probe failed. */
std::vector<double>
runSetupProbe(const Options &options)
{
    const std::string seed = std::to_string(options.seed);
    const std::string count = std::to_string(setupsPerProbe);
    const char *const args[] = {
        "/proc/self/exe", "--workload", options.workload.c_str(),
        "--seed", seed.c_str(), "--seconds", "1", "--trace", "0",
        "--setup-probe", count.c_str(), nullptr};
    int fds[2];
    if (pipe(fds) != 0)
        return {};
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    pid_t pid = 0;
    const int spawned =
        posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                    const_cast<char *const *>(args), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    std::string out;
    char buf[512];
    while (spawned == 0) {
        const ssize_t n = read(fds[0], buf, sizeof(buf));
        if (n > 0)
            out.append(buf, static_cast<std::size_t>(n));
        else if (n == 0 || errno != EINTR)
            break;
    }
    close(fds[0]);
    if (spawned != 0)
        return {};
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return {};
    std::vector<double> seconds;
    std::istringstream lines(out);
    std::string tag;
    double value = 0;
    while (lines >> tag >> value)
        if (tag == "setup_probe")
            seconds.push_back(value);
    return seconds;
}

} // namespace

bool
SetupSampler::sampleIfDue(double elapsed)
{
    const auto taken = static_cast<double>(seconds_.size());
    if (seconds_.size() >= static_cast<std::size_t>(setupProbes) ||
        elapsed < (taken + 0.5) * options_.seconds / setupProbes)
        return false;
    const std::vector<double> probe = runSetupProbe(options_);
    if (probe.size() != static_cast<std::size_t>(setupsPerProbe)) {
        report_.fail("setup probe process failed");
        seconds_.push_back(0.0);
    } else {
        seconds_.push_back(median(probe));
    }
    return true;
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_.push_back(Metric{name, value, unit});
}

void
Report::fail(const std::string &why)
{
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
    problems_.push_back(why);
}

std::string
Report::json() const
{
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        // %.17g keeps every digit the measurement has; JSON has no
        // spelling for NaN/Inf, so a broken value prints as null.
        if (std::isfinite(m.value))
            std::snprintf(buf, sizeof(buf), "%.17g", m.value);
        else
            std::snprintf(buf, sizeof(buf), "null");
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

void
reportEndToEnd(const EndToEnd &e2e, Report &report)
{
    report.metric("step_ms_p50", quantile(e2e.stepMs, 0.50), "ms");
    report.metric("step_ms_p95", quantile(e2e.stepMs, 0.95), "ms");
    report.metric("update_ms_p50", quantile(e2e.updateMs, 0.50), "ms");
    report.metric("update_ms_p95", quantile(e2e.updateMs, 0.95), "ms");
    report.metric("world_ticks_per_s", e2e.worldTicksPerSecond, "1/s");
    report.metric("setup_s", median(e2e.setupSeconds), "s");
    report.metric("peak_rss_mb", e2e.peakRssMb, "MB");
    std::printf("samples: %zu steps, %zu updates, %zu setups\n",
                e2e.stepMs.size(), e2e.updateMs.size(),
                e2e.setupSeconds.size());
}

void
reportLayers(const LayerMetrics &l, Report &report)
{
    report.metric("world.unattributed_ms", l.worldUnattributedMs, "ms");
    report.metric("world.serial_share", l.worldSerialShare, "fraction");
    report.metric("world.heap_allocs_per_step", l.worldHeapAllocsPerStep,
                  "count");
    report.metric("broadphase.ms", l.broadphaseMs, "ms");
    report.metric("broadphase.pairs", l.broadphasePairs, "count");
    report.metric("narrowphase.ms", l.narrowphaseMs, "ms");
    report.metric("narrowphase.pairs_tested", l.narrowphasePairsTested,
                  "count");
    report.metric("narrowphase.contacts", l.narrowphaseContacts, "count");
    report.metric("narrowphase.ns_per_pair", l.narrowphaseNsPerPair, "ns");
    report.metric("island.ms", l.islandMs, "ms");
    report.metric("island.islands", l.islandIslands, "count");
    report.metric("island.contact_joints", l.islandContactJoints, "count");
    report.metric("island.largest_rows", l.islandLargestRows, "count");
    report.metric("solver.ms", l.solverMs, "ms");
    report.metric("solver.row_iterations", l.solverRowIterations, "count");
    report.metric("solver.ns_per_row_iter", l.solverNsPerRowIter, "ns");
    report.metric("solver.largest_island_us", l.solverLargestIslandUs,
                  "us");
    report.metric("cloth.ms", l.clothMs, "ms");
    report.metric("cloth.relaxations", l.clothRelaxations, "count");
    report.metric("cloth.ns_per_relaxation", l.clothNsPerRelaxation, "ns");
    report.metric("cloth.largest_cloth_us", l.clothLargestClothUs, "us");
    report.metric("parallel.chunks", l.parallelChunks, "count");
    report.metric("parallel.steals", l.parallelSteals, "count");
    static const char *const phases[3] = {"narrowphase", "island",
                                          "cloth"};
    for (int p = 0; p < 3; ++p) {
        const std::string prefix = std::string("parallel.") + phases[p];
        report.metric(prefix + ".busy_share", l.parallelBusyShare[p],
                      "fraction");
        report.metric(prefix + ".idle_ms", l.parallelIdleMs[p], "ms");
    }
    report.metric("parallel.arena_growths", l.parallelArenaGrowths,
                  "count");
    report.metric("server.burst_ms", l.serverBurstMs, "ms");
    report.metric("server.serial_ms", l.serverSerialMs, "ms");
    report.metric("server.tick_work_ms", l.serverTickWorkMs, "ms");
    report.metric("server.burst_utilization", l.serverBurstUtilization,
                  "fraction");
    report.metric("server.checkpoints", l.serverCheckpoints, "count");
    report.metric("server.checkpoint_bytes", l.serverCheckpointBytes,
                  "bytes");
    report.metric("capture.us_per_world", l.captureUsPerWorld, "us");
    report.metric("capture.bytes_per_world", l.captureBytesPerWorld,
                  "bytes");
    report.metric("trace.overhead_pct", l.traceOverheadPct, "%");
    report.metric("trace.events_dropped", l.traceEventsDropped, "count");
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

std::uint64_t
SeededRng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

int
SeededRng::range(int lo, int hi)
{
    const auto span = static_cast<std::uint64_t>(hi - lo + 1);
    return lo + static_cast<int>(next() % span);
}

double
SeededRng::uniform(double lo, double hi)
{
    const double unit =
        static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
    return lo + (hi - lo) * unit;
}

} // namespace perfbench

namespace
{

using namespace perfbench;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "pax_perfbench: %s\n"
                 "usage: pax_perfbench --workload "
                 "{mix|deformable|server_1k} --seed N --seconds S "
                 "--trace {0|1} [--source-id ID] [--setup-probe N]\n",
                 why);
    std::exit(2);
}

bool
parseOptions(int argc, char **argv, Options &options,
             std::string &sourceId)
{
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value, &end, 10);
            if (end == value || *end != '\0')
                usage("--seed takes a non-negative integer");
        } else if (flag == "--seconds") {
            options.seconds = std::strtod(value, &end);
            if (end == value || *end != '\0' ||
                !std::isfinite(options.seconds) ||
                options.seconds <= 0.0 || options.seconds > 600.0)
                usage("--seconds takes a number in (0, 600]");
        } else if (flag == "--trace") {
            if (std::strcmp(value, "0") != 0 &&
                std::strcmp(value, "1") != 0)
                usage("--trace takes 0 or 1");
            options.trace = value[0] == '1';
        } else if (flag == "--source-id") {
            sourceId = value;
        } else if (flag == "--setup-probe") {
            options.setupProbe = std::atoi(value);
            if (options.setupProbe < 1 || options.setupProbe > 100)
                usage("--setup-probe takes a count in [1, 100]");
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return options.workload == "mix" ||
           options.workload == "deformable" ||
           options.workload == "server_1k";
}

unsigned
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::thread::hardware_concurrency();
}

/** One line that identifies host and build, so results from
 *  different machines or builds are never compared silently. */
void
printFingerprint(const Options &options, const std::string &sourceId)
{
    const parallax::KernelBackend &backend = parallax::kernelBackendFor(
        parallax::simdBackendFromEnv(parallax::WorldConfig().simdBackend));
    std::printf("fingerprint {\"cpus\": %u, \"hardware_threads\": %u, "
                "\"kernel_backend\": \"%s\", \"native_simd\": %s, "
                "\"workers\": %u, \"build_type\": \"%s\", "
                "\"compiler\": \"%s\", \"source\": \"%s\", "
                "\"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d}\n",
                usableCpus(), std::thread::hardware_concurrency(),
                backend.name(),
                parallax::nativeSimdAvailable() ? "true" : "false",
                workerThreads, PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
                sourceId.c_str(), options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0);
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    // Pin the kernel backend: every World resolves WorldConfig's
    // Scalar default through the PAX_SIMD override, so the variable
    // must be gone before the first World exists. No thread runs yet.
    unsetenv("PAX_SIMD");

    Options options;
    std::string source_id = "unknown";
    if (!parseOptions(argc, argv, options, source_id))
        usage(("unknown workload " + options.workload).c_str());
    const bool server = options.workload == "server_1k";

    Report report;
    if (options.setupProbe > 0) {
        // The first setup in a fresh process also pays one-time costs
        // (heap growth, lazy binding) and is left out.
        for (int i = 0; i <= options.setupProbe && report.correct(); ++i) {
            const double seconds = server
                                       ? timeServerSetup(options, report)
                                       : timeWorldSetup(options, report);
            if (i > 0)
                std::printf("setup_probe %.17g\n", seconds);
        }
        return report.correct() ? 0 : 1;
    }

    printFingerprint(options, source_id);
    try {
        if (server)
            runServerWorkload(options, report);
        else
            runWorldWorkload(options, report);
    } catch (const std::exception &e) {
        report.fail(std::string("exception: ") + e.what());
    }
    std::printf("%s\n", report.json().c_str());
    return report.correct() ? 0 : 1;
}
