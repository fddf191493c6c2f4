/**
 * @file
 * Host parallel-speedup trajectory of the engine itself.
 *
 * Steps a benchmark scene under the work-stealing scheduler at a
 * sweep of worker counts, reports per-phase wall-clock speedup over
 * the single-lane run, and stages the result as
 * BENCH_parallel_scaling.json so successive commits can track the
 * perf trajectory. Unlike the figure benches (which model the
 * paper's hardware), this measures the reproduction's own host
 * performance — the "as fast as the hardware allows" axis.
 *
 * Also measures the wall-clock overhead of the trace layer (the
 * same scene stepped with WorldConfig::tracing off vs on) so the
 * "tracing is cheap / disabled tracing is free" claim in
 * docs/OBSERVABILITY.md stays a measured number, not folklore.
 *
 * Run: ./build/bench/bench_parallel_scaling [Per|...|Mix] [scale]
 *          [--check-invariants] [--trace=FILE] [--metrics-json]
 *          [--bench-out=FILE] [--steps=N] [--warmup=N]
 *          [--baseline=FILE]
 *
 * The JSON records the host's core count (`cpus`), and
 * --baseline=FILE compares against a committed baseline: when the
 * two were measured on different core counts the speedup columns are
 * not comparable, so the bench warns on stdout and sets
 * `cpu_mismatch` in its own JSON.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "harness.hh"

using namespace parallax;
using namespace parallax::bench;

namespace
{

BenchmarkId
parseBenchmark(const char *name)
{
    for (BenchmarkId id : allBenchmarks) {
        if (std::strcmp(benchmarkInfo(id).shortName, name) == 0)
            return id;
    }
    std::fprintf(stderr, "unknown benchmark '%s', using Mix\n", name);
    return BenchmarkId::Mix;
}

/** Seconds to step `id` for `steps` steps with tracing off/on. */
double
timedRun(BenchmarkId id, double scale, bool tracing, int warmup,
         int steps)
{
    WorldConfig config;
    config.tracing = tracing;
    config.simdBackend = hostSimdBackend();
    auto world = buildBenchmark(id, config, scale);
    for (int i = 0; i < warmup; ++i)
        world->step();
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < steps; ++i)
        world->step();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Pull the numeric value of `"key":` out of a JSON file; -1 when
 *  the file or the key is missing (enough for the flat bench JSON —
 *  no parser dependency). */
double
jsonNumberField(const std::string &path, const char *key)
{
    std::ifstream in(path);
    if (!in.good())
        return -1.0;
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    const std::string needle = std::string("\"") + key + "\":";
    const std::size_t pos = text.find(needle);
    if (pos == std::string::npos)
        return -1.0;
    return std::atof(text.c_str() + pos + needle.size());
}

} // namespace

int
main(int argc, char **argv)
{
    parseCommonFlags(&argc, argv);

    // Bench-local flags (strip before positional parsing).
    int warmup = 12, steps = 9;
    std::string baseline_path;
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--steps=", 8) == 0)
            steps = std::atoi(arg + 8);
        else if (std::strncmp(arg, "--warmup=", 9) == 0)
            warmup = std::atoi(arg + 9);
        else if (std::strncmp(arg, "--baseline=", 11) == 0)
            baseline_path = arg + 11;
        else
            argv[kept++] = argv[i];
    }
    argc = kept;

    const BenchmarkId id =
        argc > 1 ? parseBenchmark(argv[1]) : BenchmarkId::Mix;
    const double scale = argc > 2 ? std::atof(argv[2]) : 1.0;
    const unsigned cpus = std::thread::hardware_concurrency();

    printHeader("Host parallel scaling (work-stealing scheduler)",
                "section 3.1 threading model");

    const unsigned worker_counts[] = {0, 1, 2, 4};
    std::vector<HostPhaseSeconds> runs;
    for (unsigned workers : worker_counts) {
        runs.push_back(
            measureHostPhases(id, workers, scale, warmup, steps));
    }
    const HostPhaseSeconds &base = runs.front();

    std::printf("%s at scale %.2f on %u cpus, per-phase seconds "
                "over %d steps (speedup vs 0 workers):\n\n",
                benchmarkInfo(id).name, scale, cpus, steps);
    std::printf("%-18s", "phase");
    for (const HostPhaseSeconds &run : runs)
        std::printf("   w=%-10u", run.workers);
    std::printf("\n");
    for (int p = 0; p < numPipelinePhases; ++p) {
        std::printf("%-18s",
                    pipelinePhaseName(static_cast<PipelinePhase>(p)));
        for (const HostPhaseSeconds &run : runs) {
            const double speedup = run.seconds[p] > 0
                                       ? base.seconds[p] /
                                             run.seconds[p]
                                       : 0.0;
            std::printf("   %7.4fs x%-4.2f", run.seconds[p],
                        speedup);
        }
        std::printf("\n");
    }
    std::printf("%-18s", "total");
    for (const HostPhaseSeconds &run : runs) {
        std::printf("   %7.4fs x%-4.2f", run.total,
                    run.total > 0 ? base.total / run.total : 0.0);
    }
    std::printf("\n\n");

    // Allocation trajectory over the measured window: growths should
    // all read 0 on a warm scene (the perf-labeled regression test
    // asserts exactly that).
    std::printf("allocation counters over the measured steps:\n");
    std::printf("%-18s", "workspace_growths");
    for (const HostPhaseSeconds &run : runs)
        std::printf("   %13llu ", static_cast<unsigned long long>(
                                      run.workspaceGrowths));
    std::printf("\n%-18s", "workspace_reuses");
    for (const HostPhaseSeconds &run : runs)
        std::printf("   %13llu ", static_cast<unsigned long long>(
                                      run.workspaceReuses));
    std::printf("\n%-18s", "bp_storage_growths");
    for (const HostPhaseSeconds &run : runs)
        std::printf("   %13llu ", static_cast<unsigned long long>(
                                      run.broadphaseStorageGrowths));
    std::printf("\n\n");

    // Scalar-vs-SIMD column: the same scene and worker counts under
    // the other kernel backend, so the host report shows how much
    // of the wall clock the vector engine buys at each lane count
    // (parallel speedup and SIMD speedup compose; the per-kernel
    // detail lives in bench_kernels).
    const SimdBackend primary = hostSimdBackend();
    std::vector<HostPhaseSeconds> simd_runs;
    if (nativeSimdAvailable()) {
        setHostSimdBackend(primary == SimdBackend::Native
                               ? SimdBackend::Scalar
                               : SimdBackend::Native);
        for (unsigned workers : worker_counts) {
            simd_runs.push_back(measureHostPhases(
                id, workers, scale, warmup, steps));
        }
        setHostSimdBackend(primary);
        const char *first = primary == SimdBackend::Native
                                ? "native"
                                : "scalar";
        const char *second = primary == SimdBackend::Native
                                 ? "scalar"
                                 : "native";
        std::printf("kernel backends, total seconds per worker "
                    "count (%s vs %s):\n",
                    first, second);
        std::printf("%-18s", first);
        for (const HostPhaseSeconds &run : runs)
            std::printf("   %7.4fs     ", run.total);
        std::printf("\n%-18s", second);
        for (const HostPhaseSeconds &run : simd_runs)
            std::printf("   %7.4fs     ", run.total);
        std::printf("\n%-18s", "simd_speedup");
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const double scalar_total =
                primary == SimdBackend::Native
                    ? simd_runs[i].total
                    : runs[i].total;
            const double native_total =
                primary == SimdBackend::Native
                    ? runs[i].total
                    : simd_runs[i].total;
            std::printf("   x%-11.2f  ",
                        native_total > 0
                            ? scalar_total / native_total
                            : 0.0);
        }
        std::printf("\n\n");
    } else {
        std::printf("kernel backends: host has no SIMD backend; "
                    "scalar column only\n\n");
    }

    // The speedup columns only mean something relative to the core
    // count they were measured on — a 1-CPU container pins every
    // speedup at ~1.0 by physics, not by regression. Record the
    // host's cpus and flag comparisons across differing counts.
    bool cpu_mismatch = false;
    double baseline_cpus = -1.0;
    if (!baseline_path.empty()) {
        baseline_cpus = jsonNumberField(baseline_path, "cpus");
        cpu_mismatch =
            baseline_cpus != static_cast<double>(cpus);
        if (cpu_mismatch) {
            if (baseline_cpus < 0) {
                std::printf(
                    "WARNING: baseline %s records no cpus field; "
                    "host has %u — speedups are not comparable\n\n",
                    baseline_path.c_str(), cpus);
            } else {
                std::printf(
                    "WARNING: baseline %s was measured on %.0f "
                    "cpus, host has %u — speedups are not "
                    "comparable\n\n",
                    baseline_path.c_str(), baseline_cpus, cpus);
            }
        }
    }

    JsonWriter json;
    json.field("benchmark", benchmarkInfo(id).shortName)
        .field("scale", scale)
        .field("cpus", static_cast<double>(cpus))
        .field("steps", static_cast<double>(steps));
    if (!baseline_path.empty()) {
        json.field("baseline_cpus", baseline_cpus)
            .field("cpu_mismatch", cpu_mismatch);
    }
    json.beginArray("workers");
    for (const HostPhaseSeconds &run : runs)
        json.arrayValue(run.workers);
    json.endArray();
    json.beginObject("phase_seconds");
    for (int p = 0; p < numPipelinePhases; ++p) {
        json.beginArray(
            pipelinePhaseName(static_cast<PipelinePhase>(p)));
        for (const HostPhaseSeconds &run : runs)
            json.arrayValue(run.seconds[p]);
        json.endArray();
    }
    json.endObject();
    json.beginArray("total_seconds");
    for (const HostPhaseSeconds &run : runs)
        json.arrayValue(run.total);
    json.endArray();
    json.beginArray("speedup");
    for (const HostPhaseSeconds &run : runs)
        json.arrayValue(run.total > 0 ? base.total / run.total
                                      : 0.0);
    json.endArray();
    json.beginArray("tasks_stolen");
    for (const HostPhaseSeconds &run : runs)
        json.arrayValue(static_cast<double>(run.tasksStolen));
    json.endArray();
    json.field("simd",
               primary == SimdBackend::Native ? "native"
                                              : "scalar");
    if (!simd_runs.empty()) {
        json.beginArray("other_backend_total_seconds");
        for (const HostPhaseSeconds &run : simd_runs)
            json.arrayValue(run.total);
        json.endArray();
        json.beginArray("simd_speedup");
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const double scalar_total =
                primary == SimdBackend::Native
                    ? simd_runs[i].total
                    : runs[i].total;
            const double native_total =
                primary == SimdBackend::Native
                    ? runs[i].total
                    : simd_runs[i].total;
            json.arrayValue(native_total > 0
                                ? scalar_total / native_total
                                : 0.0);
        }
        json.endArray();
    }
    json.beginObject("allocation");
    json.beginArray("workspace_growths");
    for (const HostPhaseSeconds &run : runs)
        json.arrayValue(static_cast<double>(run.workspaceGrowths));
    json.endArray();
    json.beginArray("workspace_reuses");
    for (const HostPhaseSeconds &run : runs)
        json.arrayValue(static_cast<double>(run.workspaceReuses));
    json.endArray();
    json.beginArray("broadphase_storage_growths");
    for (const HostPhaseSeconds &run : runs)
        json.arrayValue(
            static_cast<double>(run.broadphaseStorageGrowths));
    json.endArray();
    json.endObject();

    // Trace-layer overhead: same serial scene, tracing off vs on.
    // Best-of-3 per mode damps scheduler noise on loaded hosts.
    const int ov_warmup = 12, ov_steps = 30;
    double off_s = 0.0, on_s = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        const double off = timedRun(id, scale, false, ov_warmup,
                                    ov_steps);
        const double on = timedRun(id, scale, true, ov_warmup,
                                   ov_steps);
        if (rep == 0 || off < off_s)
            off_s = off;
        if (rep == 0 || on < on_s)
            on_s = on;
    }
    const double overhead_pct =
        off_s > 0 ? (on_s - off_s) / off_s * 100.0 : 0.0;
    std::printf("trace overhead (%d steps, w=0, best of 3): "
                "off %.4fs, on %.4fs (%+.2f%%)\n\n",
                ov_steps, off_s, on_s, overhead_pct);
    json.beginObject("trace_overhead");
    json.field("steps", static_cast<double>(ov_steps))
        .field("off_seconds", off_s)
        .field("on_seconds", on_s)
        .field("overhead_pct", overhead_pct);
    json.endObject();

    const std::string out = !benchOutPath().empty()
                                ? benchOutPath()
                                : "BENCH_parallel_scaling.json";
    if (json.write(out.c_str()))
        std::printf("wrote %s\n", out.c_str());
    else
        std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 0;
}
