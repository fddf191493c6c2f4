/**
 * @file
 * Invariant acceptance sweep: every benchmark scene, several worker
 * counts, hundreds of substeps, with the per-step invariant checker
 * enabled.
 *
 * Default mode runs with InvariantMode::HardFail: any violation dumps
 * a pre-step snapshot and aborts the process (exit 1) via the
 * checker's hard-fail path, so a clean exit means the whole sweep
 * passed.
 *
 * With --json the sweep runs under InvariantMode::Warn instead, so
 * every run completes, per-run progress goes to stderr, and the last
 * stdout line is a single machine-readable JSON summary. The exit
 * code is still nonzero when any violation was observed, so CI can
 * gate on it either way.
 *
 * Observability (docs/OBSERVABILITY.md): --trace=FILE records
 * per-phase spans in every run and writes one Chrome trace JSON per
 * (scene, workers), decorated into FILE's name; --metrics-json
 * prints one World::metricsLine() per run to stderr (stderr so the
 * "last stdout line is the summary" contract holds).
 *
 * Run: ./build/tools/invariant_sweep [steps] [scale] [--json]
 *          [--trace=FILE] [--metrics-json] [--simd=BACKEND]
 *
 * --simd selects the kernel backend (scalar or native; PAX_SIMD
 * sets the default) — the sweep is the acceptance gate showing the
 * native SIMD kernels preserve every world invariant.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "parallax.hh"
#include "workload/benchmarks.hh"

using namespace parallax;

int
main(int argc, char **argv)
{
    bool json = false;
    bool metrics_json = false;
    std::string trace_path;
    int positional[2] = {300, 0};
    double scale = 0.12;
    int npos = 0;
    SimdBackend simd = simdBackendFromEnv(SimdBackend::Scalar);
    constexpr const char traceFlag[] = "--trace=";
    constexpr const char simdFlag[] = "--simd=";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            json = true;
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
            positional[npos++] = std::atoi(argv[i]);
        } else if (npos == 1) {
            scale = std::atof(argv[i]);
            ++npos;
        }
    }
    const int steps = positional[0];
    const unsigned worker_counts[] = {0, 1, 2, 8};

    std::FILE *progress = json ? stderr : stdout;
    std::fprintf(progress,
                 "invariant sweep: %d scenes x {0,1,2,8} workers x "
                 "%d substeps at scale %g (%s mode, %s kernels)\n",
                 numBenchmarks, steps, scale,
                 json ? "warn" : "hard-fail",
                 kernelBackendFor(simd).name());

    std::uint64_t total_violations = 0;
    int runs = 0;
    for (BenchmarkId id : allBenchmarks) {
        for (unsigned workers : worker_counts) {
            WorldConfig config;
            config.workerThreads = workers;
            config.simdBackend = simd;
            config.tracing = !trace_path.empty();
            config.invariantMode = json ? InvariantMode::Warn
                                        : InvariantMode::HardFail;
            std::unique_ptr<World> world =
                buildBenchmark(id, config, scale);
            for (int i = 0; i < steps; ++i)
                world->step();
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
            const StepStats &stats = world->lastStepStats();
            const std::uint64_t violations =
                world->invariantViolationCount();
            total_violations += violations;
            ++runs;
            std::fprintf(progress,
                         "  %-11s w=%u  %s  (%llu contacts, %llu "
                         "islands asleep, %llu violations at step "
                         "%d)\n",
                         benchmarkInfo(id).shortName, workers,
                         violations == 0 ? "ok" : "VIOLATED",
                         static_cast<unsigned long long>(
                             stats.contactsCreated),
                         static_cast<unsigned long long>(
                             stats.islandsAsleep),
                         static_cast<unsigned long long>(violations),
                         steps);
            std::fflush(progress);
        }
    }

    const bool pass = total_violations == 0;
    if (json) {
        std::printf("{\"tool\":\"invariant_sweep\",\"scenes\":%d,"
                    "\"workers\":[0,1,2,8],\"runs\":%d,\"steps\":%d,"
                    "\"scale\":%g,\"violations\":%llu,"
                    "\"status\":\"%s\"}\n",
                    numBenchmarks, runs, steps, scale,
                    static_cast<unsigned long long>(total_violations),
                    pass ? "pass" : "fail");
    } else {
        std::printf("sweep passed: no invariant violations\n");
    }
    return pass ? 0 : 1;
}
