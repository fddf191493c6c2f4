/**
 * @file
 * Trajectory fingerprint tool: steps every benchmark scene at several
 * worker counts and prints one FNV-1a hash of the final dynamic
 * state (body poses, velocities and sleep state, joint break
 * bookkeeping, cloth particles) per run, via the library's
 * worldStateHash (parallax/snapshot.hh).
 *
 * Unlike captureState() — whose bytes embed the WorldConfig,
 * including the worker count — this hash covers only quantities the
 * engine promises are bitwise identical for any number of workers,
 * so equal hashes across the w= column are
 * exactly that promise, and equal hashes across code versions mean a
 * refactor did not move a single bit. Record the output before a
 * change, `diff` it after: the first differing line names the run
 * that diverged.
 *
 * Run: ./build/tools/state_hash [steps] [scale] [--simd=BACKEND]
 *                                [--scene=NAME]
 *
 * --scene runs one scene only, named by its full or short name in
 * any case (deformable, Def); the combined line then folds that
 * scene's runs alone.
 *
 * --simd selects the kernel backend (scalar, the bitwise reference,
 * or native — SIMD; PAX_SIMD sets the default). The header line
 * names the backend actually running, since scalar and native
 * fingerprints differ wherever a scene has an all-contact island or
 * a cloth: native solves those contacts as fused fp32 units and
 * relaxes cloth in color-major order, so its trajectories there are
 * tolerance-bounded, not bitwise, against scalar. Scenes with
 * neither (Periodic, Ragdoll) print the scalar fingerprints.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <strings.h>

#include "parallax.hh"
#include "workload/benchmarks.hh"

using namespace parallax;

namespace
{

/** Fold one per-run hash into the running combined FNV-1a. */
std::uint64_t
fold(std::uint64_t combined, std::uint64_t h)
{
    const auto *p = reinterpret_cast<const std::uint8_t *>(&h);
    for (std::size_t i = 0; i < sizeof(h); ++i) {
        combined ^= p[i];
        combined *= 0x100000001b3ull;
    }
    return combined;
}

/** True when `scene` names benchmark `id` (full or short name, any
 *  case); an empty `scene` names every benchmark. */
bool
sceneMatches(const std::string &scene, BenchmarkId id)
{
    return scene.empty() ||
        strcasecmp(scene.c_str(), benchmarkInfo(id).name) == 0 ||
        strcasecmp(scene.c_str(), benchmarkInfo(id).shortName) == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    SimdBackend simd = simdBackendFromEnv(SimdBackend::Scalar);
    constexpr const char simdFlag[] = "--simd=";
    constexpr const char sceneFlag[] = "--scene=";
    std::string scene; // Empty: every scene.
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], sceneFlag,
                         sizeof(sceneFlag) - 1) == 0) {
            scene = argv[i] + sizeof(sceneFlag) - 1;
            bool known = false;
            for (BenchmarkId id : allBenchmarks)
                known = known || (!scene.empty() && sceneMatches(scene, id));
            if (!known) {
                std::fprintf(stderr,
                             "unrecognized --scene value '%s'\n",
                             scene.c_str());
                return 2;
            }
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
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    const int steps = argc > 1 ? std::atoi(argv[1]) : 300;
    const double scale = argc > 2 ? std::atof(argv[2]) : 0.12;
    const unsigned worker_counts[] = {0, 1, 2, 8};

    // Name the backend actually running (native silently degrades to
    // scalar on hosts without SIMD support) so recorded fingerprints
    // are self-describing.
    std::printf("backend %s\n", kernelBackendFor(simd).name());

    std::uint64_t combined = 0xcbf29ce484222325ull;
    for (BenchmarkId id : allBenchmarks) {
        if (!sceneMatches(scene, id))
            continue;
        for (unsigned workers : worker_counts) {
            WorldConfig config;
            config.workerThreads = workers;
            config.simdBackend = simd;
            std::unique_ptr<World> world =
                buildBenchmark(id, config, scale);
            for (int i = 0; i < steps; ++i)
                world->step();
            const std::uint64_t h = worldStateHash(*world);
            combined = fold(combined, h);
            std::printf("%-11s w=%u %016llx\n",
                        benchmarkInfo(id).shortName, workers,
                        static_cast<unsigned long long>(h));
        }
    }
    std::printf("combined %016llx\n",
                static_cast<unsigned long long>(combined));
    return 0;
}
