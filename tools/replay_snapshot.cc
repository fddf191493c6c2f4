/**
 * @file
 * Replay a ParallAX invariant snapshot.
 *
 * Loads a .paxsnap file dumped by the invariant checker (or captured
 * explicitly via World::captureState), rebuilds the benchmark scene
 * named in the snapshot's scene tag, restores the captured state into
 * it, and steps forward while re-running the invariant checks. A
 * snapshot dumped on a violation reproduces the failure in a single
 * step.
 *
 * Snapshots do not record the kernel backend: the replay runs the
 * one PAX_SIMD names (scalar or native; default scalar).
 *
 * Run: ./build/tools/replay_snapshot <file.paxsnap> [steps]
 * Exit: 0 clean, 1 usage/load error, 2 invariant violation.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "parallax.hh"
#include "workload/benchmarks.hh"

using namespace parallax;

namespace
{

/** Parse a "bench:<Short>:scale=<s>" scene tag. Returns false when
 *  the tag is not in that format. */
bool
parseSceneTag(const std::string &tag, BenchmarkId *id, double *scale)
{
    if (tag.rfind("bench:", 0) != 0)
        return false;
    const std::size_t name_end = tag.find(':', 6);
    if (name_end == std::string::npos)
        return false;
    const std::string name = tag.substr(6, name_end - 6);
    const std::string rest = tag.substr(name_end + 1);
    if (rest.rfind("scale=", 0) != 0)
        return false;
    if (!benchmarkFromShortName(name, id))
        return false;
    *scale = std::atof(rest.c_str() + 6);
    return *scale > 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2 || argc > 3) {
        std::fprintf(stderr,
                     "usage: %s <file.paxsnap> [steps]\n", argv[0]);
        return 1;
    }
    const char *path = argv[1];
    const int steps = argc > 2 ? std::atoi(argv[2]) : 1;

    std::vector<std::uint8_t> bytes;
    Status st = readSnapshotFile(path, bytes);
    if (!st.ok()) {
        std::fprintf(stderr, "%s: %s\n", path,
                     st.toString().c_str());
        return 1;
    }

    SnapshotInfo info;
    WorldConfig config;
    st = describeSnapshot(bytes, info, config);
    if (!st.ok()) {
        std::fprintf(stderr, "%s: %s\n", path,
                     st.toString().c_str());
        return 1;
    }
    std::printf("%s:\n  scene   %s\n  step    %llu (t=%.4f)\n"
                "  bodies  %u  geoms %u  joints %u  cloths %u\n"
                "  blast spawns %u\n",
                path, info.sceneTag.c_str(),
                static_cast<unsigned long long>(info.stepCount),
                info.time, info.bodies, info.geoms, info.joints,
                info.cloths, info.blastSpawns);

    BenchmarkId id;
    double scale = 0;
    if (!parseSceneTag(info.sceneTag, &id, &scale)) {
        std::fprintf(stderr,
                     "scene tag '%s' names no known benchmark; only "
                     "snapshots from benchmark scenes can be "
                     "replayed standalone\n",
                     info.sceneTag.c_str());
        return 1;
    }

    config.simdBackend = simdBackendFromEnv(SimdBackend::Scalar);
    std::unique_ptr<World> world = buildBenchmark(id, config, scale);
    st = world->restoreState(bytes);
    if (!st.ok()) {
        std::fprintf(stderr, "restore failed: %s\n",
                     st.toString().c_str());
        return 1;
    }
    std::printf("restored %s at step %llu; replaying %d step%s\n",
                benchmarkInfo(id).name,
                static_cast<unsigned long long>(world->stepCount()),
                steps, steps == 1 ? "" : "s");

    for (int i = 0; i < steps; ++i) {
        world->step();
        const std::vector<InvariantViolation> violations =
            world->validateInvariants();
        if (!violations.empty()) {
            std::fprintf(stderr,
                         "step %llu: %zu invariant violation%s\n",
                         static_cast<unsigned long long>(
                             world->stepCount()),
                         violations.size(),
                         violations.size() == 1 ? "" : "s");
            for (const InvariantViolation &v : violations)
                std::fprintf(stderr, "  [%s] %s\n", v.code.c_str(),
                             v.message.c_str());
            return 2;
        }
    }
    std::printf("replayed %d step%s cleanly (now at step %llu)\n",
                steps, steps == 1 ? "" : "s",
                static_cast<unsigned long long>(world->stepCount()));
    return 0;
}
