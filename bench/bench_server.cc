/**
 * @file
 * Multi-world server throughput: worlds/sec and p99 update latency
 * when one parallax::Server multiplexes 1k and 10k small worlds
 * over the shared work-stealing scheduler, swept across worker
 * counts.
 *
 * Each hosted world is a deliberately tiny scene (a ground plane
 * and a short stack of spheres) so the bench stresses the server's
 * scheduling fabric — whole-world ticks as stealable chunks — not
 * the solver. After every sweep the per-world trajectories are
 * hashed and compared across worker counts: the speedup column is
 * only meaningful because the states are bitwise identical.
 *
 * Note the committed baseline records the host's CPU count: on a
 * single-core container every worker count serializes onto one
 * core, so speedup reads ~1.0 there by physics, not by defect; on a
 * multicore host the independent-worlds workload is embarrassingly
 * parallel.
 *
 * Run: ./build/bench/bench_server [worlds] [ticks] [--bench-out=FILE]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "harness.hh"

using namespace parallax;
using namespace parallax::bench;

namespace
{

/** A tiny deterministic scene: ground plane + 3-sphere stack. */
WorldConfig
smallWorldConfig(double tick_dt)
{
    WorldConfig config;
    config.dt = tick_dt;
    config.workerThreads = 0;
    config.simdBackend = hostSimdBackend();
    return config;
}

void
populateSmallWorld(World &world, std::uint64_t seed)
{
    const SphereShape *sphere = world.addSphere(0.5);
    const PlaneShape *plane =
        world.addPlane(Vec3{0.0, 1.0, 0.0}, 0.0);
    RigidBody *ground =
        world.createStaticBody(Transform(Quat(), Vec3{0, 0, 0}));
    world.createGeom(plane, ground);
    // A per-world lateral offset decorrelates the trajectories so
    // cross-world hash comparisons cannot pass by accident.
    const double dx = 0.001 * static_cast<double>(seed % 97);
    for (int i = 0; i < 3; ++i) {
        RigidBody *body = world.createDynamicBody(
            Transform(Quat(),
                      Vec3{dx, 0.6 + 1.05 * i, 0.0}),
            *sphere, 1.0);
        world.createGeom(sphere, body);
    }
}

struct SweepResult
{
    unsigned workers = 0;
    double seconds = 0.0;
    double worldsPerSec = 0.0;
    double p99UpdateSeconds = 0.0;
    std::vector<std::uint64_t> hashes;
};

SweepResult
runSweep(unsigned workers, std::size_t worlds, int ticks,
         double tick_dt)
{
    ServerConfig sc;
    sc.workerThreads = workers;
    sc.tickDt = tick_dt;
    Server server(sc);

    std::vector<WorldId> ids;
    ids.reserve(worlds);
    for (std::size_t i = 0; i < worlds; ++i) {
        WorldId id = invalidWorldId;
        const Status st =
            server.createWorld(smallWorldConfig(tick_dt), id);
        if (!st.ok()) {
            std::fprintf(stderr, "createWorld: %s\n",
                         st.toString().c_str());
            std::exit(1);
        }
        populateSmallWorld(*server.world(id), id);
        ids.push_back(id);
    }

    // Warm-up tick: arenas, warm caches and solver workspaces all
    // allocate once, outside the measured window.
    server.tickAll(1);

    SweepResult result;
    result.workers = workers;
    std::vector<double> update_seconds;
    update_seconds.reserve(ticks);
    const auto t0 = std::chrono::steady_clock::now();
    for (int t = 0; t < ticks; ++t) {
        const auto u0 = std::chrono::steady_clock::now();
        server.tickAll(1);
        const auto u1 = std::chrono::steady_clock::now();
        update_seconds.push_back(
            std::chrono::duration<double>(u1 - u0).count());
    }
    result.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    result.worldsPerSec =
        result.seconds > 0
            ? static_cast<double>(worlds) * ticks / result.seconds
            : 0.0;
    std::sort(update_seconds.begin(), update_seconds.end());
    result.p99UpdateSeconds =
        update_seconds[(update_seconds.size() * 99) / 100];

    result.hashes.reserve(worlds);
    for (WorldId id : ids)
        result.hashes.push_back(worldStateHash(*server.world(id)));
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    parseCommonFlags(&argc, argv);
    const std::size_t worlds_override =
        argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 0;
    const int ticks_override = argc > 2 ? std::atoi(argv[2]) : 0;

    printHeader("Multi-world server throughput",
                "whole-world ticks on the shared scheduler");

    const double tick_dt = 0.01;
    const unsigned worker_counts[] = {0, 1, 2, 4};
    const unsigned cpus = std::thread::hardware_concurrency();
    std::printf("host reports %u hardware thread%s\n\n", cpus,
                cpus == 1 ? "" : "s");

    struct Population
    {
        std::size_t worlds;
        int ticks;
    };
    std::vector<Population> populations;
    if (worlds_override > 0) {
        populations.push_back(
            {worlds_override,
             ticks_override > 0 ? ticks_override : 10});
    } else {
        populations.push_back({1000, 20});
        populations.push_back({10000, 3});
    }

    JsonWriter json;
    json.field("benchmark", "server")
        .field("cpus", static_cast<double>(cpus))
        .field("tick_dt", tick_dt);
    json.beginArray("workers");
    for (unsigned w : worker_counts)
        json.arrayValue(w);
    json.endArray();

    bool all_identical = true;
    json.beginObject("populations");
    for (const Population &pop : populations) {
        std::printf("%zu worlds x %d ticks:\n", pop.worlds,
                    pop.ticks);
        std::printf("  %-8s %12s %14s %16s\n", "workers", "seconds",
                    "worlds/sec", "p99 update (ms)");
        std::vector<SweepResult> runs;
        for (unsigned w : worker_counts) {
            runs.push_back(
                runSweep(w, pop.worlds, pop.ticks, tick_dt));
            const SweepResult &r = runs.back();
            std::printf("  %-8u %11.3fs %14.0f %15.3f\n", r.workers,
                        r.seconds, r.worldsPerSec,
                        r.p99UpdateSeconds * 1e3);
        }
        bool identical = true;
        for (const SweepResult &r : runs)
            if (r.hashes != runs.front().hashes)
                identical = false;
        all_identical = all_identical && identical;
        std::printf("  trajectories bitwise identical across "
                    "worker counts: %s\n\n",
                    identical ? "yes" : "NO — DIVERGED");

        const std::string key =
            "worlds_" + std::to_string(pop.worlds);
        json.beginObject(key.c_str());
        json.field("worlds", static_cast<double>(pop.worlds))
            .field("ticks", static_cast<double>(pop.ticks));
        json.beginArray("worlds_per_sec");
        for (const SweepResult &r : runs)
            json.arrayValue(r.worldsPerSec);
        json.endArray();
        json.beginArray("p99_update_seconds");
        for (const SweepResult &r : runs)
            json.arrayValue(r.p99UpdateSeconds);
        json.endArray();
        json.beginArray("speedup_vs_w1");
        const double base = runs[1].worldsPerSec;
        for (const SweepResult &r : runs)
            json.arrayValue(base > 0 ? r.worldsPerSec / base : 0.0);
        json.endArray();
        json.field("trajectories_identical",
                   identical ? 1.0 : 0.0);
        json.endObject();
    }
    json.endObject();

    const std::string out = !benchOutPath().empty()
                                ? benchOutPath()
                                : "BENCH_server.json";
    if (json.write(out.c_str()))
        std::printf("wrote %s\n", out.c_str());
    else
        std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return all_identical ? 0 : 1;
}
