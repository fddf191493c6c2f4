/**
 * @file
 * Google-benchmark microbenchmarks of the engine and simulator
 * primitives (native host performance, not simulated time). Useful
 * for tracking regressions in the substrate the experiments run on.
 */

#include <benchmark/benchmark.h>

#include "cpu/ooo_core.hh"
#include "isa/kernels.hh"
#include "mem/cache.hh"
#include "parallax.hh"

namespace parallax
{
namespace
{

void
BM_WorldStepSphereRain(benchmark::State &state)
{
    WorldConfig config;
    config.simdBackend = simdBackendFromEnv(SimdBackend::Scalar);
    World world(config);
    const SphereShape *s = world.addSphere(0.4);
    const PlaneShape *p = world.addPlane({0, 1, 0}, 0.0);
    world.createGeom(p, world.createStaticBody(Transform()));
    const int count = static_cast<int>(state.range(0));
    for (int i = 0; i < count; ++i) {
        RigidBody *b = world.createDynamicBody(
            Transform(Quat(), {(i % 10) * 1.0, 1.0 + (i / 10) * 1.0,
                               (i % 7) * 1.0}),
            *s, 1.0);
        world.createGeom(s, b);
    }
    for (auto _ : state)
        world.step();
    state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_WorldStepSphereRain)->Arg(100)->Arg(400);

void
BM_BenchmarkSceneStep(benchmark::State &state)
{
    WorldConfig config;
    config.simdBackend = simdBackendFromEnv(SimdBackend::Scalar);
    auto world = buildBenchmark(
        static_cast<BenchmarkId>(state.range(0)), config, 0.25);
    for (auto _ : state)
        world->step();
}
BENCHMARK(BM_BenchmarkSceneStep)
    ->Arg(static_cast<int>(BenchmarkId::Periodic))
    ->Arg(static_cast<int>(BenchmarkId::Mix));

/**
 * The stepped scene at full Table 4 scale under the work-stealing
 * scheduler: worker-count sweep for the host parallel-speedup
 * trajectory (compare the workers=1 and workers=4 rows).
 */
void
BM_SteppedSceneWorkers(benchmark::State &state)
{
    WorldConfig config;
    config.workerThreads = static_cast<unsigned>(state.range(0));
    config.simdBackend = simdBackendFromEnv(SimdBackend::Scalar);
    auto world = buildBenchmark(BenchmarkId::Mix, config, 1.0);
    // Warm up past scene settling so steps are comparable.
    for (int i = 0; i < 12; ++i)
        world->step();
    for (auto _ : state)
        world->step();
    state.counters["steals/step"] = benchmark::Counter(
        static_cast<double>(world->scheduler().tasksStolen()),
        benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SteppedSceneWorkers)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache(CacheConfig{4u << 20, 4, 64});
    std::uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr, false));
        addr += 64;
        if (addr > (16u << 20))
            addr = 0;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_OooCoreKernel(benchmark::State &state)
{
    const KernelId id = static_cast<KernelId>(state.range(0));
    Machine pristine;
    Rng rng(1);
    packKernelInputs(id, pristine, 100, rng);
    OooCore core(CoreConfig::shader());
    std::uint64_t simulated = 0;
    for (auto _ : state) {
        Machine m = pristine;
        const auto r = core.run(kernelProgram(id), m);
        simulated += r.instructions;
    }
    state.SetItemsProcessed(simulated);
}
BENCHMARK(BM_OooCoreKernel)
    ->Arg(static_cast<int>(KernelId::Narrowphase))
    ->Arg(static_cast<int>(KernelId::IslandProcessing))
    ->Arg(static_cast<int>(KernelId::Cloth));

} // namespace
} // namespace parallax

BENCHMARK_MAIN();
