/**
 * @file
 * Allocation-regression test for the steady-state hot path.
 *
 * The guarantee of the persistent-workspace design (DESIGN.md §9):
 * once a scene has warmed up, stepping it performs zero transient
 * heap allocations in the narrowphase, solver and broadphase — the
 * contact slots stop being created, the solver workspaces stop
 * growing, and the broadphase's persistent containers stop
 * reallocating. This test steps the Mix benchmark (the densest
 * scene: rigid contacts, joints, cloth, effects) long past warm-up
 * in both scheduling modes and asserts every growth counter stays
 * flat. It carries the `perf` ctest label and runs via the
 * `check-perf` preset, which repeats it to catch intermittent growth.
 */

#include <gtest/gtest.h>

#include "parallax.hh"
#include "workload/benchmarks.hh"

namespace parallax
{
namespace
{

TEST(PerfAlloc, SteadyStateStepsDoNotAllocate)
{
    for (bool deterministic : {true, false}) {
        SCOPED_TRACE(deterministic ? "deterministic" : "default mode");
        WorldConfig config;
        config.workerThreads = 2;
        config.deterministic = deterministic;
        auto world = buildBenchmark(BenchmarkId::Mix, config, 0.12);

        // Warm-up: let contacts, islands, contact slots and
        // workspaces reach their steady-state sizes. Mix keeps
        // developing activity (explosions, breakables) well past the
        // first frames, so the window is generous.
        std::uint64_t slots_created = 0;
        for (int i = 0; i < 100; ++i) {
            world->step();
            slots_created += world->lastStepStats().arenaGrowths;
        }
        // Contact slots exist only on the chunked narrowphase path:
        // without them the window below would not cover it.
        EXPECT_GT(slots_created, 0u);

        // Measured window: every counter below is a per-step delta
        // and must stay at zero — no contact slot created, no solver
        // workspace grown, no broadphase storage reallocated.
        std::uint64_t reuses = 0;
        for (int i = 0; i < 50; ++i) {
            world->step();
            const StepStats &s = world->lastStepStats();
            EXPECT_EQ(s.arenaGrowths, 0u)
                << "contact slot created at measured step " << i;
            EXPECT_EQ(s.solver.workspaceGrowths, 0u)
                << "solver workspace grew at measured step " << i;
            EXPECT_EQ(s.broadphase.storageGrowths, 0u)
                << "broadphase storage grew at measured step " << i;
            reuses += s.solver.workspaceReuses;
        }
        // The warm path must actually be reusing workspaces, not
        // sidestepping them.
        EXPECT_GT(reuses, 0u);
    }
}

} // namespace
} // namespace parallax
