/**
 * @file
 * Ablation: engine auto-disable (sleeping) versus the paper's
 * always-active configuration.
 *
 * DESIGN.md and EXPERIMENTS.md note that our persistent-contact
 * masonry makes Breakable heavier than the paper's (Table 3). This
 * ablation quantifies the design choice: with island sleeping
 * enabled — standard in shipped games and available in ODE as
 * auto-disable — resting structures stop consuming solver work
 * until disturbed, which collapses the resting-contact load while
 * the active regions (impacts, explosions, characters) keep their
 * cost.
 */

#include "harness.hh"

using namespace parallax;
using namespace parallax::bench;

namespace
{

double
opsPerFrame(BenchmarkId id, bool auto_disable)
{
    WorldConfig config;
    config.autoDisable = auto_disable;
    config.simdBackend = simdBackendFromEnv(SimdBackend::Scalar);
    auto world = buildBenchmark(id, config, 1.0);
    for (int i = 0; i < 12; ++i)
        world->step();
    double best = 0;
    for (int f = 0; f < 3; ++f) {
        StepProfile frame;
        for (int s = 0; s < 3; ++s) {
            world->step();
            frame += Instrumentation::profileStep(*world);
        }
        best = std::max(best, frame.totalOps());
    }
    return best;
}

} // namespace

int
main()
{
    printHeader("Ablation: auto-disable (island sleeping)",
                "design-choice ablation (DESIGN.md)");
    std::printf("%-4s %14s %14s %8s\n", "id", "active (M)",
                "sleeping (M)", "ratio");
    for (BenchmarkId id : allBenchmarks) {
        const double active = opsPerFrame(id, false) / 1e6;
        const double sleeping = opsPerFrame(id, true) / 1e6;
        std::printf("%-4s %14.1f %14.1f %8.2f\n", tag(id), active,
                    sleeping, sleeping / active);
    }
    std::printf("\nSleeping removes resting-contact solver load "
                "(walls, settled piles)\nwhile active regions keep "
                "their cost — the configuration shipped games\nuse, "
                "and the likely reason the paper's Breakable is "
                "lighter than ours.\n");
    return 0;
}
