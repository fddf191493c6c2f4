/**
 * @file
 * Figure 6(a): per-phase execution-time breakdown on a four-core
 * processor with the 12 MB partitioned L2. The paper observes ~3x
 * improvement over one core, with a further ~5x still needed for
 * 30 FPS on the heaviest benchmarks; Continuous already reaches
 * 30 FPS without FG cores.
 */

#include "harness.hh"

using namespace parallax;
using namespace parallax::bench;

int
main(int argc, char **argv)
{
    parseCommonFlags(&argc, argv);
    printHeader("Figure 6a: 4 cores + 12 MB partitioned L2",
                "Figure 6(a), section 6.2");
    std::printf("%-4s %9s %9s %9s %9s %9s | %9s %7s\n", "id",
                "broad", "narrow", "islandC", "islandP", "cloth",
                "total(s)", "FPS");
    MeasureOptions opt;
    opt.threads = 4;

    // Both configurations of every benchmark are independent sweep
    // points dispatched over the --jobs threads.
    std::vector<FrameTime> ft4(numBenchmarks);
    std::vector<double> t1(numBenchmarks);
    runSweep(numBenchmarks * 2, [&](std::size_t p) {
        const std::size_t i = p / 2;
        const BenchmarkId id = allBenchmarks[i];
        if (p % 2 == 0) {
            ft4[i] = frameTime(measuredRun(id, opt),
                               L2Plan::paperPartitioned(), 4);
        } else {
            t1[i] = frameTime(measuredRun(id), L2Plan::shared(1), 1)
                        .total();
        }
    });

    for (int i = 0; i < numBenchmarks; ++i) {
        const FrameTime &ft = ft4[i];
        std::printf(
            "%-4s %9.4f %9.4f %9.4f %9.4f %9.4f | %9.4f %7.1f\n",
            tag(allBenchmarks[i]), ft[Phase::Broadphase].total(),
            ft[Phase::Narrowphase].total(),
            ft[Phase::IslandCreation].total(),
            ft[Phase::IslandProcessing].total(),
            ft[Phase::Cloth].total(), ft.total(), 1.0 / ft.total());
    }

    // Average improvement over the single-core configuration.
    double speedup = 0;
    for (int i = 0; i < numBenchmarks; ++i)
        speedup += t1[i] / ft4[i].total();
    std::printf("\naverage speedup vs 1 core + 1 MB: %.2fx "
                "(paper: ~3x)\n",
                speedup / numBenchmarks);
    return 0;
}
