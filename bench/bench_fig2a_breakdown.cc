/**
 * @file
 * Figure 2(a): execution-time breakdown of one frame per benchmark
 * on a single 2 GHz desktop core with a 1 MB L2.
 *
 * Also checks the paper's headline single-core result: the most
 * complex benchmark (Mix) runs at roughly 2.3 FPS on one desktop
 * core — over an order of magnitude short of 30 FPS.
 */

#include "harness.hh"

using namespace parallax;
using namespace parallax::bench;

int
main(int argc, char **argv)
{
    parseCommonFlags(&argc, argv);
    printHeader("Figure 2a: 1 core + 1 MB L2 per-phase breakdown",
                "Figure 2(a), section 6");
    std::printf("%-4s %9s %9s %9s %9s %9s | %9s %7s %8s\n", "id",
                "broad", "narrow", "islandC", "islandP", "cloth",
                "total(s)", "FPS", "x frame");

    // Benchmarks are independent sweep points: measure them on the
    // --jobs threads, print in table order afterwards.
    std::vector<FrameTime> fts(numBenchmarks);
    runSweep(numBenchmarks, [&fts](std::size_t i) {
        fts[i] = frameTime(measuredRun(allBenchmarks[i]),
                           L2Plan::shared(1), 1);
    });

    for (int i = 0; i < numBenchmarks; ++i) {
        const FrameTime &ft = fts[i];
        const double total = ft.total();
        std::printf(
            "%-4s %9.4f %9.4f %9.4f %9.4f %9.4f | %9.4f %7.1f %8.2f\n",
            tag(allBenchmarks[i]), ft[Phase::Broadphase].total(),
            ft[Phase::Narrowphase].total(),
            ft[Phase::IslandCreation].total(),
            ft[Phase::IslandProcessing].total(),
            ft[Phase::Cloth].total(), total, 1.0 / total,
            total / frameBudgetSeconds());
    }

    // Serial-fraction observation (section 6): serial phases are a
    // small share of total time but can exceed one frame's budget.
    std::printf("\nSerial (Broadphase + Island Creation) share:\n");
    double serial_share_sum = 0;
    double worst_serial_frames = 0;
    for (int i = 0; i < numBenchmarks; ++i) {
        const FrameTime &ft = fts[i];
        const double share = ft.serial() / ft.total();
        serial_share_sum += share;
        worst_serial_frames = std::max(
            worst_serial_frames, ft.serial() / frameBudgetSeconds());
        std::printf("  %-4s serial=%5.1f%%  (%.2f frame budgets)\n",
                    tag(allBenchmarks[i]), 100.0 * share,
                    ft.serial() / frameBudgetSeconds());
    }
    std::printf("  average serial share: %.1f%% (paper: ~9%%)\n",
                100.0 * serial_share_sum / numBenchmarks);
    std::printf("  worst serial time: %.2f frame budgets "
                "(paper: up to 1.25)\n",
                worst_serial_frames);

    FrameTime mix;
    for (int i = 0; i < numBenchmarks; ++i) {
        if (allBenchmarks[i] == BenchmarkId::Mix)
            mix = fts[i];
    }
    std::printf("\nHeadline: Mix on one desktop core = %.2f FPS "
                "(paper: ~2.3 FPS)\n",
                1.0 / mix.total());
    return 0;
}
