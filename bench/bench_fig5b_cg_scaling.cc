/**
 * @file
 * Figure 5(b): coarse-grain processor scaling at 1, 2, and 4 cores
 * with the paper's 12 MB partitioned L2 (4 MB Broadphase + 4 MB
 * Island Creation + 4 MB parallel). Reports the scaling gains the
 * paper cites: +53% from 1 to 2 cores and +29% from 2 to 4 on
 * average.
 */

#include "harness.hh"

using namespace parallax;
using namespace parallax::bench;

int
main(int argc, char **argv)
{
    parseCommonFlags(&argc, argv);
    printHeader("Figure 5b: CG core scaling (12 MB partitioned L2)",
                "Figure 5(b), section 6.2");
    std::printf("%-4s %10s %10s %10s %10s | %7s %7s %7s\n", "id",
                "1P(s)", "2P(s)", "4P(s)", "8P(s)", "1->2", "2->4",
                "4->8");
    // Every (benchmark, thread-count) cell is an independent sweep
    // point: 32 of them fan out over the --jobs threads.
    const unsigned threads[4] = {1, 2, 4, 8};
    std::vector<std::array<double, 4>> totals(numBenchmarks);
    runSweep(numBenchmarks * 4, [&totals, &threads](std::size_t p) {
        const std::size_t i = p / 4;
        const int t = static_cast<int>(p % 4);
        const MeasuredRun &run = measuredRun(allBenchmarks[i], [&] {
            MeasureOptions opt;
            opt.threads = threads[t];
            return opt;
        }());
        totals[i][t] =
            frameTime(run, L2Plan::paperPartitioned(), threads[t])
                .total();
    });
    double gain12 = 0, gain24 = 0, gain48 = 0;
    for (int i = 0; i < numBenchmarks; ++i) {
        const BenchmarkId id = allBenchmarks[i];
        const std::array<double, 4> &total = totals[i];
        const double g12 = total[0] / total[1] - 1.0;
        const double g24 = total[1] / total[2] - 1.0;
        const double g48 = total[2] / total[3] - 1.0;
        gain12 += g12;
        gain24 += g24;
        gain48 += g48;
        std::printf("%-4s %10.4f %10.4f %10.4f %10.4f | %6.1f%% "
                    "%6.1f%% %6.1f%%\n",
                    tag(id), total[0], total[1], total[2], total[3],
                    100.0 * g12, 100.0 * g24, 100.0 * g48);
    }
    std::printf("\naverage gains: 1->2 cores %.1f%% (paper 53%%), "
                "2->4 cores %.1f%% (paper 29%%),\n4->8 cores %.1f%% "
                "(paper: performance starts to degrade at eight "
                "cores\ndue to the 5x L2 miss increase from kernel "
                "memory growth)\n",
                100.0 * gain12 / numBenchmarks,
                100.0 * gain24 / numBenchmarks,
                100.0 * gain48 / numBenchmarks);
    return 0;
}
