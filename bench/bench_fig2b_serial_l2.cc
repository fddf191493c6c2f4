/**
 * @file
 * Figure 2(b): single-core execution time of the serial phases
 * (Broadphase + Island Creation) as the shared L2 scales from 1 MB
 * to 32 MB. The parallel phases' data evicts the serial working
 * sets between steps, which is why a shared L2 needs to be so large
 * (section 6.1).
 */

#include "harness.hh"

using namespace parallax;
using namespace parallax::bench;

int
main(int argc, char **argv)
{
    parseCommonFlags(&argc, argv);
    printHeader("Figure 2b: serial phases vs shared L2 size",
                "Figure 2(b), section 6.1");
    const int sizes[] = {1, 2, 4, 8, 16, 32};
    std::printf("%-4s", "id");
    for (int mb : sizes)
        std::printf(" %8dMB", mb);
    std::printf("   (serial seconds per frame)\n");

    // One row per benchmark, formatted on the --jobs threads and
    // printed in table order.
    std::vector<std::string> rows(numBenchmarks);
    runSweep(numBenchmarks, [&rows, &sizes](std::size_t i) {
        const BenchmarkId id = allBenchmarks[i];
        const MeasuredRun &run = measuredRun(id);
        appendf(rows[i], "%-4s", tag(id));
        for (int mb : sizes) {
            const FrameTime ft =
                frameTime(run, L2Plan::shared(mb), 1);
            appendf(rows[i], " %10.5f", ft.serial());
        }
        appendf(rows[i], "\n");
    });
    for (const std::string &row : rows)
        std::fputs(row.c_str(), stdout);
    std::printf("\nFrame budget: %.5f s. The paper finds 4 MB is\n"
                "needed to finish the serial phases within one "
                "frame,\nwith diminishing returns past 16 MB.\n",
                frameBudgetSeconds());
    return 0;
}
