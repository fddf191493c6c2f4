/**
 * @file
 * Figure 7(b): instruction mix of the five computational phases,
 * aggregated across the benchmark suite. The serial phases and
 * Narrowphase are integer dominant with many branches; Island
 * Processing and Cloth are FP dominant.
 */

#include "harness.hh"

using namespace parallax;
using namespace parallax::bench;

int
main(int argc, char **argv)
{
    parseCommonFlags(&argc, argv);
    printHeader("Figure 7b: per-phase instruction mix",
                "Figure 7(b), section 6");
    // Measure the benchmarks on the --jobs threads, but fold the
    // profiles serially in suite order: the += below is a
    // floating-point reduction, and only a fixed fold order keeps
    // the output byte-identical (docs/SIMULATOR.md).
    runSweep(numBenchmarks, [](std::size_t i) {
        measuredRun(allBenchmarks[i]);
    });
    StepProfile sum;
    for (BenchmarkId id : allBenchmarks)
        sum += measuredRun(id).worstFrameProfile();

    std::printf("%-18s", "phase");
    for (int c = 0; c < numOpClasses; ++c)
        std::printf(" %10s", opClassName(static_cast<OpClass>(c)));
    std::printf("\n");
    for (int p = 0; p < numPhases; ++p) {
        const Phase phase = static_cast<Phase>(p);
        const OpVector &ops = sum.ops(phase);
        std::printf("%-18s", phaseName(phase));
        for (int c = 0; c < numOpClasses; ++c) {
            std::printf(" %9.1f%%",
                        100.0 *
                            ops.fraction(static_cast<OpClass>(c)));
        }
        std::printf("\n");
    }
    std::printf("\nPaper shape: serial phases + Narrowphase are "
                "integer/branch heavy;\nIsland Processing and Cloth "
                "are FP dominant.\n");
    return 0;
}
