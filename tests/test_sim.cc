/**
 * @file
 * Tests for the simulation support library: RNG, stats, ticks.
 */

#include <gtest/gtest.h>

#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

namespace parallax
{
namespace
{

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        const double v = rng.uniform(-3.0, 5.0);
        EXPECT_GE(v, -3.0);
        EXPECT_LT(v, 5.0);
    }
}

TEST(Rng, UniformMeanIsCentered)
{
    Rng rng(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowAndRange)
{
    Rng rng(3);
    EXPECT_EQ(rng.below(0), 0u);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.below(10), 10u);
        const auto r = rng.range(-5, 5);
        EXPECT_GE(r, -5);
        EXPECT_LE(r, 5);
    }
    EXPECT_EQ(rng.range(7, 7), 7);
    EXPECT_EQ(rng.range(7, 3), 7); // Degenerate bounds clamp to lo.
}

TEST(Rng, GaussianMoments)
{
    Rng rng(19);
    double sum = 0, sum2 = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sum2 += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Distribution, WelfordStatistics)
{
    Distribution d;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 8u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 9.0);
    EXPECT_DOUBLE_EQ(d.total(), 40.0);
    EXPECT_NEAR(d.variance(), 32.0 / 7.0, 1e-12);
}

TEST(Distribution, EmptyIsZero)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.variance(), 0.0);
}

TEST(StatGroup, CountersAccumulateAndReset)
{
    StatGroup group("test");
    Counter &c = group.counter("hits");
    c += 3;
    ++c;
    EXPECT_DOUBLE_EQ(c.value(), 4.0);
    // Same name returns the same counter.
    EXPECT_DOUBLE_EQ(group.counter("hits").value(), 4.0);
    group.reset();
    EXPECT_DOUBLE_EQ(c.value(), 0.0);
}

TEST(Ticks, FrameBudget)
{
    EXPECT_NEAR(frameBudgetSeconds(), 1.0 / 30.0, 1e-12);
    // 2 GHz, 30 FPS: ~66.7M cycles per frame.
    EXPECT_NEAR(static_cast<double>(frameBudgetCycles()), 6.6667e7,
                1e4);
    EXPECT_NEAR(cyclesToSeconds(secondsToCycles(0.25)), 0.25, 1e-9);
}

} // namespace
} // namespace parallax
