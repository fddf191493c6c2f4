/**
 * @file
 * Cross-module property tests: invariants of the timing models,
 * caches, interconnect and solver that must hold for any input.
 */

#include <gtest/gtest.h>

#include "cpu/cg_timing.hh"
#include "cpu/ooo_core.hh"
#include "isa/assembler.hh"
#include "mem/cache.hh"
#include "noc/interconnect.hh"
#include "physics/world.hh"
#include "sim/rng.hh"

namespace parallax
{
namespace
{

// --- OoO core invariants over random straight-line programs. ---

class OooCoreProperty : public ::testing::TestWithParam<int>
{
  protected:
    /** Random straight-line program (no control flow). */
    static std::string
    randomProgram(Rng &rng, int length)
    {
        std::string src;
        for (int i = 0; i < length; ++i) {
            switch (rng.below(6)) {
              case 0:
                src += "    addi r" +
                       std::to_string(1 + rng.below(30)) + ", r" +
                       std::to_string(rng.below(31)) + ", " +
                       std::to_string(rng.range(-64, 64)) + "\n";
                break;
              case 1:
                src += "    fadd f" + std::to_string(rng.below(32)) +
                       ", f" + std::to_string(rng.below(32)) +
                       ", f" + std::to_string(rng.below(32)) + "\n";
                break;
              case 2:
                src += "    fmul f" + std::to_string(rng.below(32)) +
                       ", f" + std::to_string(rng.below(32)) +
                       ", f" + std::to_string(rng.below(32)) + "\n";
                break;
              case 3:
                src += "    lw   r" +
                       std::to_string(1 + rng.below(30)) + ", " +
                       std::to_string(rng.below(64) * 8) + "(r0)\n";
                break;
              case 4:
                src += "    sw   r" +
                       std::to_string(1 + rng.below(30)) + ", " +
                       std::to_string(rng.below(64) * 8) + "(r0)\n";
                break;
              default:
                src += "    fsqrt f" +
                       std::to_string(rng.below(32)) + ", f" +
                       std::to_string(rng.below(32)) + "\n";
                break;
            }
        }
        src += "    halt\n";
        return src;
    }
};

TEST_P(OooCoreProperty, CyclesBoundedByWidthAndLatency)
{
    Rng rng(GetParam());
    const Program p = assemble(randomProgram(rng, 400));
    for (const CoreConfig &config :
         {CoreConfig::desktop(), CoreConfig::console(),
          CoreConfig::shader(), CoreConfig::limit()}) {
        Machine m;
        OooCore core(config);
        const CoreRunResult r = core.run(p, m);
        // IPC can never exceed the machine width.
        EXPECT_LE(r.ipc(), config.width + 1e-9) << config.name;
        // Cycles at least instructions / width.
        EXPECT_GE(r.cycles * static_cast<std::uint64_t>(
                                 config.width) +
                      config.width,
                  r.instructions)
            << config.name;
        // And every instruction executed.
        EXPECT_EQ(r.instructions, p.size());
    }
}

TEST_P(OooCoreProperty, WiderConfigsNeverSlower)
{
    // The limit core dominates desktop dominates console dominates
    // shader on any straight-line program.
    Rng rng(1000 + GetParam());
    const Program p = assemble(randomProgram(rng, 300));
    auto cycles = [&](const CoreConfig &config) {
        Machine m;
        OooCore core(config);
        return core.run(p, m).cycles;
    };
    const auto limit = cycles(CoreConfig::limit());
    const auto desktop = cycles(CoreConfig::desktop());
    const auto console = cycles(CoreConfig::console());
    const auto shader = cycles(CoreConfig::shader());
    EXPECT_LE(limit, desktop + 14); // Equal-depth refill slack.
    EXPECT_LE(desktop, console + 2);
    EXPECT_LE(console, shader + 4);
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, OooCoreProperty,
                         ::testing::Range(1, 9));

// --- Cache invariants over random address streams. ---

class CacheProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(CacheProperty, MissesMonotonicInSize)
{
    Rng rng(GetParam());
    // A mix of hot and cold addresses with reuse.
    std::vector<std::uint64_t> stream;
    for (int i = 0; i < 20000; ++i) {
        const bool hot = rng.chance(0.6);
        const std::uint64_t addr = hot
            ? rng.below(512) * 64
            : rng.below(1 << 16) * 64;
        stream.push_back(addr);
    }
    std::uint64_t prev_misses = ~0ull;
    for (std::uint64_t kb : {16, 64, 256, 1024}) {
        Cache cache(CacheConfig{kb << 10, 8, 64});
        for (std::uint64_t addr : stream)
            cache.access(addr, false);
        EXPECT_LE(cache.stats().misses, prev_misses)
            << kb << "KB";
        prev_misses = cache.stats().misses;
    }
}

TEST_P(CacheProperty, HigherAssociativityNeverWorseOnSameSize)
{
    // With LRU and this stream class, added ways only remove
    // conflicts.
    Rng rng(100 + GetParam());
    std::vector<std::uint64_t> stream;
    for (int i = 0; i < 20000; ++i)
        stream.push_back(rng.below(4096) * 64 * 17); // Strided.
    std::uint64_t direct = 0, assoc = 0;
    {
        Cache cache(CacheConfig{256 << 10, 1, 64});
        for (auto a : stream)
            cache.access(a, false);
        direct = cache.stats().misses;
    }
    {
        Cache cache(CacheConfig{256 << 10, 16, 64});
        for (auto a : stream)
            cache.access(a, false);
        assoc = cache.stats().misses;
    }
    EXPECT_LE(assoc, direct + direct / 10);
}

TEST_P(CacheProperty, StatsAlwaysConsistent)
{
    Rng rng(200 + GetParam());
    Cache cache(CacheConfig{32 << 10, 4, 64});
    for (int i = 0; i < 5000; ++i)
        cache.access(rng.below(4096) * 64, rng.chance(0.3),
                     rng.chance(0.1));
    const CacheStats &s = cache.stats();
    EXPECT_EQ(s.hits + s.misses, s.accesses);
    EXPECT_EQ(s.kernelMisses + s.userMisses, s.misses);
    EXPECT_LE(s.compulsoryMisses, s.misses);
    EXPECT_LE(cache.residentLines(),
              (32u << 10) / 64);
}

INSTANTIATE_TEST_SUITE_P(RandomStreams, CacheProperty,
                         ::testing::Range(1, 7));

// --- Mesh invariants. ---

TEST(MeshProperty, HopsMetricAxioms)
{
    const MeshModel mesh(49);
    Rng rng(5);
    for (int trial = 0; trial < 200; ++trial) {
        const int a = static_cast<int>(rng.below(49));
        const int b = static_cast<int>(rng.below(49));
        const int c = static_cast<int>(rng.below(49));
        EXPECT_EQ(mesh.hops(a, a), 0);
        EXPECT_EQ(mesh.hops(a, b), mesh.hops(b, a));
        EXPECT_LE(mesh.hops(a, c),
                  mesh.hops(a, b) + mesh.hops(b, c));
    }
}

TEST(MeshProperty, LatencyMonotonicInPayload)
{
    const MeshModel mesh(64);
    Tick prev = 0;
    for (std::uint64_t bytes : {8, 64, 256, 1024, 4096}) {
        const Tick lat = mesh.packetLatency(5, bytes);
        EXPECT_GE(lat, prev);
        prev = lat;
    }
}

// --- Makespan invariants. ---

TEST(MakespanProperty, Bounds)
{
    Rng rng(9);
    for (int trial = 0; trial < 100; ++trial) {
        std::vector<double> weights;
        double total = 0, largest = 0;
        const int n = 1 + static_cast<int>(rng.below(40));
        for (int i = 0; i < n; ++i) {
            const double w = rng.uniform(0.1, 10.0);
            weights.push_back(w);
            total += w;
            largest = std::max(largest, w);
        }
        const unsigned threads =
            1 + static_cast<unsigned>(rng.below(8));
        const double frac =
            CgTimingModel::makespan(weights, threads);
        EXPECT_LE(frac, 1.0 + 1e-12);
        EXPECT_GE(frac + 1e-12, largest / total);
        EXPECT_GE(frac + 1e-12, 1.0 / threads);
        if (threads == 1)
            EXPECT_NEAR(frac, 1.0, 1e-12);
    }
}

// --- Engine: warm-started stacks stay quiet. ---

TEST(WarmStartProperty, SettledWallHasLowJitter)
{
    WorldConfig config;
    config.defaultMaterial.restitution = 0.0;
    World world(config);
    const PlaneShape *p = world.addPlane({0, 1, 0}, 0.0);
    world.createGeom(p, world.createStaticBody(Transform()));
    const BoxShape *box = world.addBox({0.5, 0.25, 0.25});
    for (int i = 0; i < 32; ++i) {
        RigidBody *b = world.createDynamicBody(
            Transform(Quat(), {(i % 8) * 1.001,
                               0.25 + (i / 8) * 0.5, 0}),
            *box, 100.0);
        world.createGeom(box, b);
    }
    for (int i = 0; i < 120; ++i)
        world.step();
    // Residual jitter is bounded by the Baumgarte bias scale
    // (~g*dt); the structural assertion is that nothing slides,
    // pops, or collapses.
    for (const auto &b : world.bodies()) {
        if (b->isStatic())
            continue;
        EXPECT_LT(b->linearVelocity().length(), 0.15);
        EXPECT_GT(b->position().y, 0.1);
        EXPECT_LT(b->position().y, 2.5);
        EXPECT_LT(std::fabs(b->position().z), 0.3);
    }
}

TEST(WorldStats, FillStatsExportsCounters)
{
    World world;
    const SphereShape *s = world.addSphere(0.5);
    const PlaneShape *p = world.addPlane({0, 1, 0}, 0.0);
    world.createGeom(p, world.createStaticBody(Transform()));
    RigidBody *ball = world.createDynamicBody(
        Transform(Quat(), {0, 0.4, 0}), *s, 1.0);
    world.createGeom(s, ball);
    world.step();

    const StepStats &stats = world.lastStepStats();
    EXPECT_EQ(stats.pairsFound, 1u);
    EXPECT_EQ(stats.solver.rowsBuilt, 3u);
}

} // namespace
} // namespace parallax
