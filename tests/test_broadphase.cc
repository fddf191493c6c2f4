/**
 * @file
 * Tests for the sweep-and-prune broadphase.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "physics/broadphase/broadphase.hh"
#include "physics/shapes/primitives.hh"
#include "physics/shapes/static_shapes.hh"
#include "sim/rng.hh"
#include "workload/benchmarks.hh"

namespace parallax
{
namespace
{

/** Small owning world-less fixture for broadphase inputs. */
class BroadphaseFixture : public ::testing::Test
{
  protected:
    Geom *
    addSphereGeom(const Vec3 &pos, Real radius, bool is_static = false)
    {
        shapes_.push_back(std::make_unique<SphereShape>(radius));
        const auto body_id = static_cast<BodyId>(bodies_.size());
        if (is_static) {
            bodies_.push_back(std::make_unique<RigidBody>(
                RigidBody::makeStatic(body_id,
                                      Transform(Quat(), pos))));
        } else {
            bodies_.push_back(std::make_unique<RigidBody>(
                body_id, Transform(Quat(), pos), 1.0,
                Mat3::identity()));
        }
        const auto geom_id = static_cast<GeomId>(geoms_.size());
        geoms_.push_back(std::make_unique<Geom>(
            geom_id, shapes_.back().get(), bodies_.back().get()));
        return geoms_.back().get();
    }

    Geom *
    addBoxGeom(const Vec3 &pos, const Vec3 &half)
    {
        shapes_.push_back(std::make_unique<BoxShape>(half));
        const auto body_id = static_cast<BodyId>(bodies_.size());
        bodies_.push_back(std::make_unique<RigidBody>(
            body_id, Transform(Quat(), pos), 1.0, Mat3::identity()));
        const auto geom_id = static_cast<GeomId>(geoms_.size());
        geoms_.push_back(std::make_unique<Geom>(
            geom_id, shapes_.back().get(), bodies_.back().get()));
        return geoms_.back().get();
    }

    Geom *
    addPlaneGeom()
    {
        shapes_.push_back(
            std::make_unique<PlaneShape>(Vec3{0, 1, 0}, 0.0));
        const auto body_id = static_cast<BodyId>(bodies_.size());
        bodies_.push_back(std::make_unique<RigidBody>(
            RigidBody::makeStatic(body_id, Transform())));
        const auto geom_id = static_cast<GeomId>(geoms_.size());
        geoms_.push_back(std::make_unique<Geom>(
            geom_id, shapes_.back().get(), bodies_.back().get()));
        return geoms_.back().get();
    }

    std::vector<Geom *>
    geomPtrs()
    {
        std::vector<Geom *> out;
        for (auto &g : geoms_) {
            g->updateBounds();
            out.push_back(g.get());
        }
        return out;
    }

    std::vector<std::unique_ptr<Shape>> shapes_;
    std::vector<std::unique_ptr<RigidBody>> bodies_;
    std::vector<std::unique_ptr<Geom>> geoms_;
};

using SweepAndPruneTest = BroadphaseFixture;

/**
 * Brute-force oracle: every geom pair whose AABBs overlap and that
 * the broadphase contract keeps (both enabled, not on one body, not
 * two blast volumes, and at least one side movable unless a blast
 * volume is involved), canonical and sorted. All pairs, no sweep:
 * independent of the structure under test.
 */
std::vector<GeomPair>
bruteForcePairs(const std::vector<Geom *> &geoms)
{
    auto is_static = [](const Geom &g) {
        return g.body() == nullptr || g.body()->isStatic();
    };
    std::vector<GeomPair> pairs;
    for (std::size_t i = 0; i < geoms.size(); ++i) {
        for (std::size_t j = i + 1; j < geoms.size(); ++j) {
            const Geom &a = *geoms[i];
            const Geom &b = *geoms[j];
            if (!a.enabled() || !b.enabled())
                continue;
            if (a.body() != nullptr && a.body() == b.body())
                continue;
            const bool skip = a.isBlast() || b.isBlast()
                                  ? a.isBlast() && b.isBlast()
                                  : is_static(a) && is_static(b);
            if (skip || !a.bounds().overlaps(b.bounds()))
                continue;
            pairs.push_back({std::min(a.id(), b.id()),
                             std::max(a.id(), b.id())});
        }
    }
    std::sort(pairs.begin(), pairs.end(),
              [](const GeomPair &x, const GeomPair &y) {
                  return x.a != y.a ? x.a < y.a : x.b < y.b;
              });
    return pairs;
}

TEST_F(SweepAndPruneTest, FindsOverlappingPair)
{
    addSphereGeom({0, 0, 0}, 1.0);
    addSphereGeom({1.5, 0, 0}, 1.0);
    SweepAndPrune bp;
    const auto pairs = bp.findPairs(geomPtrs());
    ASSERT_EQ(pairs.size(), 1u);
    EXPECT_EQ(pairs[0].a, 0u);
    EXPECT_EQ(pairs[0].b, 1u);
}

TEST_F(SweepAndPruneTest, CullsDistantPair)
{
    addSphereGeom({0, 0, 0}, 1.0);
    addSphereGeom({10, 0, 0}, 1.0);
    SweepAndPrune bp;
    EXPECT_TRUE(bp.findPairs(geomPtrs()).empty());
}

TEST_F(SweepAndPruneTest, CullsYZSeparatedPair)
{
    // X-overlapping but separated in Y.
    addSphereGeom({0, 0, 0}, 1.0);
    addSphereGeom({0, 10, 0}, 1.0);
    SweepAndPrune bp;
    EXPECT_TRUE(bp.findPairs(geomPtrs()).empty());
}

TEST_F(SweepAndPruneTest, StaticStaticFiltered)
{
    addSphereGeom({0, 0, 0}, 1.0, true);
    addSphereGeom({1.0, 0, 0}, 1.0, true);
    SweepAndPrune bp;
    EXPECT_TRUE(bp.findPairs(geomPtrs()).empty());
}

TEST_F(SweepAndPruneTest, DisabledBodiesFiltered)
{
    Geom *a = addSphereGeom({0, 0, 0}, 1.0);
    addSphereGeom({1.0, 0, 0}, 1.0);
    a->body()->setEnabled(false);
    SweepAndPrune bp;
    EXPECT_TRUE(bp.findPairs(geomPtrs()).empty());
}

TEST_F(SweepAndPruneTest, SameBodyGeomsFiltered)
{
    Geom *a = addSphereGeom({0, 0, 0}, 1.0);
    // Second geom attached to the same body, overlapping it.
    shapes_.push_back(std::make_unique<SphereShape>(1.0));
    geoms_.push_back(std::make_unique<Geom>(
        static_cast<GeomId>(geoms_.size()), shapes_.back().get(),
        a->body()));
    SweepAndPrune bp;
    EXPECT_TRUE(bp.findPairs(geomPtrs()).empty());
}

TEST_F(SweepAndPruneTest, PlanePairsWithAllDynamic)
{
    addPlaneGeom();
    addSphereGeom({0, 0, 0}, 1.0);
    addSphereGeom({100, 50, -30}, 1.0);
    addSphereGeom({5, 5, 5}, 1.0, true); // Static: filtered vs plane.
    SweepAndPrune bp;
    const auto pairs = bp.findPairs(geomPtrs());
    EXPECT_EQ(pairs.size(), 2u);
}

TEST_F(SweepAndPruneTest, BlastPairsWithStatic)
{
    Geom *blast = addSphereGeom({0, 0, 0}, 4.0, true);
    blast->setBlast(true);
    addSphereGeom({1, 0, 0}, 1.0, true); // Static wall piece.
    SweepAndPrune bp;
    EXPECT_EQ(bp.findPairs(geomPtrs()).size(), 1u);
}

TEST_F(SweepAndPruneTest, BlastBlastFiltered)
{
    Geom *b1 = addSphereGeom({0, 0, 0}, 4.0, true);
    Geom *b2 = addSphereGeom({1, 0, 0}, 4.0, true);
    b1->setBlast(true);
    b2->setBlast(true);
    SweepAndPrune bp;
    EXPECT_TRUE(bp.findPairs(geomPtrs()).empty());
}

TEST_F(SweepAndPruneTest, PairsAreCanonicalAndSorted)
{
    Rng rng(101);
    for (int i = 0; i < 40; ++i) {
        addSphereGeom({rng.uniform(-5, 5), rng.uniform(-5, 5),
                       rng.uniform(-5, 5)},
                      1.0);
    }
    SweepAndPrune bp;
    const auto pairs = bp.findPairs(geomPtrs());
    for (size_t i = 0; i < pairs.size(); ++i) {
        EXPECT_LT(pairs[i].a, pairs[i].b);
        if (i > 0) {
            EXPECT_TRUE(pairs[i - 1].a < pairs[i].a ||
                        (pairs[i - 1].a == pairs[i].a &&
                         pairs[i - 1].b < pairs[i].b));
        }
    }
}

TEST_F(SweepAndPruneTest, StatsPopulated)
{
    addSphereGeom({0, 0, 0}, 1.0);
    addSphereGeom({1, 0, 0}, 1.0);
    SweepAndPrune bp;
    bp.findPairs(geomPtrs());
    EXPECT_EQ(bp.stats().geomsConsidered, 2u);
    EXPECT_EQ(bp.stats().pairsFound, 1u);
    EXPECT_GE(bp.stats().overlapTests, 1u);
    bp.resetStats();
    EXPECT_EQ(bp.stats().pairsFound, 0u);
}

/** Sweep chunks the broadphase tiles `bounded` geoms into. */
std::size_t
sweepChunks(const TaskScheduler &scheduler, std::size_t bounded)
{
    return scheduler.tilingByCost(bounded, SweepAndPrune::sweepNsPerGeom)
        .chunks;
}

// Property test: the broadphase finds exactly the brute-force set of
// overlapping eligible pairs, across random scenes, at every worker
// count: the same pair vector, order included, and the same number
// of overlap tests as the single-lane sweep.
class BroadphaseAgreement
    : public BroadphaseFixture,
      public ::testing::WithParamInterface<int>
{
};

TEST_P(BroadphaseAgreement, MatchesBruteForce)
{
    Rng rng(GetParam());
    const int n = 600 + static_cast<int>(rng.below(400));
    for (int i = 0; i < n; ++i) {
        addSphereGeom({rng.uniform(-10, 10), rng.uniform(-10, 10),
                       rng.uniform(-10, 10)},
                      rng.uniform(0.3, 1.5), rng.chance(0.2));
    }
    // One box across most of the x axis: the chunk holding its axis
    // position scans far past its own end.
    addBoxGeom({rng.uniform(-1, 1), rng.uniform(-5, 5), 0},
               {9.0, 0.5, 0.5});
    const auto geoms = geomPtrs();
    const std::vector<GeomPair> oracle = bruteForcePairs(geoms);
    SweepAndPrune serial;
    EXPECT_EQ(serial.findPairs(geoms), oracle);

    for (unsigned workers : {0u, 2u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        TaskScheduler scheduler(SchedulerConfig{workers});
        ASSERT_GE(sweepChunks(scheduler, geoms.size()), 2u);
        SweepAndPrune sap;
        std::vector<GeomPair> pairs;
        sap.findPairsInto(geoms, scheduler, pairs);
        EXPECT_EQ(pairs, oracle);
        EXPECT_EQ(sap.stats().overlapTests, serial.stats().overlapTests);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomScenes, BroadphaseAgreement,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST_F(SweepAndPruneTest, IncrementalAxisMatchesRebuild)
{
    // Temporal coherence: after small motion the persistent axis is
    // repaired in place, and the pair set must equal what a fresh
    // broadphase (full rebuild) computes.
    Rng rng(42);
    for (int i = 0; i < 40; ++i) {
        addSphereGeom({rng.uniform(-10, 10), rng.uniform(-10, 10),
                       rng.uniform(-10, 10)},
                      rng.uniform(0.3, 1.2));
    }
    SweepAndPrune incremental;
    incremental.findPairs(geomPtrs());

    for (int step = 0; step < 5; ++step) {
        for (auto &b : bodies_) {
            const Vec3 p = b->pose().position;
            b->setPose(Transform(
                Quat(), {p.x + rng.uniform(-0.2, 0.2),
                         p.y + rng.uniform(-0.2, 0.2),
                         p.z + rng.uniform(-0.2, 0.2)}));
        }
        const auto geoms = geomPtrs();
        const auto warm = incremental.findPairs(geoms);
        SweepAndPrune fresh;
        const auto cold = fresh.findPairs(geoms);
        ASSERT_EQ(warm.size(), cold.size());
        for (std::size_t i = 0; i < warm.size(); ++i) {
            EXPECT_EQ(warm[i].a, cold[i].a);
            EXPECT_EQ(warm[i].b, cold[i].b);
        }
    }
}

TEST_F(SweepAndPruneTest, MembershipChangeTriggersRebuild)
{
    addSphereGeom({0, 0, 0}, 1.0);
    addSphereGeom({5, 0, 0}, 1.0);
    SweepAndPrune bp;
    EXPECT_TRUE(bp.findPairs(geomPtrs()).empty());
    // A geom spawned between steps must be picked up by the
    // persistent axis.
    addSphereGeom({0.5, 0, 0}, 1.0);
    EXPECT_EQ(bp.findPairs(geomPtrs()).size(), 1u);
    // And a disabled geom must drop out.
    bodies_[2]->setEnabled(false);
    EXPECT_TRUE(bp.findPairs(geomPtrs()).empty());
}

// The same oracle on every benchmark scene, step by step as motion
// develops: planes, blast volumes, disabled debris and multi-geom
// bodies go through the eligibility rules, and the persistent axis
// goes through its incremental repair. Each worker count must give
// the single-lane pair vector and overlap-test count exactly.
class BroadphaseSceneParity
    : public ::testing::TestWithParam<int>
{
};

TEST_P(BroadphaseSceneParity, SapMatchesBruteForce)
{
    const BenchmarkId id = allBenchmarks[GetParam()];
    for (unsigned workers : {0u, 2u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        WorldConfig config;
        config.workerThreads = workers;
        auto world = buildBenchmark(id, config, 0.12);

        // A small chunk target (sixteen geoms a chunk) tiles even the
        // smallest scene into several sweep chunks.
        SchedulerConfig tiny_chunks{workers};
        tiny_chunks.targetChunkNanos =
            16 * SweepAndPrune::sweepNsPerGeom;
        TaskScheduler scheduler(tiny_chunks);
        SweepAndPrune serial;
        SweepAndPrune sap;
        std::vector<GeomPair> pairs;
        std::size_t pairs_seen = 0;
        for (int i = 0; i < 10; ++i) {
            world->step();
            std::vector<Geom *> geoms;
            std::size_t bounded = 0;
            for (const auto &g : world->geoms()) {
                g->updateBounds();
                geoms.push_back(g.get());
                bounded += g->enabled() &&
                           g->shape().type() != ShapeType::Plane;
            }
            ASSERT_GE(sweepChunks(scheduler, bounded), 2u);
            sap.findPairsInto(geoms, scheduler, pairs);
            ASSERT_EQ(pairs, bruteForcePairs(geoms))
                << benchmarkInfo(id).shortName << " step " << i;
            ASSERT_EQ(pairs, serial.findPairs(geoms))
                << benchmarkInfo(id).shortName << " step " << i;
            ASSERT_EQ(sap.stats().overlapTests,
                      serial.stats().overlapTests)
                << benchmarkInfo(id).shortName << " step " << i;
            pairs_seen += pairs.size();
        }
        EXPECT_GT(pairs_seen, 0u) << benchmarkInfo(id).shortName;
    }
}

INSTANTIATE_TEST_SUITE_P(AllScenes, BroadphaseSceneParity,
                         ::testing::Range(0, numBenchmarks));

} // namespace
} // namespace parallax
