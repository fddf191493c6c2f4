/**
 * @file
 * Tests for the work-stealing task scheduler and the deterministic
 * parallel pipeline: stealing under unbalanced load, parallel_for
 * correctness against a serial reference, fixed tiling, and a
 * bitwise determinism sweep across worker counts.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <limits>
#include <vector>

#include "physics/debug/capture.hh"
#include "physics/parallel/task_scheduler.hh"
#include "physics/world.hh"
#include "workload/benchmarks.hh"

namespace parallax
{
namespace
{

/** Data-dependent spin so the optimizer can't drop the work. */
double
burn(std::size_t iters)
{
    volatile double acc = 1.0;
    for (std::size_t i = 0; i < iters; ++i)
        acc = acc * 1.0000001 + 0.5;
    return acc;
}

TEST(TaskScheduler, ParallelForMatchesSerialReference)
{
    const std::size_t n = 10007;
    std::vector<std::uint64_t> serial(n);
    for (std::size_t i = 0; i < n; ++i)
        serial[i] = i * i + 17;

    SchedulerConfig config;
    config.workerThreads = 4;
    config.grainSize = 8;
    TaskScheduler scheduler(config);
    std::vector<std::uint64_t> parallel(n, 0);
    scheduler.parallelFor(
        n, [&parallel](std::size_t begin, std::size_t end, unsigned) {
            for (std::size_t i = begin; i < end; ++i)
                parallel[i] = i * i + 17;
        });

    EXPECT_EQ(parallel, serial);
    // Every iteration ran exactly once (writes would only mask a
    // double-run; the item counter exposes it).
    EXPECT_EQ(scheduler.laneStats().size(), 5u);
    std::uint64_t items = 0;
    for (const LaneStats &lane : scheduler.laneStats())
        items += lane.itemsProcessed;
    EXPECT_EQ(items, n);
}

TEST(TaskScheduler, InlineModeRunsChunksInOrder)
{
    SchedulerConfig config;
    config.workerThreads = 0;
    config.grainSize = 10;
    config.deterministic = true;
    TaskScheduler scheduler(config);

    std::vector<std::size_t> begins;
    scheduler.parallelFor(
        35, [&begins](std::size_t begin, std::size_t end,
                      unsigned lane) {
            EXPECT_EQ(lane, 0u);
            EXPECT_LE(end - begin, 10u);
            begins.push_back(begin);
        });
    const std::vector<std::size_t> expected{0, 10, 20, 30};
    EXPECT_EQ(begins, expected);
}

TEST(TaskScheduler, DeterministicTilingIgnoresWorkerCount)
{
    for (unsigned workers : {0u, 1u, 3u, 7u}) {
        SchedulerConfig config;
        config.workerThreads = workers;
        config.grainSize = 16;
        config.deterministic = true;
        TaskScheduler scheduler(config);
        const TaskScheduler::Tiling tile = scheduler.tiling(1000);
        EXPECT_EQ(tile.grain, 16u);
        EXPECT_EQ(tile.chunks, 63u);
    }
}

TEST(TaskScheduler, UnbalancedLoadIsStolenByAllWorkers)
{
    // Thousands of tasks, heavily skewed: the first tasks (which the
    // calling lane reaches first) are ~50x the cost of the rest.
    // Every range a worker lane acquires starts as a steal (the
    // loop is seeded in lane 0's deque), so under this much work
    // every worker must both execute and steal. Repeat the loop
    // until that's observed to stay robust on loaded single-core
    // hosts.
    SchedulerConfig config;
    config.workerThreads = 3;
    config.grainSize = 1;
    TaskScheduler scheduler(config);
    const std::size_t tasks = 4000;

    bool all_stole = false;
    for (int round = 0; round < 50 && !all_stole; ++round) {
        std::atomic<std::uint64_t> ran{0};
        scheduler.parallelFor(
            tasks, 1,
            [&ran](std::size_t begin, std::size_t end, unsigned) {
                for (std::size_t i = begin; i < end; ++i) {
                    burn(i < 400 ? 5000 : 100);
                    ran.fetch_add(1, std::memory_order_relaxed);
                }
            });
        ASSERT_EQ(ran.load(), tasks);

        all_stole = true;
        const std::vector<LaneStats> lanes = scheduler.laneStats();
        for (std::size_t lane = 1; lane < lanes.size(); ++lane) {
            all_stole &= lanes[lane].rangesStolen > 0 &&
                         lanes[lane].chunksExecuted > 0;
        }
    }
    const std::vector<LaneStats> lanes = scheduler.laneStats();
    ASSERT_EQ(lanes.size(), 4u);
    for (std::size_t lane = 1; lane < lanes.size(); ++lane) {
        EXPECT_GT(lanes[lane].rangesStolen, 0u)
            << "worker lane " << lane << " never stole";
        EXPECT_GT(lanes[lane].chunksExecuted, 0u)
            << "worker lane " << lane << " never ran a chunk";
    }
    EXPECT_GT(scheduler.tasksExecuted(), 0u);
}

TEST(TaskScheduler, ManySmallLoopsComplete)
{
    // Epoch turnover: back-to-back loops must not lose chunks or
    // hang when workers from the previous loop are still parked.
    SchedulerConfig config;
    config.workerThreads = 2;
    config.grainSize = 4;
    TaskScheduler scheduler(config);
    for (int loop = 0; loop < 200; ++loop) {
        std::atomic<int> ran{0};
        scheduler.parallelFor(
            33, [&ran](std::size_t begin, std::size_t end, unsigned) {
                ran.fetch_add(static_cast<int>(end - begin),
                              std::memory_order_relaxed);
            });
        ASSERT_EQ(ran.load(), 33);
    }
    EXPECT_EQ(scheduler.loopsRun(), 200u);
}

/** Bitwise-comparable snapshot of all dynamic state in a world. */
std::vector<double>
worldState(const World &world)
{
    std::vector<double> state;
    for (const auto &body : world.bodies()) {
        const Vec3 &p = body->position();
        const Quat &q = body->orientation();
        const Vec3 &lv = body->linearVelocity();
        const Vec3 &av = body->angularVelocity();
        const double values[] = {p.x,  p.y,  p.z,  q.w,  q.x,
                                 q.y,  q.z,  lv.x, lv.y, lv.z,
                                 av.x, av.y, av.z};
        state.insert(state.end(), std::begin(values),
                     std::end(values));
    }
    for (const auto &cloth : world.cloths()) {
        for (const auto &particle : cloth->particles()) {
            state.push_back(particle.position.x);
            state.push_back(particle.position.y);
            state.push_back(particle.position.z);
        }
    }
    return state;
}

/** Step the Mix scene (all five phases active) at `workers`. */
std::vector<double>
runMixScene(unsigned workers)
{
    WorldConfig config;
    config.workerThreads = workers;
    config.deterministic = true;
    config.grainSize = 8;
    auto world = buildBenchmark(BenchmarkId::Mix, config, 0.12);
    for (int i = 0; i < 30; ++i)
        world->step();
    return worldState(*world);
}

TEST(Determinism, MixSceneBitwiseIdenticalAcrossWorkerCounts)
{
    const std::vector<double> base = runMixScene(0);
    ASSERT_FALSE(base.empty());
    for (unsigned workers : {1u, 2u, 8u}) {
        const std::vector<double> state = runMixScene(workers);
        ASSERT_EQ(state.size(), base.size());
        // Bitwise comparison: memcmp of the raw doubles, not an
        // epsilon test.
        EXPECT_EQ(std::memcmp(state.data(), base.data(),
                              base.size() * sizeof(double)),
                  0)
            << "state diverged at " << workers << " workers";
    }
}

TEST(Determinism, SameWorkerCountIsReproducible)
{
    const std::vector<double> a = runMixScene(2);
    const std::vector<double> b = runMixScene(2);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          a.size() * sizeof(double)),
              0);
}

TEST(WorldConfigValidate, AcceptsDefaults)
{
    EXPECT_TRUE(WorldConfig().validate().empty());
}

TEST(WorldConfigValidate, ReportsEveryProblem)
{
    WorldConfig config;
    config.dt = -0.01;
    config.solverIterations = -3;
    config.islandWorkQueueThreshold = -1;
    config.grainSize = 0;
    const std::vector<std::string> errors = config.validate();
    EXPECT_EQ(errors.size(), 4u);
    // Messages are human-readable: they name the field and value.
    bool mentions_dt = false;
    for (const std::string &e : errors)
        mentions_dt |= e.find("dt") != std::string::npos;
    EXPECT_TRUE(mentions_dt);
}

TEST(WorldConfigValidate, ConstructorRejectsInvalidConfig)
{
    WorldConfig config;
    config.solverIterations = -3;
    EXPECT_EXIT(World world(config),
                ::testing::ExitedWithCode(1),
                "solverIterations");
}

TEST(WorldConfigValidate, RejectsNonFiniteThresholds)
{
    // Regression: +inf sleep thresholds passed the bare `>= 0`
    // range check, and with autoDisable on they put every island to
    // sleep on its first calm step — a frozen scene with no error.
    WorldConfig config;
    config.dt = std::numeric_limits<Real>::infinity();
    config.sleepLinearVelocity =
        std::numeric_limits<Real>::infinity();
    config.sleepAngularVelocity =
        std::numeric_limits<Real>::quiet_NaN();
    config.sleepSteps = 0;
    const std::vector<std::string> errors = config.validate();
    EXPECT_EQ(errors.size(), 4u);
    for (const char *field :
         {"dt", "sleepLinearVelocity", "sleepAngularVelocity",
          "sleepSteps"}) {
        bool mentioned = false;
        for (const std::string &e : errors)
            mentioned |= e.find(field) != std::string::npos;
        EXPECT_TRUE(mentioned) << field << " not mentioned";
    }
}

TEST(Stats, PerLaneCountsCoverOneStepOnly)
{
    // Regression: the per-lane task distribution used to sample the
    // scheduler's *cumulative* lane counters, so the reported
    // "last step" distribution grew with run length (and reading
    // the live counters raced the workers). StepStats::laneTasks
    // holds per-step deltas merged after the phase barriers: they
    // must sum to exactly the step's task count, every step.
    WorldConfig config;
    config.workerThreads = 2;
    config.deterministic = true;
    auto world = buildBenchmark(BenchmarkId::Mix, config, 0.12);
    for (int i = 0; i < 10; ++i) {
        world->step();
        const StepStats &stats = world->lastStepStats();
        std::uint64_t chunks = 0, steals = 0;
        for (const LaneStats &lane : stats.laneTasks) {
            chunks += lane.chunksExecuted;
            steals += lane.rangesStolen;
        }
        EXPECT_EQ(chunks, stats.parTasksExecuted)
            << "step " << i << ": lane totals are not this step's";
        EXPECT_EQ(steals, stats.parTasksStolen) << "step " << i;
    }
}

TEST(TaskScheduler, AbsurdWorkerCountIsClampedToMaxWorkers)
{
    SchedulerConfig config;
    config.workerThreads = 500;
    TaskScheduler scheduler(config);
    EXPECT_EQ(scheduler.workerCount(), TaskScheduler::maxWorkers);
    EXPECT_EQ(scheduler.laneCount(), TaskScheduler::maxWorkers + 1);

    // The clamped pool still runs every iteration exactly once.
    std::vector<std::uint8_t> hit(5000, 0);
    scheduler.parallelFor(
        hit.size(),
        [&hit](std::size_t begin, std::size_t end, unsigned) {
            for (std::size_t i = begin; i < end; ++i)
                ++hit[i];
        });
    for (std::size_t i = 0; i < hit.size(); ++i)
        ASSERT_EQ(hit[i], 1) << "iteration " << i;
}

TEST(Determinism, OversubscribedWorkersStayBitwiseDeterministic)
{
    // 64 workers oversubscribes every CI machine this runs on (a
    // warning is expected on stderr); the run must still complete
    // and match the serial trajectory bitwise.
    const std::vector<double> base = runMixScene(0);
    ASSERT_FALSE(base.empty());
    const std::vector<double> oversubscribed = runMixScene(64);
    ASSERT_EQ(oversubscribed.size(), base.size());
    EXPECT_EQ(std::memcmp(oversubscribed.data(), base.data(),
                          base.size() * sizeof(double)),
              0)
        << "state diverged under 64-worker oversubscription";
}

TEST(Determinism, InjectedLaneStallsDoNotPerturbSimulation)
{
    // A StallLane fault models a slow or preempted core: it may only
    // perturb wall-clock timing, never simulation state.
    auto run = [](bool stalled) {
        WorldConfig config;
        config.workerThreads = 2;
        config.deterministic = true;
        config.grainSize = 8;
        if (stalled) {
            FaultEvent e;
            e.step = 5;
            e.kind = FaultKind::StallLane;
            e.target = 1;
            e.magnitude = 0.01;
            config.faultPlan.events = {e};
        }
        auto world = buildBenchmark(BenchmarkId::Mix, config, 0.12);
        for (int i = 0; i < 20; ++i)
            world->step();
        return worldState(*world);
    };
    const std::vector<double> clean = run(false);
    const std::vector<double> stalled = run(true);
    ASSERT_EQ(stalled.size(), clean.size());
    EXPECT_EQ(std::memcmp(stalled.data(), clean.data(),
                          clean.size() * sizeof(double)),
              0);
}

TEST(TaskScheduler, CostModelTilingIsLaneIndependent)
{
    // Adaptive grains come from counts and the cost estimate only —
    // never the worker count — so deterministic-mode chunk
    // boundaries cannot depend on how many lanes exist. The grain is
    // quantized to a power of two (the estimate must move 2x before
    // tiling shifts) and floored at minGrain.
    const ChunkCostModel cost(1000.0); // -> 50 raw, 32 quantized
    TaskScheduler::Tiling reference{};
    for (unsigned workers : {0u, 1u, 3u, 7u}) {
        SchedulerConfig config;
        config.workerThreads = workers;
        config.deterministic = true;
        TaskScheduler scheduler(config);
        const TaskScheduler::Tiling tile =
            scheduler.tiling(10000, 4, cost);
        EXPECT_EQ(tile.grain, 32u);
        if (workers == 0)
            reference = tile;
        EXPECT_EQ(tile.grain, reference.grain);
        EXPECT_EQ(tile.chunks, reference.chunks);
    }

    TaskScheduler scheduler(SchedulerConfig{});
    // Cheap items widen the grain; the floor still binds.
    EXPECT_EQ(scheduler.tiling(10000, 4, ChunkCostModel(10.0)).grain,
              4096u);
    EXPECT_EQ(scheduler.tiling(10000, 512, ChunkCostModel(50000.0))
                  .grain,
              512u);
    // A loop cheaper than one target chunk collapses to one chunk.
    EXPECT_EQ(scheduler.tiling(20, 1, ChunkCostModel(1000.0)).chunks,
              1u);
}

TEST(TaskScheduler, CostModelObservationMovesTheEstimate)
{
    ChunkCostModel cost(1000.0);
    EXPECT_DOUBLE_EQ(cost.committedNsPerItem(), 1000.0);
    // 100 items in 1 ms -> 10000 ns/item measured; EWMA moves part
    // of the way there and the committed seed stays put.
    cost.observe(100, 1e-3);
    EXPECT_GT(cost.nsPerItem(), 1000.0);
    EXPECT_LT(cost.nsPerItem(), 10000.0);
    EXPECT_DOUBLE_EQ(cost.committedNsPerItem(), 1000.0);
    // Degenerate observations are ignored.
    const double before = cost.nsPerItem();
    cost.observe(0, 1.0);
    cost.observe(100, -1.0);
    EXPECT_DOUBLE_EQ(cost.nsPerItem(), before);
}

TEST(TaskScheduler, NoStealsCountedWithoutWorkers)
{
    // tasks_stolen counts cross-lane steals only. With zero workers
    // every chunk runs inline on the calling lane, so the counter
    // must stay at exactly zero no matter how many loops run.
    SchedulerConfig config;
    config.workerThreads = 0;
    config.grainSize = 1;
    TaskScheduler scheduler(config);
    for (int loop = 0; loop < 20; ++loop) {
        std::atomic<int> ran{0};
        scheduler.parallelFor(
            257, [&ran](std::size_t begin, std::size_t end, unsigned) {
                ran.fetch_add(static_cast<int>(end - begin),
                              std::memory_order_relaxed);
            });
        ASSERT_EQ(ran.load(), 257);
    }
    EXPECT_EQ(scheduler.tasksStolen(), 0u);
    for (const LaneStats &lane : scheduler.laneStats())
        EXPECT_EQ(lane.rangesStolen, 0u);

    // Same invariant through the full world pipeline.
    WorldConfig wc;
    wc.workerThreads = 0;
    auto world = buildBenchmark(BenchmarkId::Mix, wc, 0.12);
    for (int i = 0; i < 5; ++i) {
        world->step();
        EXPECT_EQ(world->lastStepStats().parTasksStolen, 0u);
    }
    EXPECT_EQ(world->scheduler().tasksStolen(), 0u);
}

TEST(Islands, TinyIslandsEngageAllLanes)
{
    // islandWorkQueueThreshold is a batching hint, not a routing
    // cliff: a scene made entirely of islands far below the
    // threshold (jointed pairs, 3 rows each) must still spread
    // across every lane. Steps repeat until the workers have been
    // observed running chunks, which keeps the test robust on
    // loaded single-core hosts.
    WorldConfig config;
    config.workerThreads = 2;
    config.deterministic = true;
    World world(config);
    const SphereShape *s = world.addSphere(0.2);
    for (int i = 0; i < 200; ++i) {
        const double x = (i % 20) * 2.0;
        const double z = (i / 20) * 2.0;
        RigidBody *a = world.createDynamicBody(
            Transform(Quat(), {x, 50, z}), *s, 1.0);
        RigidBody *b = world.createDynamicBody(
            Transform(Quat(), {x + 0.5, 50, z}), *s, 1.0);
        world.createGeom(s, a);
        world.createGeom(s, b);
        world.createBallJoint(a, b, {x + 0.25, 50, z});
    }

    bool all_lanes_ran = false;
    for (int step = 0; step < 200 && !all_lanes_ran; ++step) {
        world.step();
        const StepStats &stats = world.lastStepStats();
        // Every awake island is stealable work now.
        EXPECT_EQ(stats.islandsToWorkQueue, 200u);
        EXPECT_EQ(stats.islandsOnMainThread, 0u);
        all_lanes_ran = true;
        const std::vector<LaneStats> lanes =
            world.scheduler().laneStats();
        ASSERT_EQ(lanes.size(), 3u);
        for (std::size_t lane = 1; lane < lanes.size(); ++lane)
            all_lanes_ran &= lanes[lane].chunksExecuted > 0;
    }
    EXPECT_TRUE(all_lanes_ran)
        << "worker lanes never ran any of the tiny-island batches";
}

TEST(Determinism, AdaptiveGrainSweepAcrossScenes)
{
    // The adaptive-grain and cross-island solve paths must keep the
    // bitwise 0/1/2/8-worker identity on every scene family (the
    // full-length sweep over all 8 scenes is tools/state_hash; this
    // keeps a fast cross-section in ctest).
    for (BenchmarkId id :
         {BenchmarkId::Periodic, BenchmarkId::Continuous,
          BenchmarkId::Ragdoll}) {
        auto run = [id](unsigned workers) {
            WorldConfig config;
            config.workerThreads = workers;
            config.deterministic = true;
            auto world = buildBenchmark(id, config, 0.1);
            for (int i = 0; i < 12; ++i)
                world->step();
            return worldStateHash(*world);
        };
        const std::uint64_t base = run(0);
        for (unsigned workers : {1u, 2u, 8u}) {
            EXPECT_EQ(run(workers), base)
                << benchmarkInfo(id).shortName << " diverged at "
                << workers << " workers";
        }
    }
}

} // namespace
} // namespace parallax
