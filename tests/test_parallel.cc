/**
 * @file
 * Tests for the work-stealing task scheduler and the deterministic
 * parallel pipeline: stealing under unbalanced load, parallel_for
 * correctness against a serial reference, lane-independent tiling,
 * and a bitwise determinism sweep across worker counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <numeric>
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
    TaskScheduler scheduler(config);
    // Both entries: one item per chunk, and cost-tiled chunks.
    for (bool by_cost : {false, true}) {
        std::vector<std::uint64_t> parallel(n, 0);
        auto body = [&parallel](std::size_t begin, std::size_t end,
                                unsigned) {
            for (std::size_t i = begin; i < end; ++i)
                parallel[i] = i * i + 17;
        };
        if (by_cost)
            scheduler.parallelForByCost(n, 1000.0, body);
        else
            scheduler.parallelFor(n, body);
        EXPECT_EQ(parallel, serial) << "by_cost=" << by_cost;
    }

    // Every iteration ran exactly once per loop (writes would only
    // mask a double-run; the item counter exposes it).
    EXPECT_EQ(scheduler.laneStats().size(), 5u);
    std::uint64_t items = 0;
    for (const LaneStats &lane : scheduler.laneStats())
        items += lane.itemsProcessed;
    EXPECT_EQ(items, 2 * n);
}

TEST(TaskScheduler, InlineModeRunsChunksInOrder)
{
    SchedulerConfig config;
    config.workerThreads = 0;
    TaskScheduler scheduler(config);

    // 6250 ns per item tiles 50 us chunks of 8 items.
    std::vector<std::size_t> begins;
    scheduler.parallelForByCost(
        35, 6250.0,
        [&begins](std::size_t begin, std::size_t end, unsigned lane) {
            EXPECT_EQ(lane, 0u);
            EXPECT_LE(end - begin, 8u);
            begins.push_back(begin);
        });
    EXPECT_EQ(begins, (std::vector<std::size_t>{0, 8, 16, 24, 32}));

    begins.clear();
    scheduler.parallelFor(
        4, [&begins](std::size_t begin, std::size_t end, unsigned) {
            EXPECT_EQ(end - begin, 1u);
            begins.push_back(begin);
        });
    EXPECT_EQ(begins, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(TaskScheduler, DeterministicTilingIgnoresWorkerCount)
{
    // Both entries run the same chunks whatever the lane count: one
    // per item, or the cost tiling (3125 ns per item: grain 16).
    for (unsigned workers : {0u, 1u, 3u, 7u}) {
        TaskScheduler scheduler(SchedulerConfig{workers});
        const TaskScheduler::Tiling tile =
            scheduler.tilingByCost(1000, 3125.0);
        EXPECT_EQ(tile.grain, 16u);
        EXPECT_EQ(tile.chunks, 63u);

        auto noop = [](std::size_t, std::size_t, unsigned) {};
        scheduler.parallelForByCost(1000, 3125.0, noop);
        EXPECT_EQ(scheduler.tasksExecuted(), 63u)
            << "workers=" << workers;
        scheduler.parallelFor(1000, noop);
        EXPECT_EQ(scheduler.tasksExecuted(), 63u + 1000u)
            << "workers=" << workers;
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
    TaskScheduler scheduler(config);
    const std::size_t tasks = 4000;

    bool all_stole = false;
    for (int round = 0; round < 50 && !all_stole; ++round) {
        std::atomic<std::uint64_t> ran{0};
        scheduler.parallelFor(
            tasks,
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

/** dominantFirstOrder() as a value, for the cases below. */
std::vector<std::uint32_t>
dealingOrder(const std::vector<std::uint32_t> &costs)
{
    std::vector<std::uint32_t> order;
    TaskScheduler::dominantFirstOrder(costs, order);
    return order;
}

std::vector<std::uint32_t>
identity(std::size_t n)
{
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    return order;
}

TEST(TaskScheduler, DominantFirstOrderSmallLoops)
{
    EXPECT_TRUE(dealingOrder({}).empty());
    // One item is the whole loop but never above its own mean.
    EXPECT_EQ(dealingOrder({0}), identity(1));
    EXPECT_EQ(dealingOrder({500}), identity(1));
    // Two items: a heavier second item moves to the front.
    EXPECT_EQ(dealingOrder({1, 100}),
              (std::vector<std::uint32_t>{1, 0}));
    EXPECT_EQ(dealingOrder({100, 1}), identity(2));
    EXPECT_EQ(dealingOrder({5, 5}), identity(2));
    EXPECT_EQ(dealingOrder({0, 0}), identity(2));
}

TEST(TaskScheduler, DominantFirstOrderKeepsIndexOrderWithoutDominance)
{
    for (std::size_t n : {3u, 8u, 16u, 17u, 40u}) {
        // Equal costs: every item is the mean, none above it (at
        // n = 16 each holds exactly 1/16 of the total).
        EXPECT_EQ(dealingOrder(std::vector<std::uint32_t>(n, 7)),
                  identity(n))
            << "n=" << n;
        EXPECT_EQ(dealingOrder(std::vector<std::uint32_t>(n, 0)),
                  identity(n))
            << "n=" << n;
    }
    // Uneven, but no item reaches 1/16 of the total (5 * 16 < 120).
    std::vector<std::uint32_t> uneven(40);
    for (std::size_t i = 0; i < uneven.size(); ++i)
        uneven[i] = static_cast<std::uint32_t>(i % 5 + 1);
    EXPECT_EQ(dealingOrder(uneven), identity(40));
}

TEST(TaskScheduler, DominantItemsTakeTheFirstSplitStarts)
{
    // Deformable's cloth loop: 30 small cloths, then the two large
    // ones. The first split of [0, 32) starts at 16, so the second
    // large cloth leads the range the first thief takes.
    std::vector<std::uint32_t> cloths(30, 25);
    cloths.push_back(625);
    cloths.push_back(625);
    const std::vector<std::uint32_t> order = dealingOrder(cloths);
    std::vector<std::uint32_t> expected;
    expected.push_back(30);
    for (std::uint32_t i = 0; i < 15; ++i)
        expected.push_back(i);
    expected.push_back(31);
    for (std::uint32_t i = 15; i < 30; ++i)
        expected.push_back(i);
    EXPECT_EQ(order, expected);

    // Four dominant items of n = 16 take positions 0, 8, 4, 12,
    // heaviest first, equal costs to the lower index.
    std::vector<std::uint32_t> costs(16, 1);
    costs[3] = 100;
    costs[5] = 300;
    costs[9] = 300;
    costs[12] = 200;
    EXPECT_EQ(dealingOrder(costs),
              (std::vector<std::uint32_t>{5, 0, 1, 2, 12, 4, 6, 7, 9, 8,
                                          10, 11, 3, 13, 14, 15}));

    // An odd count splits [0, 5) at 2, then [0, 2) at 1 and [2, 5)
    // at 3.
    EXPECT_EQ(dealingOrder({0, 10, 10, 10, 11}),
              (std::vector<std::uint32_t>{4, 2, 1, 3, 0}));

    // Sixteen items of exactly 1/16 each, among zero-cost ones, all
    // dominate: the fixed array is full and the order is still a
    // permutation.
    std::vector<std::uint32_t> full(40, 0);
    for (std::size_t i = 0; i < 16; ++i)
        full[i * 2] = 9;
    const std::vector<std::uint32_t> full_order = dealingOrder(full);
    EXPECT_EQ(full_order[0], 0u);
    EXPECT_EQ(full_order[20], 2u);
    EXPECT_EQ(full_order[10], 4u);
    EXPECT_EQ(full_order[30], 6u);
    EXPECT_EQ(full_order[37], 30u);
    EXPECT_EQ(full_order[1], 1u);
}

TEST(TaskScheduler, DominantFirstOrderIsAPermutation)
{
    // Pseudo-random loops with a few heavy spikes: the order is a
    // permutation, and the items it leaves out of the split starts
    // keep index order.
    std::uint64_t state = 12345;
    auto next = [&state] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<std::uint32_t>(state >> 33);
    };
    std::vector<std::uint32_t> order;
    for (int round = 0; round < 300; ++round) {
        const std::size_t n = next() % 70;
        std::vector<std::uint32_t> costs(n);
        for (std::uint32_t &c : costs)
            c = next() % 4 == 0 ? next() % 5000 : next() % 50;
        TaskScheduler::dominantFirstOrder(costs, order);
        ASSERT_EQ(order.size(), n);
        std::vector<std::uint32_t> sorted = order;
        std::sort(sorted.begin(), sorted.end());
        ASSERT_EQ(sorted, identity(n)) << "round " << round;

        std::uint64_t total = 0;
        for (std::uint32_t c : costs)
            total += c;
        std::int64_t last_light = -1;
        for (std::uint32_t item : order) {
            const std::uint64_t c = costs[item];
            if (c * TaskScheduler::dominantShare >= total &&
                c * n > total)
                continue;
            EXPECT_GT(static_cast<std::int64_t>(item), last_light)
                << "round " << round;
            last_light = item;
        }
    }
}

TEST(TaskScheduler, ParallelForThroughDominantOrderRunsEveryItemOnce)
{
    std::vector<std::uint32_t> costs(32, 25);
    costs[30] = costs[31] = 625;
    std::vector<std::uint32_t> order;
    TaskScheduler::dominantFirstOrder(costs, order);
    for (unsigned workers : {0u, 1u, 2u, 8u}) {
        TaskScheduler scheduler(SchedulerConfig{workers});
        std::vector<std::atomic<int>> runs(costs.size());
        std::vector<std::uint32_t> sequence;
        scheduler.parallelFor(
            order.size(),
            [&](std::size_t begin, std::size_t end, unsigned) {
                for (std::size_t pos = begin; pos < end; ++pos) {
                    runs[order[pos]].fetch_add(
                        1, std::memory_order_relaxed);
                    if (workers == 0)
                        sequence.push_back(order[pos]);
                }
            });
        for (std::size_t i = 0; i < runs.size(); ++i)
            EXPECT_EQ(runs[i].load(), 1)
                << "item " << i << " at " << workers << " workers";
        // Inline, positions run in index order: items in the order's
        // sequence.
        if (workers == 0)
            EXPECT_EQ(sequence, order);
    }
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
    auto world = buildBenchmark(BenchmarkId::Mix, config, 0.12);
    for (int i = 0; i < 30; ++i)
        world->step();
    return worldState(*world);
}

TEST(Determinism, MixSceneBitwiseIdenticalAcrossWorkerCounts)
{
    // Every worker count must land on the 0-worker state.
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
    const std::vector<std::string> errors = config.validate();
    EXPECT_EQ(errors.size(), 2u);
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
    // Adaptive grains come from the count and the loop site's
    // constant per-item cost only — never the worker count — so
    // chunk boundaries cannot depend on how many lanes exist. The
    // grain is rounded down to a power of two.
    const double ns_per_item = 1000.0; // -> 50 raw, 32 rounded
    TaskScheduler::Tiling reference{};
    for (unsigned workers : {0u, 1u, 3u, 7u}) {
        TaskScheduler scheduler(SchedulerConfig{workers});
        const TaskScheduler::Tiling tile =
            scheduler.tilingByCost(10000, ns_per_item);
        EXPECT_EQ(tile.grain, 32u);
        if (workers == 0)
            reference = tile;
        EXPECT_EQ(tile.chunks, reference.chunks);
    }

    TaskScheduler scheduler(SchedulerConfig{});
    // Cheap items widen the grain; an item worth more than one
    // target chunk gets a chunk of its own.
    EXPECT_EQ(scheduler.tilingByCost(10000, 10.0).grain, 4096u);
    EXPECT_EQ(scheduler.tilingByCost(10000, 200000.0).grain, 1u);
    // A loop cheaper than one target chunk collapses to one chunk.
    EXPECT_EQ(scheduler.tilingByCost(20, 1000.0).chunks, 1u);
}

TEST(TaskScheduler, NoStealsCountedWithoutWorkers)
{
    // tasks_stolen counts cross-lane steals only. With zero workers
    // every chunk runs inline on the calling lane, so the counter
    // must stay at exactly zero no matter how many loops run.
    SchedulerConfig config;
    config.workerThreads = 0;
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
    // Islands pack into cost-sized batches, so a scene made entirely
    // of tiny islands (jointed pairs, 3 rows each) must still spread
    // across every lane. Steps repeat until the workers have been
    // observed running chunks, which keeps the test robust on
    // loaded single-core hosts.
    WorldConfig config;
    config.workerThreads = 2;
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
        // Every awake island is solved, whichever lane ran it.
        EXPECT_EQ(stats.solver.islandsSolved, 200u);
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
    // The adaptive-grain and cross-island solve paths, and the
    // dominant-first dealing order, must keep the bitwise
    // 0/1/2/8-worker identity on every scene family (the full-length
    // sweep over all 8 scenes is tools/state_hash; this keeps a fast
    // cross-section in ctest).
    for (BenchmarkId id :
         {BenchmarkId::Periodic, BenchmarkId::Continuous,
          BenchmarkId::Ragdoll, BenchmarkId::Deformable}) {
        auto run = [id](unsigned workers) {
            WorldConfig config;
            config.workerThreads = workers;
            auto world = buildBenchmark(id, config, 0.1);
            for (int i = 0; i < 12; ++i)
                world->step();
            if (id == BenchmarkId::Deformable) {
                // At this scale the two large cloths dominate the
                // cloth loop, so it is dealt out of index order.
                const std::vector<int> &vertices =
                    world->lastStepStats().clothVertexCounts;
                const std::vector<std::uint32_t> order =
                    dealingOrder(std::vector<std::uint32_t>(
                        vertices.begin(), vertices.end()));
                EXPECT_NE(order, identity(order.size()))
                    << "no dominant cloth at " << workers << " workers";
            }
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
