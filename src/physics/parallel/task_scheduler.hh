/**
 * @file
 * Work-stealing task scheduler with persistent worker threads.
 *
 * The paper's engine is parallelized "using pthreads and a work-queue
 * model with persistent worker threads" (section 3.1). This is the
 * modern equivalent: instead of one shared mutex/condvar queue, every
 * execution lane (the calling thread plus each persistent worker)
 * owns a Chase-Lev deque. A parallelFor() call tiles the iteration
 * space into fixed-size chunks, seeds the caller's deque with the
 * whole range, and lets idle lanes steal half-open sub-ranges until
 * the loop is drained. Owners push and pop at the bottom of their
 * deque (LIFO, cache-friendly); thieves steal from the top (FIFO,
 * takes the largest outstanding split first).
 *
 * Chunk boundaries depend only on the iteration count and the loop
 * site (one item per chunk, or a grain from the site's per-item
 * cost), never on the lane count. Callers that need a reduction
 * combine per-chunk partial results in chunk-index order ("ordered
 * reduction"), so the result does not depend on which lane ran which
 * chunk.
 *
 * A coarse loop whose items differ widely in cost can walk its
 * positions through dominantFirstOrder(): an item is dominant when it
 * carries at least 1/16 of the loop's total cost and more than the
 * mean, and dominant items, heaviest first, take the positions where
 * lazy binary splitting starts its ranges (0, n/2, n/4, 3n/4, ...),
 * so the first splits separate them onto different lanes instead of
 * leaving two of them at the end of one lane's range. The order is a
 * function of the costs alone, never of the lane count or the wall
 * clock, and a loop without a dominant item keeps index order. The
 * World's cloth and island-batch loops use it; the Server's burst
 * and checkpoint loops keep index order, because their imbalance is
 * small and a per-update cost order would move sessions across lanes
 * from one update to the next.
 */

#ifndef PARALLAX_PHYSICS_PARALLEL_TASK_SCHEDULER_HH
#define PARALLAX_PHYSICS_PARALLEL_TASK_SCHEDULER_HH

#include <atomic>
#include <concepts>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

namespace parallax
{

/** Tunables of the work-stealing scheduler. */
struct SchedulerConfig
{
    /** Persistent worker threads (0 = run everything inline). */
    unsigned workerThreads = 0;

    /**
     * Adaptive grain sizing: target nanoseconds of work per chunk
     * for the cost-model tiling (parallelForByCost) and for World's
     * island batches. Dispatch plus steal overhead is a few hundred
     * nanoseconds per chunk, so 50 us chunks keep that overhead
     * under ~1% of chunk work while still yielding tens of stealable
     * chunks per millisecond of phase time. It moves chunk
     * boundaries, never results; tests shrink it to tile a small
     * scene into many chunks.
     */
    double targetChunkNanos = 50 * 1000.0;
};

/** Per-lane execution counters (lane 0 is the calling thread). */
struct LaneStats
{
    std::uint64_t chunksExecuted = 0;
    std::uint64_t rangesStolen = 0;
    std::uint64_t itemsProcessed = 0;
};

/**
 * A lock-free single-owner double-ended queue of packed chunk
 * ranges (the Chase-Lev deque; memory ordering follows Le et al.,
 * "Correct and Efficient Work-Stealing for Weak Memory Models",
 * with seq_cst on the top/bottom indices, which ThreadSanitizer
 * models exactly).
 *
 * Capacity is fixed: a lane's deque holds at most one entry per
 * binary split of its current range, so depth is bounded by
 * log2(chunk count) <= 32 well under the ring size.
 */
class WorkStealingDeque
{
  public:
    WorkStealingDeque();

    WorkStealingDeque(const WorkStealingDeque &) = delete;
    WorkStealingDeque &operator=(const WorkStealingDeque &) = delete;

    /** Owner only: push a packed range at the bottom. */
    void push(std::uint64_t value);

    /** Owner only: pop the most recently pushed range. */
    bool pop(std::uint64_t &value);

    /** Any thread: steal the oldest (largest) range from the top. */
    bool steal(std::uint64_t &value);

    bool empty() const;

  private:
    static constexpr std::size_t capacity = 256;
    static constexpr std::size_t mask = capacity - 1;

    std::atomic<std::int64_t> top_{0};
    std::atomic<std::int64_t> bottom_{0};
    std::unique_ptr<std::atomic<std::uint64_t>[]> ring_;
};

/**
 * Fork-join parallel-for over persistent workers with work stealing.
 *
 * The calling thread is always lane 0 and participates in every
 * loop; `workerThreads` additional lanes park on a condition
 * variable between loops. With zero workers every loop runs inline,
 * chunk by chunk, in index order.
 */
class TaskScheduler
{
  public:
    /**
     * Chunk body: [begin, end) iteration range + executing lane.
     *
     * A non-owning reference to the caller's callable (no copy, no
     * heap, whatever the capture size). Safe because parallelFor()
     * blocks until every chunk has finished, so the referenced
     * callable outlives every call through it. Never store one
     * beyond the parallelFor() call it was built for.
     */
    class LoopBody
    {
      public:
        template <typename F>
            requires(!std::same_as<std::remove_cvref_t<F>, LoopBody> &&
                     std::invocable<F &, std::size_t, std::size_t,
                                    unsigned>)
        LoopBody(F &&fn) noexcept
            : fn_(const_cast<void *>(
                  static_cast<const void *>(std::addressof(fn)))),
              call_([](void *f, std::size_t begin, std::size_t end,
                       unsigned lane) {
                  (*static_cast<std::remove_reference_t<F> *>(f))(
                      begin, end, lane);
              })
        {
        }

        void
        operator()(std::size_t begin, std::size_t end,
                   unsigned lane) const
        {
            call_(fn_, begin, end, lane);
        }

      private:
        void *fn_;
        void (*call_)(void *, std::size_t, std::size_t, unsigned);
    };

    /** How parallelForByCost() will tile `count` iterations. */
    struct Tiling
    {
        std::size_t grain = 1;
        std::size_t chunks = 0;

        /** Chunk index covering iteration `i`. */
        std::size_t chunkOf(std::size_t i) const { return i / grain; }
    };

    /**
     * Hard cap on worker threads. Requests beyond it are clamped
     * with a warning: more lanes than this only multiply stacks and
     * context switches, never throughput. Oversubscribing the actual
     * hardware_concurrency() below the cap is allowed (and warned
     * about) — determinism guarantees do not depend on lane:core
     * ratios, which the oversubscription regression test pins down.
     */
    static constexpr unsigned maxWorkers = 128;

    explicit TaskScheduler(SchedulerConfig config = SchedulerConfig());
    ~TaskScheduler();

    TaskScheduler(const TaskScheduler &) = delete;
    TaskScheduler &operator=(const TaskScheduler &) = delete;

    unsigned workerCount() const { return workerCount_; }

    /** Execution lanes: workers plus the calling thread. */
    unsigned laneCount() const { return workerCount_ + 1; }

    const SchedulerConfig &schedulerConfig() const { return config_; }

    /**
     * Cost-model tiling: the largest power-of-two grain (at least
     * 1) at which one chunk is worth at most
     * SchedulerConfig::targetChunkNanos of estimated work
     * (`nsPerItem` per iteration), so dispatch+steal overhead stays
     * a small fraction of chunk cost. The estimate is a constant of
     * the loop site, so the tiling depends only on the iteration
     * count — never on the lane count or the wall clock. Chunks
     * execute exactly on these boundaries.
     */
    Tiling tilingByCost(std::size_t count, double nsPerItem) const;

    /** parallelFor with cost-model tiling (see tilingByCost). */
    void parallelForByCost(std::size_t count, double nsPerItem,
                           const LoopBody &body);

    /**
     * Run `body` over [0, count), one item per chunk, and wait for
     * completion; each chunk runs on exactly one lane. For coarse
     * items (an island batch, a cloth, a hosted world, a sweep point)
     * that are each worth stealing on their own.
     */
    void parallelFor(std::size_t count, const LoopBody &body);

    /**
     * An item is dominant when its cost is at least 1/dominantShare
     * of its loop's total (and above the mean). Below that share an
     * item is under a third of one lane's work at the 3-5 lanes the
     * engine runs, which stealing absorbs in index order; and at most
     * dominantShare items can qualify, so they fit the loop's start
     * plus its first four split levels, and a fixed array holds them.
     */
    static constexpr std::uint32_t dominantShare = 16;

    /**
     * Dealing order for parallelFor over items of unequal `costs`:
     * fill `order` (resized to costs.size(); allocation-free once its
     * capacity covers it) so that position p runs item order[p].
     * Dominant items (see dominantShare), heaviest first with ties to
     * the lower index, take the positions where lazy binary splitting
     * starts its ranges, breadth first (0, n/2, n/4, 3n/4, ...); every
     * other item fills the remaining positions in index order. A loop
     * without a dominant item gets the identity. The order depends on
     * the costs alone, so it is the same at any lane count; items must
     * be independent of one another for it to leave results unchanged.
     * At most 2^32 - 1 items.
     */
    static void dominantFirstOrder(std::span<const std::uint32_t> costs,
                                   std::vector<std::uint32_t> &order);

    // --- Execution counters (since construction). ---
    std::uint64_t tasksExecuted() const;
    std::uint64_t tasksStolen() const;
    std::uint64_t loopsRun() const
    { return loopsRun_.load(std::memory_order_relaxed); }

    /** Per-lane counter snapshot (lane 0 = calling thread). */
    std::vector<LaneStats> laneStats() const;

    /** Allocation-free variant: fill `out` (resized to laneCount). */
    void laneStats(std::vector<LaneStats> &out) const;

    /**
     * Fault injection (FaultKind::StallLane): make `lane` sleep for
     * `seconds` of wall-clock time at its next loop participation,
     * modeling a slow or preempted core. Perturbs timing only —
     * simulation state is unaffected, because every reduction the
     * engine runs is ordered by chunk index, not by lane.
     */
    void stallLane(unsigned lane, double seconds);

  private:
    /** One execution lane: a deque plus its private counters. */
    struct alignas(64) Lane
    {
        WorkStealingDeque deque;
        std::atomic<std::uint64_t> executed{0};
        std::atomic<std::uint64_t> stolen{0};
        std::atomic<std::uint64_t> items{0};
        /** Pending injected stall (stallLane), consumed on the
         *  lane's next participation. */
        std::atomic<std::uint64_t> stallNanos{0};
    };

    static std::uint64_t pack(std::uint64_t c0, std::uint64_t c1)
    { return (c0 << 32) | c1; }

    void workerMain(unsigned lane);

    /** Sleep off any stall injected for this lane. */
    void consumeStall(Lane &lane);

    /** Seed, publish and drain one tiled loop (parallelFor body). */
    void runLoop(std::size_t count, const Tiling &tile,
                 const LoopBody &body);

    /** Pop/steal/split until the current loop has no chunks left. */
    void participate(unsigned lane);

    /** Split a range down to one chunk and execute it. The steal
     *  counter is maintained at the cross-lane steal site in
     *  participate(), never here. */
    void runRange(unsigned lane, std::uint64_t packed);

    SchedulerConfig config_;
    unsigned workerCount_;
    std::vector<std::unique_ptr<Lane>> lanes_;
    std::vector<std::thread> threads_;

    // Current-loop state. body_/grain_/count_ are written by lane 0
    // before the seeding push and read by other lanes only after a
    // successful steal, which synchronizes through the deque.
    const LoopBody *body_ = nullptr;
    std::size_t grain_ = 1;
    std::size_t count_ = 0;
    std::atomic<std::int64_t> remaining_{0};
    std::atomic<std::uint64_t> loopsRun_{0};

    // Worker parking between loops.
    std::mutex wakeMutex_;
    std::condition_variable wake_;
    std::uint64_t epoch_ = 0;
    bool shutdown_ = false;
};

} // namespace parallax

#endif // PARALLAX_PHYSICS_PARALLEL_TASK_SCHEDULER_HH
