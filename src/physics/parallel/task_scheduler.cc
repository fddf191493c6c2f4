#include "task_scheduler.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <numeric>
#include <utility>

#include "sim/logging.hh"

namespace parallax
{

// --- WorkStealingDeque -------------------------------------------------

WorkStealingDeque::WorkStealingDeque()
    : ring_(new std::atomic<std::uint64_t>[capacity])
{
}

void
WorkStealingDeque::push(std::uint64_t value)
{
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    if (b - t >= static_cast<std::int64_t>(capacity)) {
        // Cannot happen with binary splitting (depth <= log2(2^32)),
        // so treat overflow as a scheduler bug rather than growing.
        panic("work-stealing deque overflow (%lld entries)",
              static_cast<long long>(b - t));
    }
    ring_[static_cast<std::size_t>(b) & mask].store(
        value, std::memory_order_relaxed);
    bottom_.store(b + 1, std::memory_order_seq_cst);
}

bool
WorkStealingDeque::pop(std::uint64_t &value)
{
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);

    if (t > b) {
        // Deque was already empty; restore bottom.
        bottom_.store(b + 1, std::memory_order_relaxed);
        return false;
    }
    value = ring_[static_cast<std::size_t>(b) & mask].load(
        std::memory_order_relaxed);
    if (t == b) {
        // Last element: race against thieves for it.
        const bool won = top_.compare_exchange_strong(
            t, t + 1, std::memory_order_seq_cst,
            std::memory_order_relaxed);
        bottom_.store(b + 1, std::memory_order_relaxed);
        return won;
    }
    return true;
}

bool
WorkStealingDeque::steal(std::uint64_t &value)
{
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b)
        return false;
    value = ring_[static_cast<std::size_t>(t) & mask].load(
        std::memory_order_relaxed);
    return top_.compare_exchange_strong(t, t + 1,
                                        std::memory_order_seq_cst,
                                        std::memory_order_relaxed);
}

bool
WorkStealingDeque::empty() const
{
    return top_.load(std::memory_order_acquire) >=
           bottom_.load(std::memory_order_acquire);
}

// --- TaskScheduler -----------------------------------------------------

TaskScheduler::TaskScheduler(SchedulerConfig config)
    : config_(config), workerCount_(config.workerThreads)
{
    if (workerCount_ > maxWorkers) {
        warn("workerThreads %u exceeds the scheduler cap of %u; "
             "clamping",
             workerCount_, maxWorkers);
        workerCount_ = maxWorkers;
        config_.workerThreads = maxWorkers;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw > 0 && laneCount() > hw) {
        warn("%u execution lanes oversubscribe %u hardware threads; "
             "results are unaffected but expect context-switch "
             "overhead",
             laneCount(), hw);
    }
    lanes_.reserve(laneCount());
    for (unsigned i = 0; i < laneCount(); ++i)
        lanes_.push_back(std::make_unique<Lane>());
    threads_.reserve(workerCount_);
    for (unsigned i = 0; i < workerCount_; ++i)
        threads_.emplace_back([this, i] { workerMain(i + 1); });
}

TaskScheduler::~TaskScheduler()
{
    {
        std::lock_guard<std::mutex> lock(wakeMutex_);
        shutdown_ = true;
    }
    wake_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

TaskScheduler::Tiling
TaskScheduler::tilingByCost(std::size_t count, double nsPerItem) const
{
    // Widen the grain until one chunk is worth ~targetChunkNanos of
    // estimated work. The result depends only on the iteration count
    // and the loop site's constant estimate — never the lane count —
    // so chunk boundaries are identical for any number of workers.
    // Chunk count is bounded by total-work / target-chunk, which
    // amortizes dispatch+steal overhead to a fixed fraction, and a
    // loop cheaper than one target chunk collapses to a single
    // inline chunk instead of paying any dispatch at all.
    const double ns = std::max(1.0, nsPerItem);
    const auto cost_grain = static_cast<std::size_t>(
        std::max(1.0, config_.targetChunkNanos / ns));
    // Round down to a power of two, so a chunk never exceeds the
    // target.
    Tiling t;
    t.grain = std::bit_floor(cost_grain);
    t.chunks = (count + t.grain - 1) / t.grain;
    return t;
}

void
TaskScheduler::parallelFor(std::size_t count, const LoopBody &body)
{
    runLoop(count, Tiling{1, count}, body);
}

void
TaskScheduler::parallelForByCost(std::size_t count, double nsPerItem,
                                 const LoopBody &body)
{
    runLoop(count, tilingByCost(count, nsPerItem), body);
}

void
TaskScheduler::dominantFirstOrder(std::span<const std::uint32_t> costs,
                                  std::vector<std::uint32_t> &order)
{
    const std::uint64_t n = costs.size();
    order.resize(costs.size());
    std::uint64_t total = 0;
    for (std::uint32_t c : costs)
        total += c;
    // Exact integer tests: a cost below 2^32 times a share or an item
    // count below 2^32 stays below 2^64.
    auto dominant = [total, n](std::uint32_t cost) {
        return std::uint64_t{cost} * dominantShare >= total &&
               std::uint64_t{cost} * n > total;
    };

    // Each dominant item holds at least 1/dominantShare of the total,
    // so there are at most dominantShare of them.
    std::array<std::uint32_t, dominantShare> heavy;
    std::size_t k = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        if (dominant(costs[i]))
            heavy[k++] = i;
    }
    if (k == 0) {
        std::iota(order.begin(), order.end(), 0u);
        return;
    }
    // std::sort on the fixed array: std::stable_sort would allocate a
    // merge buffer on every call.
    std::sort(heavy.begin(), heavy.begin() + k,
              [costs](std::uint32_t a, std::uint32_t b) {
                  return costs[a] != costs[b] ? costs[a] > costs[b]
                                              : a < b;
              });

    // Walk the splitter's ranges breadth first, with runRange's
    // midpoint: the first range starts at 0, and every split starts a
    // new one at its midpoint. The ranges seen so far partition
    // [0, n), one per placed item, so while fewer than k <= n items
    // are placed some queued range can still split. Each split queues
    // two ranges, so 2 * dominantShare slots hold the whole walk.
    constexpr std::uint32_t unset = ~std::uint32_t{0};
    std::fill(order.begin(), order.end(), unset);
    order[0] = heavy[0];
    std::array<std::pair<std::uint64_t, std::uint64_t>, 2 * dominantShare>
        ranges;
    std::size_t head = 0, tail = 0;
    ranges[tail++] = {0, n};
    for (std::size_t placed = 1; placed < k;) {
        const auto [c0, c1] = ranges[head++];
        if (c1 - c0 < 2)
            continue;
        const std::uint64_t mid = c0 + (c1 - c0) / 2;
        order[mid] = heavy[placed++];
        ranges[tail++] = {c0, mid};
        ranges[tail++] = {mid, c1};
    }

    // Everything else keeps index order in the free positions.
    std::uint32_t next = 0;
    for (std::uint32_t &slot : order) {
        if (slot != unset)
            continue;
        while (dominant(costs[next]))
            ++next;
        slot = next++;
    }
}

void
TaskScheduler::runLoop(std::size_t count, const Tiling &tile,
                       const LoopBody &body)
{
    if (count == 0)
        return;
    loopsRun_.fetch_add(1, std::memory_order_relaxed);

    Lane &self = *lanes_[0];
    if (workerCount_ == 0 || tile.chunks == 1) {
        // Inline execution, chunk by chunk in index order (same
        // boundaries as the parallel path, so ordered reductions
        // match bit for bit).
        consumeStall(self);
        for (std::size_t c = 0; c < tile.chunks; ++c) {
            const std::size_t begin = c * tile.grain;
            const std::size_t end =
                std::min(count, begin + tile.grain);
            body(begin, end, 0);
            self.executed.fetch_add(1, std::memory_order_relaxed);
            self.items.fetch_add(end - begin,
                                 std::memory_order_relaxed);
        }
        return;
    }

    // Publish the loop, seed lane 0's deque with the full chunk
    // range, and wake the workers. Workers read body_/grain_/count_
    // only after a successful steal, which synchronizes with the
    // seeding push through the deque indices.
    body_ = &body;
    grain_ = tile.grain;
    count_ = count;
    remaining_.store(static_cast<std::int64_t>(tile.chunks),
                     std::memory_order_relaxed);
    self.deque.push(pack(0, tile.chunks));
    {
        std::lock_guard<std::mutex> lock(wakeMutex_);
        ++epoch_;
    }
    wake_.notify_all();

    participate(0);
    // remaining_ hit zero: every chunk body has completed and those
    // completions happen-before this return (release decrement /
    // acquire load), so per-chunk results are safe to reduce.
}

void
TaskScheduler::workerMain(unsigned lane)
{
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(wakeMutex_);
            wake_.wait(lock, [this, seen] {
                return shutdown_ || epoch_ != seen;
            });
            if (shutdown_)
                return;
            seen = epoch_;
        }
        participate(lane);
    }
}

void
TaskScheduler::consumeStall(Lane &lane)
{
    const std::uint64_t ns =
        lane.stallNanos.exchange(0, std::memory_order_relaxed);
    if (ns > 0)
        std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

void
TaskScheduler::stallLane(unsigned lane, double seconds)
{
    if (!(seconds > 0.0))
        return;
    lanes_[lane % laneCount()]->stallNanos.fetch_add(
        static_cast<std::uint64_t>(seconds * 1e9),
        std::memory_order_relaxed);
}

void
TaskScheduler::participate(unsigned lane)
{
    consumeStall(*lanes_[lane]);
    const unsigned lanes = laneCount();
    for (;;) {
        std::uint64_t task;
        if (lanes_[lane]->deque.pop(task)) {
            runRange(lane, task);
            continue;
        }
        if (remaining_.load(std::memory_order_acquire) <= 0)
            return;
        bool got = false;
        for (unsigned v = 1; v < lanes && !got; ++v) {
            const unsigned victim = (lane + v) % lanes;
            got = lanes_[victim]->deque.steal(task);
        }
        if (got) {
            // The steal counter is bumped here, at the cross-lane
            // steal site itself (the victim loop above never visits
            // the thief's own deque), and nowhere else — a pop of a
            // self-pushed split can never read as a steal, so
            // tasks_stolen is exactly the cross-lane migration count
            // and must be zero whenever workerThreads == 0.
            lanes_[lane]->stolen.fetch_add(1,
                                           std::memory_order_relaxed);
            runRange(lane, task);
        } else if (remaining_.load(std::memory_order_acquire) <= 0) {
            return;
        } else {
            // Someone holds the remaining chunks; let them run.
            std::this_thread::yield();
        }
    }
}

void
TaskScheduler::runRange(unsigned lane, std::uint64_t packed)
{
    Lane &self = *lanes_[lane];
    std::uint64_t c0 = packed >> 32;
    std::uint64_t c1 = packed & 0xffffffffu;

    // Lazy binary splitting: keep the left half, expose the right
    // half to thieves, until a single chunk remains.
    while (c1 - c0 > 1) {
        const std::uint64_t mid = c0 + (c1 - c0) / 2;
        self.deque.push(pack(mid, c1));
        c1 = mid;
    }

    const std::size_t begin = static_cast<std::size_t>(c0) * grain_;
    const std::size_t end = std::min(count_, begin + grain_);
    (*body_)(begin, end, lane);
    self.executed.fetch_add(1, std::memory_order_relaxed);
    self.items.fetch_add(end - begin, std::memory_order_relaxed);
    remaining_.fetch_sub(1, std::memory_order_release);
}

std::uint64_t
TaskScheduler::tasksExecuted() const
{
    std::uint64_t total = 0;
    for (const auto &lane : lanes_)
        total += lane->executed.load(std::memory_order_relaxed);
    return total;
}

std::uint64_t
TaskScheduler::tasksStolen() const
{
    std::uint64_t total = 0;
    for (const auto &lane : lanes_)
        total += lane->stolen.load(std::memory_order_relaxed);
    return total;
}

std::vector<LaneStats>
TaskScheduler::laneStats() const
{
    std::vector<LaneStats> stats;
    laneStats(stats);
    return stats;
}

void
TaskScheduler::laneStats(std::vector<LaneStats> &out) const
{
    out.resize(lanes_.size());
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
        out[i].chunksExecuted =
            lanes_[i]->executed.load(std::memory_order_relaxed);
        out[i].rangesStolen =
            lanes_[i]->stolen.load(std::memory_order_relaxed);
        out[i].itemsProcessed =
            lanes_[i]->items.load(std::memory_order_relaxed);
    }
}

} // namespace parallax
