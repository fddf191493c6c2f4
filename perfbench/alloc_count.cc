/**
 * @file
 * Replacement of the global operator new/delete that counts heap
 * allocations while counting is switched on (the traced run turns it
 * on around each measured World::step / Server::advance only).
 *
 * Each thread increments its own cache-line-padded slot, so the
 * engine's worker lanes never contend on one counter and the count
 * adds next to nothing to the traced step time. The slots are
 * constant-initialized: allocations made before main() are safe.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench.hh"

namespace
{

std::atomic<bool> counting{false};

struct alignas(64) Slot
{
    std::atomic<std::uint64_t> count{0};
};

constexpr unsigned slotCount = 64;
Slot slots[slotCount];
std::atomic<unsigned> nextSlot{0};

void
countAllocation()
{
    if (!counting.load(std::memory_order_relaxed))
        return;
    // More threads than slots share slots; the count stays exact.
    thread_local const unsigned slot =
        nextSlot.fetch_add(1, std::memory_order_relaxed) % slotCount;
    slots[slot].count.fetch_add(1, std::memory_order_relaxed);
}

void *
allocate(std::size_t size)
{
    countAllocation();
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
allocateAligned(std::size_t size, std::align_val_t align)
{
    countAllocation();
    std::size_t alignment = static_cast<std::size_t>(align);
    if (alignment < sizeof(void *))
        alignment = sizeof(void *);
    void *p = nullptr;
    if (posix_memalign(&p, alignment, size == 0 ? 1 : size) != 0)
        throw std::bad_alloc();
    return p;
}

} // namespace

namespace perfbench
{

void
setAllocCounting(bool on)
{
    counting.store(on, std::memory_order_relaxed);
}

std::uint64_t
allocCount()
{
    std::uint64_t total = 0;
    for (const Slot &s : slots)
        total += s.count.load(std::memory_order_relaxed);
    return total;
}

} // namespace perfbench

// The array and nothrow forms of the library forward to these.
void *operator new(std::size_t size) { return allocate(size); }
void *operator new(std::size_t size, std::align_val_t align)
{
    return allocateAligned(size, align);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
