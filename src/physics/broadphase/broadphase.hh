/**
 * @file
 * Broadphase collision culling: sweep-and-prune.
 *
 * The broadphase is the first step of collision detection (section
 * 3.2): it culls pairs of objects that cannot possibly collide using
 * their AABBs. The paper notes this phase is hard to parallelize
 * because it updates a spatial structure; here that structure is one
 * sorted sweep-and-prune axis.
 *
 * The axis and every scratch buffer stay alive across calls: after
 * warm-up a steady-state findPairsInto() performs no heap
 * allocations, and temporal coherence lets it repair last step's
 * sorted axis instead of re-sorting from scratch.
 */

#ifndef PARALLAX_PHYSICS_BROADPHASE_BROADPHASE_HH
#define PARALLAX_PHYSICS_BROADPHASE_BROADPHASE_HH

#include <cstdint>
#include <vector>

#include "physics/geom.hh"
#include "physics/parallel/task_scheduler.hh"
#include "physics/trace/trace.hh"

namespace parallax
{

/** A candidate colliding pair produced by the broadphase. */
struct GeomPair
{
    GeomId a;
    GeomId b;

    bool operator==(const GeomPair &o) const = default;
};

/** Observability counters for the broadphase phase. */
struct BroadphaseStats
{
    std::uint64_t geomsConsidered = 0;
    std::uint64_t overlapTests = 0;
    std::uint64_t pairsFound = 0;
    std::uint64_t structureUpdates = 0;
    /**
     * Times persistent scratch storage had to grow (heap
     * allocation). Zero in a warmed-up steady state — asserted by
     * the `perf`-labeled allocation-regression test.
     */
    std::uint64_t storageGrowths = 0;

    void
    reset()
    {
        *this = BroadphaseStats();
    }
};

/**
 * Sweep-and-prune broadphase.
 *
 * Geoms are sorted by AABB minimum along the X axis. Each axis
 * position then scans forward over the later geoms until one starts
 * past its own X maximum, testing Y/Z overlap only for those
 * X-overlapping boxes. Unbounded geoms (planes) are handled out of
 * band and paired with every eligible bounded geom.
 *
 * The sorted axis persists across steps. When the geom set is
 * unchanged, the axis is repaired with one insertion-sort pass —
 * near-linear under temporal coherence, and producing exactly the
 * order a full sort would (the comparator is a strict total order),
 * so results stay bitwise identical. Any membership change triggers
 * a full rebuild.
 *
 * The forward scans are independent per axis position, so the sweep
 * tiles across lanes; chunk 0 writes the output and every later
 * chunk its own slot, and a final counting sort puts the pairs in
 * canonical order whichever lane found them.
 */
class SweepAndPrune
{
  public:
    /** Committed cost (ns) of one axis position's forward scan: the
     *  per-item estimate of the sweep's cost-model tiling. */
    static constexpr double sweepNsPerGeom = 120.0;

    /**
     * Find all candidate pairs among the given geoms, into `out`
     * (cleared first; capacity kept). Geoms whose bodies are
     * disabled are skipped; pairs where neither side can move (both
     * static) are filtered; pairs sharing a body are filtered. Pair
     * ordering is canonical (a < b), sorted by (a, b), and does not
     * depend on the scheduler's lane count. With a trace collector,
     * every sweep chunk records a `broadphase_chunk` span on its
     * lane, tagged with `step`.
     */
    void findPairsInto(const std::vector<Geom *> &geoms,
                       TaskScheduler &scheduler,
                       std::vector<GeomPair> &out,
                       TraceCollector *trace = nullptr,
                       std::uint64_t step = 0);

    /** Convenience wrapper returning a fresh pair list, swept on the
     *  calling thread. */
    std::vector<GeomPair> findPairs(const std::vector<Geom *> &geoms);

    /** Drop every held pointer to a geom with id >= `first` (call
     *  before those geoms are destroyed); the next call then sees a
     *  membership change and rebuilds its axis. */
    void forgetGeomsFrom(GeomId first);

    const BroadphaseStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

  private:
    /** One sweep chunk's output (chunks after the first; chunk 0
     *  writes the caller's vector). Cache-line aligned so adjacent
     *  chunks on different lanes never share a line. */
    struct alignas(64) SweepSlot
    {
        std::vector<GeomPair> pairs;
        std::uint64_t overlapTests = 0;
    };

    /** Forward scans of axis positions [begin, end), plus their
     *  plane pairs, appended to `out`; returns the overlap tests. */
    std::uint64_t sweep(std::size_t begin, std::size_t end,
                        std::vector<GeomPair> &out) const;

    /** Sort unique pairs by (a, b) with two stable counting passes
     *  over geom ids below `id_limit`. */
    void sortPairs(std::vector<GeomPair> &pairs, std::size_t id_limit);

    std::size_t storageCapacity() const;

    BroadphaseStats stats_;
    /** Persistent sorted axis (by AABB lo.x, then id). */
    std::vector<Geom *> axis_;
    /** Per-call plane list (capacity persists). */
    std::vector<Geom *> planes_;
    /** Membership stamps indexed by geom id: stamp_[id] == gen_
     *  means the geom is in this step's bounded set. */
    std::vector<std::uint32_t> stamp_;
    std::uint32_t gen_ = 0;
    /** Sweep output of chunks 1..n-1: slots_[c - 1] is chunk c's. */
    std::vector<SweepSlot> slots_;
    /** Counting-sort scratch: id histogram and the pass-1 output. */
    std::vector<std::uint32_t> idCounts_;
    std::vector<GeomPair> sortScratch_;
};

} // namespace parallax

#endif // PARALLAX_PHYSICS_BROADPHASE_BROADPHASE_HH
