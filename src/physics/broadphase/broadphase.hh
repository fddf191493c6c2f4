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
 * Geoms are sorted by AABB minimum along the X axis; a linear sweep
 * keeps an active window and tests Y/Z overlap only for X-overlapping
 * boxes. Unbounded geoms (planes) are handled out of band and paired
 * with every eligible bounded geom.
 *
 * The sorted axis persists across steps. When the geom set is
 * unchanged, the axis is repaired with one insertion-sort pass —
 * near-linear under temporal coherence, and producing exactly the
 * order a full sort would (the comparator is a strict total order),
 * so results stay bitwise identical. Any membership change triggers
 * a full rebuild.
 */
class SweepAndPrune
{
  public:
    /**
     * Find all candidate pairs among the given geoms, into `out`
     * (cleared first; capacity kept). Geoms whose bodies are
     * disabled are skipped; pairs where neither side can move (both
     * static) are filtered; pairs sharing a body are filtered. Pair
     * ordering is canonical (a < b) and deterministic.
     */
    void findPairsInto(const std::vector<Geom *> &geoms,
                       std::vector<GeomPair> &out);

    /** Convenience wrapper returning a fresh pair list. */
    std::vector<GeomPair>
    findPairs(const std::vector<Geom *> &geoms)
    {
        std::vector<GeomPair> pairs;
        findPairsInto(geoms, pairs);
        return pairs;
    }

    const BroadphaseStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

  private:
    BroadphaseStats stats_;
    /** Persistent sorted axis (by AABB lo.x, then id). */
    std::vector<Geom *> axis_;
    /** Per-call plane list and sweep window (capacity persists). */
    std::vector<Geom *> planes_;
    std::vector<Geom *> active_;
    /** Membership stamps indexed by geom id: stamp_[id] == gen_
     *  means the geom is in this step's bounded set. */
    std::vector<std::uint32_t> stamp_;
    std::uint32_t gen_ = 0;
};

} // namespace parallax

#endif // PARALLAX_PHYSICS_BROADPHASE_BROADPHASE_HH
