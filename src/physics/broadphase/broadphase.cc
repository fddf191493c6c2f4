#include "broadphase.hh"

#include <algorithm>

namespace parallax
{

namespace
{

/** True for geoms whose AABB is effectively infinite (planes). */
bool
unbounded(const Geom &g)
{
    return g.shape().type() == ShapeType::Plane;
}

GeomPair
canonical(GeomId a, GeomId b)
{
    if (a > b)
        std::swap(a, b);
    return {a, b};
}

/** Strict total order of the sweep axis: AABB lo.x, ties by id. */
bool
axisLess(const Geom *a, const Geom *b)
{
    if (a->bounds().lo.x != b->bounds().lo.x)
        return a->bounds().lo.x < b->bounds().lo.x;
    return a->id() < b->id();
}

/** True when a pair of geoms should be considered at all. */
bool
pairEligible(const Geom &a, const Geom &b)
{
    if (!a.enabled() || !b.enabled())
        return false;
    // Same body: never collide a body with itself.
    if (a.body() != nullptr && a.body() == b.body())
        return false;
    // Blast volumes are triggers: they pair with anything (including
    // static pre-fractured walls) but not with each other.
    if (a.isBlast() || b.isBlast())
        return !(a.isBlast() && b.isBlast());
    // Two immovable geoms generate no useful contacts.
    const bool a_static = a.body() == nullptr || a.body()->isStatic();
    const bool b_static = b.body() == nullptr || b.body()->isStatic();
    if (a_static && b_static)
        return false;
    return true;
}

} // namespace

void
SweepAndPrune::findPairsInto(const std::vector<Geom *> &geoms,
                             TaskScheduler &scheduler,
                             std::vector<GeomPair> &out,
                             TraceCollector *trace, std::uint64_t step)
{
    stats_.geomsConsidered += geoms.size();
    out.clear();
    const std::size_t cap_before = storageCapacity();

    // Classify this step's geoms, stamping bounded membership so a
    // set change (spawn, enable/disable, shape swap to plane) is
    // detected against the persistent axis.
    ++gen_;
    planes_.clear();
    std::size_t bounded_count = 0;
    std::size_t id_limit = 0;
    for (Geom *g : geoms) {
        if (!g->enabled())
            continue;
        id_limit = std::max<std::size_t>(id_limit, g->id() + 1);
        if (unbounded(*g)) {
            planes_.push_back(g);
            continue;
        }
        if (g->id() >= stamp_.size())
            stamp_.resize(g->id() + 1, 0);
        stamp_[g->id()] = gen_;
        ++bounded_count;
    }

    bool membership_changed = axis_.size() != bounded_count;
    for (std::size_t i = 0; !membership_changed && i < axis_.size();
         ++i) {
        membership_changed = stamp_[axis_[i]->id()] != gen_;
    }

    if (membership_changed) {
        // Rebuild the axis from scratch and fully sort it: the
        // structure update the paper identifies as the serializing
        // part of broadphase.
        axis_.clear();
        for (Geom *g : geoms) {
            if (g->enabled() && !unbounded(*g))
                axis_.push_back(g);
        }
        std::sort(axis_.begin(), axis_.end(), axisLess);
        stats_.structureUpdates += axis_.size();
    } else {
        // Temporal coherence: bodies barely move between substeps,
        // so last step's order is nearly sorted and one
        // insertion-sort pass repairs it in near-linear time. The
        // comparator is a strict total order (ties broken by id), so
        // the repaired order is bitwise identical to a full sort.
        for (std::size_t i = 1; i < axis_.size(); ++i) {
            Geom *g = axis_[i];
            std::size_t j = i;
            while (j > 0 && axisLess(g, axis_[j - 1])) {
                axis_[j] = axis_[j - 1];
                --j;
                ++stats_.structureUpdates;
            }
            axis_[j] = g;
        }
    }

    // The sweep. Scans from different axis positions are independent,
    // so chunks of positions tile across lanes. Chunk 0 writes `out`
    // itself and chunk c >= 1 its own slot, slots_[c - 1]; the slots
    // are appended in chunk order, so a one-chunk sweep touches no
    // slot at all.
    const std::size_t n = axis_.size();
    const TaskScheduler::Tiling tile =
        scheduler.tilingByCost(n, sweepNsPerGeom);
    if (slots_.size() + 1 < tile.chunks)
        slots_.resize(tile.chunks - 1);
    std::uint64_t first_tests = 0;
    scheduler.parallelForByCost(
        n, sweepNsPerGeom,
        [this, &tile, &out, &first_tests, trace,
         step](std::size_t begin, std::size_t end, unsigned lane) {
            const bool tracing = trace != nullptr && trace->enabled();
            const double t0 = tracing ? trace->nowUs() : 0.0;
            const std::size_t chunk = tile.chunkOf(begin);
            if (chunk == 0) {
                first_tests = sweep(begin, end, out);
            } else {
                SweepSlot &slot = slots_[chunk - 1];
                slot.pairs.clear();
                slot.overlapTests = sweep(begin, end, slot.pairs);
            }
            if (tracing) {
                trace->recordSpan(lane, "broadphase_chunk", step, t0,
                                  trace->nowUs(),
                                  static_cast<std::int64_t>(begin));
            }
        });
    stats_.overlapTests += first_tests;
    for (std::size_t c = 1; c < tile.chunks; ++c) {
        const SweepSlot &slot = slots_[c - 1];
        out.insert(out.end(), slot.pairs.begin(), slot.pairs.end());
        stats_.overlapTests += slot.overlapTests;
    }

    sortPairs(out, id_limit);
    stats_.pairsFound += out.size();
    if (storageCapacity() > cap_before)
        ++stats_.storageGrowths;
}

void
SweepAndPrune::forgetGeomsFrom(GeomId first)
{
    auto doomed = [first](const Geom *g) { return g->id() >= first; };
    std::erase_if(axis_, doomed);
    std::erase_if(planes_, doomed);
}

std::vector<GeomPair>
SweepAndPrune::findPairs(const std::vector<Geom *> &geoms)
{
    TaskScheduler serial;
    std::vector<GeomPair> pairs;
    findPairsInto(geoms, serial, pairs);
    return pairs;
}

std::uint64_t
SweepAndPrune::sweep(std::size_t begin, std::size_t end,
                     std::vector<GeomPair> &out) const
{
    std::uint64_t tests = 0;
    const std::size_t n = axis_.size();
    for (std::size_t i = begin; i < end; ++i) {
        const Geom *g = axis_[i];
        const Aabb &gb = g->bounds();
        // Every later geom that starts before g ends overlaps it in
        // X. Later geoms start no earlier than the one before them,
        // so the first that starts past g's end ends the scan.
        for (std::size_t k = i + 1; k < n; ++k) {
            const Geom *later = axis_[k];
            const Aabb &lb = later->bounds();
            if (gb.hi.x < lb.lo.x)
                break;
            ++tests;
            const bool yz = lb.lo.y <= gb.hi.y && lb.hi.y >= gb.lo.y &&
                            lb.lo.z <= gb.hi.z && lb.hi.z >= gb.lo.z;
            if (yz && pairEligible(*later, *g))
                out.push_back(canonical(later->id(), g->id()));
        }
        // Planes pair with every eligible bounded geom.
        for (const Geom *p : planes_) {
            ++tests;
            if (pairEligible(*p, *g))
                out.push_back(canonical(p->id(), g->id()));
        }
    }
    return tests;
}

void
SweepAndPrune::sortPairs(std::vector<GeomPair> &pairs,
                         std::size_t id_limit)
{
    // LSD radix sort on (a, b): a stable counting pass by b, then one
    // by a. Pairs are unique, so this is exactly the order a
    // comparison sort on (a, b) gives, in O(pairs + ids).
    auto pass = [this, id_limit](const std::vector<GeomPair> &in,
                                 std::vector<GeomPair> &to,
                                 GeomId GeomPair::*digit) {
        idCounts_.assign(id_limit + 1, 0);
        for (const GeomPair &p : in)
            ++idCounts_[p.*digit + 1];
        for (std::size_t id = 1; id <= id_limit; ++id)
            idCounts_[id] += idCounts_[id - 1];
        for (const GeomPair &p : in)
            to[idCounts_[p.*digit]++] = p;
    };
    sortScratch_.resize(pairs.size());
    pass(pairs, sortScratch_, &GeomPair::b);
    pass(sortScratch_, pairs, &GeomPair::a);
}

std::size_t
SweepAndPrune::storageCapacity() const
{
    std::size_t total = axis_.capacity() + planes_.capacity() +
                        stamp_.capacity() + slots_.capacity() +
                        idCounts_.capacity() + sortScratch_.capacity();
    for (const SweepSlot &slot : slots_)
        total += slot.pairs.capacity();
    return total;
}

} // namespace parallax
