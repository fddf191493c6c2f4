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
                             std::vector<GeomPair> &out)
{
    stats_.geomsConsidered += geoms.size();
    out.clear();
    const std::size_t cap_before = axis_.capacity() +
                                   planes_.capacity() +
                                   active_.capacity() +
                                   stamp_.capacity();

    // Classify this step's geoms, stamping bounded membership so a
    // set change (spawn, enable/disable, shape swap to plane) is
    // detected against the persistent axis.
    ++gen_;
    planes_.clear();
    std::size_t bounded_count = 0;
    for (Geom *g : geoms) {
        if (!g->enabled())
            continue;
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

    // Linear sweep with an active window.
    active_.clear();
    for (Geom *g : axis_) {
        const Aabb &gb = g->bounds();
        // Retire actives that end before this box begins.
        std::erase_if(active_, [&](const Geom *other) {
            return other->bounds().hi.x < gb.lo.x;
        });
        for (Geom *other : active_) {
            ++stats_.overlapTests;
            const Aabb &ob = other->bounds();
            const bool yz = gb.lo.y <= ob.hi.y && gb.hi.y >= ob.lo.y &&
                            gb.lo.z <= ob.hi.z && gb.hi.z >= ob.lo.z;
            if (yz && pairEligible(*g, *other))
                out.push_back(canonical(g->id(), other->id()));
        }
        active_.push_back(g);
    }

    // Planes pair with every eligible bounded geom.
    for (Geom *p : planes_) {
        for (Geom *g : axis_) {
            ++stats_.overlapTests;
            if (pairEligible(*p, *g))
                out.push_back(canonical(p->id(), g->id()));
        }
    }

    std::sort(out.begin(), out.end(),
              [](const GeomPair &x, const GeomPair &y) {
                  return x.a != y.a ? x.a < y.a : x.b < y.b;
              });
    stats_.pairsFound += out.size();
    if (axis_.capacity() + planes_.capacity() + active_.capacity() +
            stamp_.capacity() >
        cap_before)
        ++stats_.storageGrowths;
}

} // namespace parallax
