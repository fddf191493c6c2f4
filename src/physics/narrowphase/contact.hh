/**
 * @file
 * Contact points produced by the narrowphase.
 */

#ifndef PARALLAX_PHYSICS_NARROWPHASE_CONTACT_HH
#define PARALLAX_PHYSICS_NARROWPHASE_CONTACT_HH

#include <cstdint>

#include "physics/geom.hh"
#include "physics/math/vec3.hh"

namespace parallax
{

/**
 * A single contact point between two geoms.
 *
 * The normal points from geom B toward geom A; pushing A along the
 * normal (and B against it) separates the pair. Depth is the
 * penetration distance (positive when overlapping).
 */
struct Contact
{
    Vec3 position;
    Vec3 normal;
    Real depth = 0.0;
    GeomId geomA = invalidGeomId;
    GeomId geomB = invalidGeomId;
};

/** Observability counters for the narrowphase phase. */
struct NarrowphaseStats
{
    std::uint64_t pairsTested = 0;
    std::uint64_t pairsColliding = 0;
    std::uint64_t contactsCreated = 0;
    /** Pair tests by (unordered) shape-type combination. */
    std::uint64_t testsByType[6][6] = {};

    void
    reset()
    {
        *this = NarrowphaseStats();
    }

    /** Fold another instance's counters into this one. */
    void
    merge(const NarrowphaseStats &o)
    {
        pairsTested += o.pairsTested;
        pairsColliding += o.pairsColliding;
        contactsCreated += o.contactsCreated;
        for (int i = 0; i < 6; ++i)
            for (int j = 0; j < 6; ++j)
                testsByType[i][j] += o.testsByType[i][j];
    }
};

} // namespace parallax

#endif // PARALLAX_PHYSICS_NARROWPHASE_CONTACT_HH
