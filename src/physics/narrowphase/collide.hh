/**
 * @file
 * Narrowphase collision dispatcher.
 *
 * Determines the contact points between each pair of colliding geoms
 * (section 3.2). Every object-pair is independent of every other,
 * which is the source of this phase's massive fine-grain parallelism:
 * World runs the pairs as stealable chunks, one collide() call per
 * pair, under every kernel backend (there is no vector narrowphase;
 * DESIGN.md section 13 gives the measurement).
 */

#ifndef PARALLAX_PHYSICS_NARROWPHASE_COLLIDE_HH
#define PARALLAX_PHYSICS_NARROWPHASE_COLLIDE_HH

#include <vector>

#include "contact.hh"

namespace parallax
{

/** Maximum contacts generated for one pair (ODE-style manifold cap). */
constexpr int maxContactsPerPair = 4;

/**
 * Stateless narrowphase: dispatches on the shape types of the two
 * geoms and appends contact points to `out`.
 */
class Narrowphase
{
  public:
    /**
     * Generate contacts for one pair (at most maxContactsPerPair).
     *
     * @return Number of contacts appended.
     */
    int collide(const Geom &a, const Geom &b, std::vector<Contact> &out);

    const NarrowphaseStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

  private:
    /**
     * Dispatch with canonical type ordering; `flipped` records that
     * the caller's (a, b) were swapped so ids/normals are restored.
     */
    void collideOrdered(const Geom &a, const Geom &b,
                        std::vector<Contact> &out, bool flipped);

    void collideBoxBox(const Geom &a, const Geom &b,
                       std::vector<Contact> &out, bool flipped);
    void collideBoxPlane(const Geom &a, const Geom &b,
                         std::vector<Contact> &out, bool flipped);
    void collideCapsuleCapsule(const Geom &a, const Geom &b,
                               std::vector<Contact> &out, bool flipped);
    void collideSampledVsStatic(const Geom &a, const Geom &b,
                                std::vector<Contact> &out, bool flipped);

    NarrowphaseStats stats_;
};

} // namespace parallax

#endif // PARALLAX_PHYSICS_NARROWPHASE_COLLIDE_HH
