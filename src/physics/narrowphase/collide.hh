/**
 * @file
 * Narrowphase collision dispatcher.
 *
 * Determines the contact points between each pair of colliding geoms
 * (section 3.2). Every object-pair is independent of every other,
 * which is the source of this phase's massive fine-grain parallelism.
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

    /**
     * Batched pair testing: accumulate pairs with batchAdd, then
     * batchRun appends their contacts to `out` in the order the
     * pairs were added — exactly the contacts (and stats) the
     * per-pair collide() loop would produce. Under a Native backend
     * the sphere/sphere and sphere/box pairs run through the SIMD
     * batch kernels; every other shape combination (and the deep
     * sphere-in-box case) falls through to the scalar dispatcher.
     */
    void batchClear();
    void batchAdd(const Geom *a, const Geom *b);
    void batchRun(std::vector<Contact> &out);

    /** Select the kernel backend for batched pair tests. nullptr
     *  (the default) means the scalar reference backend. */
    void setBackend(const KernelBackend *backend) { backend_ = backend; }

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
    const KernelBackend *backend_ = nullptr;

    // Batch scratch, persistent across batchRun calls (capacity is
    // paid once per instance; one instance per lane keeps it
    // race-free).
    std::vector<const Geom *> pairA_, pairB_;
    std::vector<std::uint8_t> pairKind_, pairFlip_;
    std::vector<std::int32_t> pairSlot_;
    SphereSphereBatch ssBatch_;
    SphereBoxBatch sbBatch_;
};

} // namespace parallax

#endif // PARALLAX_PHYSICS_NARROWPHASE_COLLIDE_HH
