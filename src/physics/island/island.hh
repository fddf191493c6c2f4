/**
 * @file
 * Island creation: connected components of interacting objects.
 *
 * After joints and contacts link interacting objects together, the
 * engine steps through all objects to form islands (section 3.2).
 * This phase is serializing: the full contact topology isn't known
 * until the last pair is examined, and only then can the constraint
 * solvers begin. Islands are independent of one another, which is
 * the source of Island Processing's coarse-grain parallelism.
 */

#ifndef PARALLAX_PHYSICS_ISLAND_ISLAND_HH
#define PARALLAX_PHYSICS_ISLAND_ISLAND_HH

#include <cstdint>
#include <span>
#include <vector>

#include "physics/body.hh"
#include "physics/joints/contact_constraint.hh"
#include "physics/joints/joint.hh"

namespace parallax
{

/**
 * A connected component of dynamic bodies, their joints and their
 * contacts. The member lists are views into the IslandBuilder's flat
 * arrays: valid until that builder's next build(). Contacts point
 * into the contact pool the builder was given.
 */
struct Island
{
    std::span<RigidBody *> bodies;
    std::span<Joint *> joints;
    std::span<ContactConstraint *> contacts;
    /** Total constraint rows (degrees of freedom removed): the
     *  joints' rows plus three per contact, summed once at build
     *  time. */
    int rows = 0;
};

/** Observability counters for the island-creation phase. */
struct IslandStats
{
    std::uint64_t bodiesVisited = 0;
    /** Joints plus contacts. */
    std::uint64_t jointsVisited = 0;
    std::uint64_t unionOps = 0;
    std::uint64_t findOps = 0;
    std::uint64_t islandsCreated = 0;
    std::uint64_t largestIslandRows = 0;
    std::uint64_t largestIslandBodies = 0;

    void
    reset()
    {
        *this = IslandStats();
    }
};

/**
 * Union-find island builder.
 *
 * Joints and contacts merge the components of their dynamic
 * endpoints; links to static bodies (or the world) keep the dynamic
 * body's component. The joints are united first, then the contacts.
 * Disabled bodies and broken joints are skipped. Output islands and
 * their member lists are deterministic.
 *
 * Members live in three flat arrays owned by the builder, grouped by
 * island (a counting sort on the island index): bodies in body-id
 * order, joints and contacts in input order within each island.
 * Every array keeps its capacity across builds, so a warmed-up
 * builder allocates nothing whatever the island sizes.
 */
class IslandBuilder
{
  public:
    /**
     * Build islands into `out` (resized; capacity kept), stamping
     * each body's islandId and its dense solverIndex (position
     * within its island's body list). The islands' body and joint
     * spans point into this builder and stay valid until its next
     * build(); their contacts point into `contacts`.
     *
     * @param bodies All bodies in the world (indexed by BodyId).
     * @param joints Permanent joints to consider.
     * @param contacts This step's contact pool.
     */
    void build(const std::vector<RigidBody *> &bodies,
               const std::vector<Joint *> &joints,
               std::span<ContactConstraint> contacts,
               std::vector<Island> &out);

    /** Convenience wrapper returning a fresh island list (its spans
     *  still point into this builder and into `contacts`). */
    std::vector<Island>
    build(const std::vector<RigidBody *> &bodies,
          const std::vector<Joint *> &joints,
          std::span<ContactConstraint> contacts = {})
    {
        std::vector<Island> islands;
        build(bodies, joints, contacts, islands);
        return islands;
    }

    const IslandStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

  private:
    std::uint32_t find(std::uint32_t i);

    std::vector<std::uint32_t> parent_;
    /** Union-find root -> island index, cleared (by fill) per build;
     *  sized to the body count like parent_. */
    std::vector<std::uint32_t> rootToIsland_;
    /** Members of every island, grouped by island index. */
    std::vector<RigidBody *> bodies_;
    std::vector<Joint *> joints_;
    std::vector<ContactConstraint *> contacts_;
    /** Per input joint, then per contact: the body id of its first
     *  dynamic endpoint (the island it joins), ~0 for broken or
     *  all-static links. */
    std::vector<std::uint32_t> jointOwner_;
    std::vector<std::uint32_t> contactOwner_;
    /** Per island: member counts, then fill cursors. */
    std::vector<std::uint32_t> bodyCursor_;
    std::vector<std::uint32_t> jointCursor_;
    std::vector<std::uint32_t> contactCursor_;
    IslandStats stats_;
};

} // namespace parallax

#endif // PARALLAX_PHYSICS_ISLAND_ISLAND_HH
