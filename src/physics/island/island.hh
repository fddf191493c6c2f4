/**
 * @file
 * Island creation: connected components of interacting objects.
 *
 * After contact joints link interacting objects together, the engine
 * steps through all objects to form islands (section 3.2). This phase
 * is serializing: the full contact topology isn't known until the
 * last pair is examined, and only then can the constraint solvers
 * begin. Islands are independent of one another, which is the source
 * of Island Processing's coarse-grain parallelism.
 */

#ifndef PARALLAX_PHYSICS_ISLAND_ISLAND_HH
#define PARALLAX_PHYSICS_ISLAND_ISLAND_HH

#include <cstdint>
#include <span>
#include <vector>

#include "physics/body.hh"
#include "physics/joints/joint.hh"

namespace parallax
{

/**
 * A connected component of dynamic bodies and their joints. The
 * member lists are views into the IslandBuilder's flat arrays: valid
 * until that builder's next build().
 */
struct Island
{
    std::span<RigidBody *> bodies;
    std::span<Joint *> joints;
    /** Total constraint rows (degrees of freedom removed), summed
     *  once at build time. */
    int rows = 0;
};

/** Observability counters for the island-creation phase. */
struct IslandStats
{
    std::uint64_t bodiesVisited = 0;
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
 * Joints merge the components of their dynamic endpoints; joints to
 * static bodies (or the world) keep the dynamic body's component.
 * Disabled bodies and broken joints are skipped. Output islands and
 * their member lists are deterministic.
 *
 * Members live in two flat arrays owned by the builder, grouped by
 * island (a counting sort on the island index): bodies in body-id
 * order and joints in input order within each island. Every array
 * keeps its capacity across builds, so a warmed-up builder allocates
 * nothing whatever the island sizes.
 */
class IslandBuilder
{
  public:
    /**
     * Build islands into `out` (resized; capacity kept), stamping
     * each body's islandId and its dense solverIndex (position
     * within its island's body list). The islands' spans point into
     * this builder and stay valid until its next build().
     *
     * @param bodies All bodies in the world (indexed by BodyId).
     * @param joints Joints to consider (typically permanent joints
     *               plus this step's contact joints).
     */
    void build(const std::vector<RigidBody *> &bodies,
               const std::vector<Joint *> &joints,
               std::vector<Island> &out);

    /** Convenience wrapper returning a fresh island list (its spans
     *  still point into this builder). */
    std::vector<Island>
    build(const std::vector<RigidBody *> &bodies,
          const std::vector<Joint *> &joints)
    {
        std::vector<Island> islands;
        build(bodies, joints, islands);
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
    /** Per input joint: the body id of its first dynamic endpoint
     *  (the island it joins), ~0 for broken or all-static joints. */
    std::vector<std::uint32_t> jointOwner_;
    /** Per island: member counts, then fill cursors. */
    std::vector<std::uint32_t> bodyCursor_;
    std::vector<std::uint32_t> jointCursor_;
    IslandStats stats_;
};

} // namespace parallax

#endif // PARALLAX_PHYSICS_ISLAND_ISLAND_HH
