/**
 * @file
 * Position-based cloth simulation (Jakobsen's approach).
 *
 * A cloth object is a triangular mesh where each edge is a length
 * constraint. Constraints are solved with an iterative relaxation
 * solver and the mesh is simulated forward in time with a Verlet
 * integrator; collision resolution uses vertex projection (section
 * 3.2). Each vertex is an independent fine-grain task.
 */

#ifndef PARALLAX_PHYSICS_CLOTH_CLOTH_HH
#define PARALLAX_PHYSICS_CLOTH_CLOTH_HH

#include <cstdint>
#include <vector>

#include "physics/geom.hh"
#include "physics/kernels/kernel_backend.hh"
#include "physics/math/aabb.hh"
#include "physics/math/vec3.hh"

namespace parallax
{

/** Identifier of a cloth object within its World. */
using ClothId = std::uint32_t;

/** Observability counters for the cloth phase. */
struct ClothStats
{
    std::uint64_t clothsStepped = 0;
    std::uint64_t verticesIntegrated = 0;
    std::uint64_t constraintRelaxations = 0;
    std::uint64_t collisionTests = 0;
    std::uint64_t collisionsResolved = 0;
    /** Vector-engine counters (zero under the Scalar backend). */
    KernelStats kernels;

    void
    reset()
    {
        *this = ClothStats();
    }
};

/**
 * One cloth collider, posed once per Cloth::step: the geom, its
 * worldPose() at cloth time, what the exact projection derives from
 * the pose alone, and a reach box outside which the projection
 * cannot move a point.
 */
struct ClothCollider
{
    Aabb reach;
    const Geom *geom = nullptr;
    ShapeType type = ShapeType::Sphere;
    Transform pose;
    /** Capsule axis end points (CapsuleShape::segment at `pose`). */
    Vec3 a;
    Vec3 b;
};

/**
 * Pose `geom` for one cloth step with projection margin `margin`.
 * The reach box, padded by 1e-6 m so that rounding in the exact
 * tests never matters, is per shape:
 * - sphere, capsule: the shape's AABB at the pose, inflated by the
 *   margin;
 * - box: the AABB of the box with half extents h + margin, bounded
 *   by the h-box's AABB inflated by sqrt(3) x margin (inflating it
 *   by the margin alone is not conservative for a rotated box);
 * - heightfield: the x/z footprint, from -inf up to the maximum
 *   height plus the margin (points anywhere below the surface are
 *   pushed up);
 * - plane with a normal of exactly +-x, +-y or +-z: the half-space
 *   up to offset + margin along the normal (its distance is then
 *   exactly +-coordinate - offset); any other plane: unbounded;
 * - trimesh: empty (clothProjectOut never moves a point).
 * A pose that is not finite, or whose rotation is not a unit
 * quaternion to 1e-12, gets an unbounded reach box.
 */
ClothCollider poseClothCollider(const Geom &geom, Real margin);

/**
 * The skip rule: true only when `point` is finite and outside the
 * collider's reach box, so clothProjectOut(collider, point) would
 * return false without touching `point`. Written as "outside" with
 * < and >, so a NaN bound never culls, and a vertex with a NaN or
 * infinite coordinate is never skipped.
 */
bool clothReachSkips(const ClothCollider &collider, const Vec3 &point);

/**
 * The exact vertex projection: push `point` out of the posed
 * collider to `margin` off its surface; returns true if it was
 * inside (closer than the margin).
 */
bool clothProjectOut(const ClothCollider &collider, Vec3 &point,
                     Real margin);

/**
 * A rectangular cloth patch: nx-by-ny particles joined by structural
 * and shear (diagonal) distance constraints, forming the triangular
 * mesh of the paper. Large cloths use 625 vertices (25x25); small
 * ones attached to virtual humans use 25 (5x5).
 */
class Cloth
{
  public:
    struct Particle
    {
        Vec3 position;
        Vec3 previous;
        Real invMass = 1.0; // 0 pins the particle in place.
    };

    struct DistanceConstraint
    {
        std::uint32_t a;
        std::uint32_t b;
        Real restLength;
    };

    /**
     * Build a cloth patch in the XZ plane starting at `origin`,
     * spaced `spacing` apart, with total mass `mass`.
     */
    Cloth(ClothId id, int nx, int ny, const Vec3 &origin, Real spacing,
          Real mass);

    ClothId id() const { return id_; }
    int vertexCount() const { return static_cast<int>(particles_.size()); }
    int constraintCount() const
    { return static_cast<int>(constraints_.size()); }

    const std::vector<Particle> &particles() const { return particles_; }
    const std::vector<DistanceConstraint> &constraints() const
    { return constraints_; }

    /** Pin a particle so it never moves (attachment points). */
    void pin(std::uint32_t index);

    /** Replace all particle states (snapshot replay). Fails (returns
     *  false) if the count does not match this cloth's mesh. */
    bool restoreParticles(const std::vector<Particle> &particles);

    /** Displace a pinned particle (to follow an attached body). */
    void movePinned(std::uint32_t index, const Vec3 &position);

    /** Bounding volume of all particles, inflated by a margin. */
    Aabb bounds(Real margin = 0.2) const;

    /**
     * Advance the cloth one step: Verlet integration under gravity,
     * then `iterations` sweeps that each relax every constraint and
     * project every free vertex out of the given collider geoms, in
     * list order. The colliders are posed once at the top of the
     * step (poseClothCollider). Projection runs collider by collider
     * over fixed tiles of the vertex grid: a tile whose free
     * vertices are all finite and whose box is disjoint from the
     * collider's reach box is skipped whole, and every other vertex
     * meets the skip rule and the exact projection. Each vertex thus
     * still meets the colliders in list order, and each culled pair
     * still counts in `stats.collisionTests`. Integration and
     * relaxation run on the given kernel backend (nullptr = the
     * scalar reference); collision projection is always scalar.
     */
    void step(Real dt, const Vec3 &gravity, int iterations,
              const std::vector<const Geom *> &colliders,
              ClothStats &stats,
              const KernelBackend *backend = nullptr);

  private:
    /** Copy the AoS particle state into the SoA streams. */
    void syncSoa();
    /** Copy the SoA streams back into the AoS particle state. */
    void writeBackSoa();
    /** Box each tile's finite free vertices (tiles_). */
    void boundTiles();
    /** Project the free vertices out of every posed collider. */
    void projectVertices(Real margin, ClothStats &stats);

    /**
     * Edge of a projection tile, in grid vertices. Tiles beat runs of
     * consecutive vertices: on Deformable (scale 1.0, 200 steps) the
     * 625-vertex cloths made 26,848 per-vertex reach tests per step
     * in 5x5 tiles against 53,755 in runs of 25, both with 10,500
     * tile tests; 4x4 tiles made 21,290 with 20,580 tile tests and
     * ran no faster.
     */
    static constexpr int tileSize = 5;

    /** Columns [i0, i1) of grid rows [j0, j1), and a box over the
     *  tile's finite free vertices, kept a superset of their
     *  positions while a sweep projects them. */
    struct VertexTile
    {
        int i0 = 0, i1 = 0, j0 = 0, j1 = 0;
        Aabb box;
        /** Every free vertex in the tile has been finite. */
        bool allFinite = true;

        /** Take in a free vertex's (new) position. */
        void
        add(const Vec3 &pos)
        {
            if (finite(pos))
                box.extend(pos);
            else
                allFinite = false;
        }
    };

    /** Call fn(i) for each free vertex index i of `tile`. */
    template <typename Fn>
    void forEachFreeVertex(const VertexTile &tile, Fn &&fn) const;

    ClothId id_;
    int nx_;
    int ny_;
    std::vector<Particle> particles_;
    std::vector<DistanceConstraint> constraints_;

    // SoA particle streams the kernels run on: synced from
    // particles_ at the top of step() and written back at the end,
    // so the public AoS view (particles(), capture, render) is
    // unchanged. Sized once in the constructor.
    std::vector<Real> px_, py_, pz_, qx_, qy_, qz_, w_;

    // Constraint endpoint/rest streams in wavefront order
    // (wavefrontEdges over construction order: still the scalar
    // bitwise reference, since each particle meets its constraints
    // in construction order) plus the Native backend's color-major
    // permutation of construction order. Both are built once here —
    // constraints never change after construction. constraints_
    // keeps construction order.
    std::vector<std::int32_t> consA_, consB_;
    std::vector<Real> consRest_;
    std::vector<std::int32_t> coloredA_, coloredB_;
    std::vector<Real> coloredRest_;
    EdgeColoring coloring_;

    // This step's posed colliders: cleared each step, so it grows
    // only when the collider list does.
    std::vector<ClothCollider> posed_;
    // The tiles covering the grid, row-major, laid out here.
    std::vector<VertexTile> tiles_;
};

} // namespace parallax

#endif // PARALLAX_PHYSICS_CLOTH_CLOTH_HH
