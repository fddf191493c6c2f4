/**
 * @file
 * Unbounded / environment shapes: plane, heightfield, trimesh.
 *
 * These model the terrain features of Table 2 ("uneven surfaces
 * described by heightfields or trimeshes") and static obstacles. They
 * are always attached to static bodies: they participate in collision
 * detection but never in forward stepping.
 */

#ifndef PARALLAX_PHYSICS_SHAPES_STATIC_SHAPES_HH
#define PARALLAX_PHYSICS_SHAPES_STATIC_SHAPES_HH

#include <cstdint>
#include <vector>

#include "shape.hh"

namespace parallax
{

/** Infinite plane: dot(normal, p) == offset, normal pointing "up". */
class PlaneShape : public Shape
{
  public:
    PlaneShape(const Vec3 &normal, Real offset);

    ShapeType type() const override { return ShapeType::Plane; }
    Aabb bounds(const Transform &pose) const override;
    Real volume() const override { return 0.0; }
    Mat3 unitInertia() const override { return Mat3::identity(); }

    const Vec3 &normal() const { return normal_; }
    Real offset() const { return offset_; }

    /** Signed distance from a point to the plane. */
    Real distance(const Vec3 &p) const { return normal_.dot(p) - offset_; }

  private:
    Vec3 normal_;
    Real offset_;
};

/**
 * Regular-grid heightfield over the local XZ plane.
 *
 * Heights are stored row-major (nx columns by nz rows) with uniform
 * cell spacing. Collision queries bilinearly interpolate the surface
 * height under a point.
 */
class HeightfieldShape : public Shape
{
  public:
    HeightfieldShape(std::vector<Real> heights, int nx, int nz,
                     Real spacing);

    ShapeType type() const override { return ShapeType::Heightfield; }
    Aabb bounds(const Transform &pose) const override;
    Real volume() const override { return 0.0; }
    Mat3 unitInertia() const override { return Mat3::identity(); }

    int nx() const { return nx_; }
    int nz() const { return nz_; }
    Real spacing() const { return spacing_; }

    /** Raw height at grid coordinates, clamped to the grid. */
    Real heightAt(int ix, int iz) const;

    /** Interpolated surface height at local (x, z). */
    Real sampleHeight(Real x, Real z) const;

    /** Approximate surface normal at local (x, z). */
    Vec3 sampleNormal(Real x, Real z) const;

    /** Local-space extents of the grid footprint. */
    Real width() const { return spacing_ * (nx_ - 1); }
    Real depth() const { return spacing_ * (nz_ - 1); }

  private:
    std::vector<Real> heights_;
    int nx_;
    int nz_;
    Real spacing_;
    Real minHeight_;
    Real maxHeight_;
};

/**
 * Triangle mesh used for static environment geometry.
 *
 * Narrowphase treats trimesh collisions approximately: spheres and
 * boxes test against each triangle's plane within the triangle's
 * bounds. A uniform grid over the mesh accelerates triangle lookup.
 */
class TriMeshShape : public Shape
{
  public:
    struct Triangle
    {
        std::uint32_t a;
        std::uint32_t b;
        std::uint32_t c;
    };

    TriMeshShape(std::vector<Vec3> vertices,
                 std::vector<Triangle> triangles);

    ShapeType type() const override { return ShapeType::TriMesh; }
    Aabb bounds(const Transform &pose) const override;
    Real volume() const override { return 0.0; }
    Mat3 unitInertia() const override { return Mat3::identity(); }

    const std::vector<Vec3> &vertices() const { return vertices_; }
    const std::vector<Triangle> &triangles() const { return triangles_; }

    /** Indices of triangles whose AABB overlaps the local-space box. */
    std::vector<std::uint32_t> query(const Aabb &local_box) const;

    /**
     * Allocation-free query: call `fn(index)` for each triangle whose
     * AABB overlaps the local-space box, in index order, until `fn`
     * returns false.
     */
    template <typename Fn>
    void
    visitOverlaps(const Aabb &local_box, Fn &&fn) const
    {
        for (std::uint32_t i = 0; i < triBounds_.size(); ++i) {
            if (triBounds_[i].overlaps(local_box) && !fn(i))
                return;
        }
    }

    /** World-space corners of one triangle. */
    void triangleCorners(std::uint32_t index, const Transform &pose,
                         Vec3 &a, Vec3 &b, Vec3 &c) const;

  private:
    std::vector<Vec3> vertices_;
    std::vector<Triangle> triangles_;
    std::vector<Aabb> triBounds_;
    Aabb localBounds_;
};

} // namespace parallax

#endif // PARALLAX_PHYSICS_SHAPES_STATIC_SHAPES_HH
