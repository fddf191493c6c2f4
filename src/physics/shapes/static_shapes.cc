#include "static_shapes.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace parallax
{

PlaneShape::PlaneShape(const Vec3 &normal, Real offset)
    : normal_(normal.normalized()), offset_(offset)
{
    if (normal.lengthSquared() < 1e-12)
        fatal("plane normal must be non-zero");
}

Aabb
PlaneShape::bounds(const Transform &) const
{
    // Unbounded: return a huge box so the broadphase always keeps it.
    const Real big = 1e9;
    return {{-big, -big, -big}, {big, big, big}};
}

HeightfieldShape::HeightfieldShape(std::vector<Real> heights, int nx,
                                   int nz, Real spacing)
    : heights_(std::move(heights)), nx_(nx), nz_(nz), spacing_(spacing)
{
    if (nx < 2 || nz < 2)
        fatal("heightfield needs at least a 2x2 grid");
    if (spacing <= 0)
        fatal("heightfield spacing must be positive");
    if (heights_.size() != static_cast<size_t>(nx) * nz)
        fatal("heightfield data size %zu != %d x %d", heights_.size(),
              nx, nz);
    const auto [lo, hi] =
        std::minmax_element(heights_.begin(), heights_.end());
    minHeight_ = *lo;
    maxHeight_ = *hi;
}

Aabb
HeightfieldShape::bounds(const Transform &pose) const
{
    // Heightfields are axis-aligned in practice (static terrain);
    // bound the grid footprint translated by the pose.
    const Vec3 lo = pose.position + Vec3{0.0, minHeight_, 0.0};
    const Vec3 hi = pose.position +
        Vec3{width(), maxHeight_, depth()};
    Aabb box;
    box.extend(lo);
    box.extend(hi);
    return box;
}

Real
HeightfieldShape::heightAt(int ix, int iz) const
{
    ix = std::clamp(ix, 0, nx_ - 1);
    iz = std::clamp(iz, 0, nz_ - 1);
    return heights_[static_cast<size_t>(iz) * nx_ + ix];
}

Real
HeightfieldShape::sampleHeight(Real x, Real z) const
{
    const Real fx = std::clamp(x / spacing_, 0.0, Real(nx_ - 1));
    const Real fz = std::clamp(z / spacing_, 0.0, Real(nz_ - 1));
    const int ix = static_cast<int>(fx);
    const int iz = static_cast<int>(fz);
    const Real tx = fx - ix;
    const Real tz = fz - iz;
    const Real h00 = heightAt(ix, iz);
    const Real h10 = heightAt(ix + 1, iz);
    const Real h01 = heightAt(ix, iz + 1);
    const Real h11 = heightAt(ix + 1, iz + 1);
    const Real h0 = h00 * (1 - tx) + h10 * tx;
    const Real h1 = h01 * (1 - tx) + h11 * tx;
    return h0 * (1 - tz) + h1 * tz;
}

Vec3
HeightfieldShape::sampleNormal(Real x, Real z) const
{
    const Real eps = spacing_ * 0.5;
    const Real hl = sampleHeight(x - eps, z);
    const Real hr = sampleHeight(x + eps, z);
    const Real hd = sampleHeight(x, z - eps);
    const Real hu = sampleHeight(x, z + eps);
    const Vec3 n{(hl - hr) / (2 * eps), 1.0, (hd - hu) / (2 * eps)};
    return n.normalized();
}

TriMeshShape::TriMeshShape(std::vector<Vec3> vertices,
                           std::vector<Triangle> triangles)
    : vertices_(std::move(vertices)), triangles_(std::move(triangles))
{
    if (vertices_.empty() || triangles_.empty())
        fatal("trimesh needs at least one vertex and one triangle");
    triBounds_.reserve(triangles_.size());
    for (const auto &tri : triangles_) {
        if (tri.a >= vertices_.size() || tri.b >= vertices_.size() ||
            tri.c >= vertices_.size()) {
            fatal("trimesh triangle index out of range");
        }
        Aabb box;
        box.extend(vertices_[tri.a]);
        box.extend(vertices_[tri.b]);
        box.extend(vertices_[tri.c]);
        triBounds_.push_back(box);
        localBounds_.merge(box);
    }
}

Aabb
TriMeshShape::bounds(const Transform &pose) const
{
    // Transform the 8 corners of the local bounds.
    Aabb box;
    for (int i = 0; i < 8; ++i) {
        const Vec3 corner{(i & 1) ? localBounds_.hi.x : localBounds_.lo.x,
                          (i & 2) ? localBounds_.hi.y : localBounds_.lo.y,
                          (i & 4) ? localBounds_.hi.z : localBounds_.lo.z};
        box.extend(pose.apply(corner));
    }
    return box;
}

std::vector<std::uint32_t>
TriMeshShape::query(const Aabb &local_box) const
{
    std::vector<std::uint32_t> hits;
    visitOverlaps(local_box, [&hits](std::uint32_t i) {
        hits.push_back(i);
        return true;
    });
    return hits;
}

void
TriMeshShape::triangleCorners(std::uint32_t index, const Transform &pose,
                              Vec3 &a, Vec3 &b, Vec3 &c) const
{
    parallax_assert(index < triangles_.size());
    const Triangle &tri = triangles_[index];
    a = pose.apply(vertices_[tri.a]);
    b = pose.apply(vertices_[tri.b]);
    c = pose.apply(vertices_[tri.c]);
}

} // namespace parallax
