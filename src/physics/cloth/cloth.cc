#include "cloth.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "physics/shapes/primitives.hh"
#include "physics/shapes/static_shapes.hh"
#include "sim/logging.hh"

namespace parallax
{

Cloth::Cloth(ClothId id, int nx, int ny, const Vec3 &origin,
             Real spacing, Real mass)
    : id_(id), nx_(nx), ny_(ny)
{
    if (nx < 2 || ny < 2)
        fatal("cloth needs at least a 2x2 particle grid");
    if (spacing <= 0 || mass <= 0)
        fatal("cloth spacing and mass must be positive");

    const int count = nx * ny;
    const Real inv_mass = static_cast<Real>(count) / mass;
    particles_.reserve(count);
    for (int j = 0; j < ny; ++j) {
        for (int i = 0; i < nx; ++i) {
            Particle p;
            p.position = origin +
                Vec3{i * spacing, 0.0, j * spacing};
            p.previous = p.position;
            p.invMass = inv_mass;
            particles_.push_back(p);
        }
    }

    auto index = [nx](int i, int j) {
        return static_cast<std::uint32_t>(j * nx + i);
    };
    auto addConstraint = [&](std::uint32_t a, std::uint32_t b) {
        const Real rest =
            (particles_[a].position - particles_[b].position).length();
        constraints_.push_back({a, b, rest});
    };

    // Structural edges plus one shear diagonal per cell: this tiles
    // the patch with triangles (the paper's triangular mesh).
    for (int j = 0; j < ny; ++j) {
        for (int i = 0; i < nx; ++i) {
            if (i + 1 < nx)
                addConstraint(index(i, j), index(i + 1, j));
            if (j + 1 < ny)
                addConstraint(index(i, j), index(i, j + 1));
            if (i + 1 < nx && j + 1 < ny)
                addConstraint(index(i, j), index(i + 1, j + 1));
        }
    }

    // SoA streams for the kernel backends. Both constraint orders
    // are built once here from construction order: the mesh never
    // changes, so the Native backend's conflict-free sweep order and
    // the scalar wavefront order are constants.
    px_.resize(count); py_.resize(count); pz_.resize(count);
    qx_.resize(count); qy_.resize(count); qz_.resize(count);
    w_.resize(count);
    for (int j0 = 0; j0 < ny; j0 += tileSize) {
        for (int i0 = 0; i0 < nx; i0 += tileSize) {
            VertexTile tile;
            tile.i0 = i0;
            tile.i1 = std::min(nx, i0 + tileSize);
            tile.j0 = j0;
            tile.j1 = std::min(ny, j0 + tileSize);
            tiles_.push_back(tile);
        }
    }
    const std::size_t n_cons = constraints_.size();
    std::vector<std::int32_t> a(n_cons), b(n_cons);
    for (std::size_t i = 0; i < n_cons; ++i) {
        a[i] = static_cast<std::int32_t>(constraints_[i].a);
        b[i] = static_cast<std::int32_t>(constraints_[i].b);
    }
    auto permute = [&](const std::vector<std::uint32_t> &order,
                       std::vector<std::int32_t> &pa,
                       std::vector<std::int32_t> &pb,
                       std::vector<Real> &rest) {
        pa.resize(n_cons);
        pb.resize(n_cons);
        rest.resize(n_cons);
        for (std::size_t s = 0; s < n_cons; ++s) {
            const std::size_t i = order[s];
            pa[s] = a[i];
            pb[s] = b[i];
            rest[s] = constraints_[i].restLength;
        }
    };
    colorEdges(a.data(), b.data(), n_cons, particles_.size(), coloring_);
    permute(coloring_.order, coloredA_, coloredB_, coloredRest_);
    std::vector<std::uint32_t> wavefront;
    wavefrontEdges(a.data(), b.data(), n_cons, particles_.size(),
                   wavefront);
    permute(wavefront, consA_, consB_, consRest_);
}

void
Cloth::pin(std::uint32_t index)
{
    parallax_assert(index < particles_.size());
    particles_[index].invMass = 0.0;
}

void
Cloth::movePinned(std::uint32_t index, const Vec3 &position)
{
    parallax_assert(index < particles_.size());
    particles_[index].position = position;
    particles_[index].previous = position;
}

bool
Cloth::restoreParticles(const std::vector<Particle> &particles)
{
    if (particles.size() != particles_.size())
        return false;
    particles_ = particles;
    return true;
}

Aabb
Cloth::bounds(Real margin) const
{
    Aabb box;
    for (const Particle &p : particles_)
        box.extend(p.position);
    return box.inflated(margin);
}

namespace
{

constexpr Real inf = std::numeric_limits<Real>::infinity();
constexpr Aabb unbounded{{-inf, -inf, -inf}, {inf, inf, inf}};

// Every reach box grows by this much more than its rule asks, so
// that rounding in the exact tests never matters.
constexpr Real reachPad = 1e-6;

/**
 * The skip rule's box half, written with < and > so that a NaN bound
 * never culls an axis.
 */
bool
outsideReach(const Aabb &r, const Vec3 &p)
{
    return p.x < r.lo.x || p.x > r.hi.x || p.y < r.lo.y ||
        p.y > r.hi.y || p.z < r.lo.z || p.z > r.hi.z;
}

/**
 * A plane whose normal is exactly +-x, +-y or +-z has distance(p) =
 * +-p[axis] - offset with no rounding (the other two products are
 * zeros), so it can project only points within offset + margin of
 * it along the normal: a half-space box. Any other plane rounds its
 * dot product and stays unbounded.
 */
Aabb
planeReach(const PlaneShape &plane, Real margin)
{
    const Vec3 &n = plane.normal();
    Aabb reach = unbounded;
    for (int axis = 0; axis < 3; ++axis) {
        if (n[(axis + 1) % 3] != 0.0 || n[(axis + 2) % 3] != 0.0 ||
            std::fabs(n[axis]) != 1.0) {
            continue;
        }
        const Real bound = plane.offset() + margin + reachPad;
        if (n[axis] > 0)
            reach.hi[axis] = bound;
        else
            reach.lo[axis] = -bound;
        break;
    }
    return reach;
}

} // namespace

ClothCollider
poseClothCollider(const Geom &geom, Real margin)
{
    ClothCollider c;
    c.geom = &geom;
    c.type = geom.shape().type();
    c.pose = geom.worldPose();
    if (c.type == ShapeType::Capsule) {
        static_cast<const CapsuleShape &>(geom.shape())
            .segment(c.pose, c.a, c.b);
    }

    // The rules below need a finite pose and a rotation. A bodiless
    // geom keeps its offset's quaternion as given, so it may not be
    // unit; the comparison is false for a NaN or infinite one too.
    const Quat &q = c.pose.rotation;
    const Real norm2 = q.w * q.w + q.x * q.x + q.y * q.y + q.z * q.z;
    if (!finite(c.pose.position) || !(std::fabs(norm2 - 1.0) <= 1e-12)) {
        c.reach = unbounded;
        return c;
    }
    const Aabb shape_box = geom.shape().bounds(c.pose);
    switch (c.type) {
      case ShapeType::Sphere:
      case ShapeType::Capsule:
        c.reach = shape_box.inflated(margin + reachPad);
        break;
      case ShapeType::Box:
        // |R|(h + m) <= |R|h + sqrt(3) m: a rotation's rows are unit
        // vectors, so each row's L1 norm is at most sqrt(3).
        c.reach = shape_box.inflated(std::sqrt(3.0) * margin + reachPad);
        break;
      case ShapeType::Heightfield:
        c.reach = shape_box.inflated(margin + reachPad);
        c.reach.lo.y = -inf;
        break;
      case ShapeType::Plane:
        c.reach = planeReach(
            static_cast<const PlaneShape &>(geom.shape()), margin);
        break;
      default:
        break; // Aabb() is empty: every finite point is outside.
    }
    return c;
}

bool
clothReachSkips(const ClothCollider &collider, const Vec3 &point)
{
    return finite(point) && outsideReach(collider.reach, point);
}

bool
clothProjectOut(const ClothCollider &collider, Vec3 &point, Real margin)
{
    const Transform &pose = collider.pose;
    const Shape &shape = collider.geom->shape();
    switch (collider.type) {
      case ShapeType::Sphere: {
        const auto &s = static_cast<const SphereShape &>(shape);
        const Vec3 d = point - pose.position;
        const Real r = s.radius() + margin;
        const Real dist2 = d.lengthSquared();
        if (dist2 >= r * r)
            return false;
        const Real dist = std::sqrt(dist2);
        const Vec3 n = dist > 1e-12 ? d / dist : Vec3{0.0, 1.0, 0.0};
        point = pose.position + n * r;
        return true;
      }
      case ShapeType::Capsule: {
        const auto &c = static_cast<const CapsuleShape &>(shape);
        const Vec3 &a = collider.a;
        const Vec3 ab = collider.b - a;
        const Real len2 = ab.lengthSquared();
        const Real t = len2 > 1e-18
            ? std::clamp((point - a).dot(ab) / len2, 0.0, 1.0)
            : 0.0;
        const Vec3 closest = a + ab * t;
        const Vec3 d = point - closest;
        const Real r = c.radius() + margin;
        const Real dist2 = d.lengthSquared();
        if (dist2 >= r * r)
            return false;
        const Real dist = std::sqrt(dist2);
        const Vec3 n = dist > 1e-12 ? d / dist : Vec3{0.0, 1.0, 0.0};
        point = closest + n * r;
        return true;
      }
      case ShapeType::Box: {
        const auto &bx = static_cast<const BoxShape &>(shape);
        const Vec3 h = bx.halfExtents() +
            Vec3{margin, margin, margin};
        const Vec3 local = pose.applyInverse(point);
        if (std::fabs(local.x) >= h.x || std::fabs(local.y) >= h.y ||
            std::fabs(local.z) >= h.z) {
            return false;
        }
        // Push out through the nearest face.
        const Real dx = h.x - std::fabs(local.x);
        const Real dy = h.y - std::fabs(local.y);
        const Real dz = h.z - std::fabs(local.z);
        Vec3 pushed = local;
        if (dx <= dy && dx <= dz)
            pushed.x = local.x >= 0 ? h.x : -h.x;
        else if (dy <= dz)
            pushed.y = local.y >= 0 ? h.y : -h.y;
        else
            pushed.z = local.z >= 0 ? h.z : -h.z;
        point = pose.apply(pushed);
        return true;
      }
      case ShapeType::Plane: {
        const auto &pl = static_cast<const PlaneShape &>(shape);
        const Real dist = pl.distance(point) - margin;
        if (dist >= 0)
            return false;
        point -= pl.normal() * dist;
        return true;
      }
      case ShapeType::Heightfield: {
        const auto &hf = static_cast<const HeightfieldShape &>(shape);
        const Vec3 local = point - pose.position;
        if (local.x < 0 || local.x > hf.width() || local.z < 0 ||
            local.z > hf.depth()) {
            return false;
        }
        const Real surface = hf.sampleHeight(local.x, local.z) + margin;
        if (local.y >= surface)
            return false;
        point.y = pose.position.y + surface;
        return true;
      }
      default:
        return false;
    }
}

void
Cloth::syncSoa()
{
    const std::size_t n = particles_.size();
    for (std::size_t i = 0; i < n; ++i) {
        const Particle &p = particles_[i];
        px_[i] = p.position.x;
        py_[i] = p.position.y;
        pz_[i] = p.position.z;
        qx_[i] = p.previous.x;
        qy_[i] = p.previous.y;
        qz_[i] = p.previous.z;
        w_[i] = p.invMass;
    }
}

void
Cloth::writeBackSoa()
{
    const std::size_t n = particles_.size();
    for (std::size_t i = 0; i < n; ++i) {
        Particle &p = particles_[i];
        p.position = Vec3{px_[i], py_[i], pz_[i]};
        p.previous = Vec3{qx_[i], qy_[i], qz_[i]};
    }
}

template <typename Fn>
void
Cloth::forEachFreeVertex(const VertexTile &tile, Fn &&fn) const
{
    for (int j = tile.j0; j < tile.j1; ++j) {
        const std::size_t row = static_cast<std::size_t>(j) * nx_;
        for (std::size_t i = row + tile.i0; i < row + tile.i1; ++i) {
            if (w_[i] != 0.0)
                fn(i);
        }
    }
}

void
Cloth::boundTiles()
{
    for (VertexTile &tile : tiles_) {
        tile.box = Aabb();
        tile.allFinite = true;
        forEachFreeVertex(tile, [&](std::size_t i) {
            tile.add({px_[i], py_[i], pz_[i]});
        });
    }
}

void
Cloth::projectVertices(Real margin, ClothStats &stats)
{
    // Collider-major, so each vertex still meets the colliders in
    // list order: a projection depends on its own vertex only.
    for (const ClothCollider &c : posed_) {
        const Aabb &r = c.reach;
        for (VertexTile &tile : tiles_) {
            // Each free vertex in an all-finite tile lies in its box,
            // so a box outside the reach (strict < and >, so a NaN
            // bound never culls) means the skip rule culls them all.
            const Aabb &box = tile.box;
            if (tile.allFinite &&
                (box.hi.x < r.lo.x || box.lo.x > r.hi.x ||
                 box.hi.y < r.lo.y || box.lo.y > r.hi.y ||
                 box.hi.z < r.lo.z || box.lo.z > r.hi.z)) {
                continue;
            }
            forEachFreeVertex(tile, [&](std::size_t i) {
                Vec3 pos{px_[i], py_[i], pz_[i]};
                if (clothReachSkips(c, pos) ||
                    !clothProjectOut(c, pos, margin)) {
                    return;
                }
                ++stats.collisionsResolved;
                // Kill part of the velocity into the surface by
                // dragging the previous position along.
                const Vec3 prev{qx_[i], qy_[i], qz_[i]};
                const Vec3 dragged = prev + (pos - prev) * 0.5;
                px_[i] = pos.x;
                py_[i] = pos.y;
                pz_[i] = pos.z;
                qx_[i] = dragged.x;
                qy_[i] = dragged.y;
                qz_[i] = dragged.z;
                // Later colliders cull against the moved vertex.
                tile.add(pos);
            });
        }
    }
}

void
Cloth::step(Real dt, const Vec3 &gravity, int iterations,
            const std::vector<const Geom *> &colliders,
            ClothStats &stats, const KernelBackend *backend)
{
    ++stats.clothsStepped;
    const KernelBackend &kb =
        backend != nullptr ? *backend : scalarKernelBackend();

    syncSoa();
    ClothParticlesView pv;
    pv.count = particles_.size();
    pv.px = px_.data(); pv.py = py_.data(); pv.pz = pz_.data();
    pv.qx = qx_.data(); pv.qy = qy_.data(); pv.qz = qz_.data();
    pv.w = w_.data();

    ClothConstraintsView cv;
    cv.count = constraints_.size();
    cv.a = consA_.data();
    cv.b = consB_.data();
    cv.rest = consRest_.data();
    cv.ca = coloredA_.data();
    cv.cb = coloredB_.data();
    cv.crest = coloredRest_.data();
    cv.colorOffsets = coloring_.colorOffsets.data();
    cv.colors = coloring_.colors;
    cv.vecCount = coloring_.vecCount;

    // Verlet integration: x' = 2x - x_prev + g dt^2 (with mild
    // damping folded into the velocity term).
    const Real damping = 0.995;
    const Vec3 accel_term = gravity * (dt * dt);
    kb.clothIntegrate(pv, accel_term, damping, stats.kernels);
    stats.verticesIntegrated += particles_.size();

    // Interleaved relaxation: each sweep relaxes every distance
    // constraint, then projects every vertex out of the colliders
    // (Jakobsen's scheme — collision is just another constraint).
    // Projection stays scalar (branchy per-shape code) and runs on
    // the SoA streams between relaxation sweeps. The colliders are
    // posed once here: bodies do not move during the cloth phase.
    const Real margin = 0.02;
    posed_.clear();
    for (const Geom *g : colliders)
        posed_.push_back(poseClothCollider(*g, margin));
    const std::size_t free_vertices = static_cast<std::size_t>(
        std::count_if(w_.begin(), w_.end(),
                      [](Real w) { return w != 0.0; }));
    for (int it = 0; it < iterations; ++it) {
        kb.clothRelax(pv, cv, stats.kernels);
        stats.constraintRelaxations += constraints_.size();
        // Every (free vertex, listed collider) pair counts, culled
        // or not.
        stats.collisionTests += free_vertices * posed_.size();
        boundTiles();
        projectVertices(margin, stats);
    }
    writeBackSoa();
}

} // namespace parallax
