#include "collide.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "physics/shapes/primitives.hh"
#include "physics/shapes/static_shapes.hh"
#include "sim/logging.hh"

namespace parallax
{

namespace
{

/** A raw contact before geom ids are attached. */
struct RawContact
{
    Vec3 position;
    Vec3 normal; // Points toward the "first" shape of the helper.
    Real depth;
};

/** Closest point on segment [p, q] to point x. */
Vec3
closestOnSegment(const Vec3 &p, const Vec3 &q, const Vec3 &x)
{
    const Vec3 d = q - p;
    const Real len2 = d.lengthSquared();
    if (len2 < 1e-18)
        return p;
    const Real t = std::clamp((x - p).dot(d) / len2, 0.0, 1.0);
    return p + d * t;
}

/** Sphere (ca, ra) against sphere (cb, rb); normal points toward a. */
std::optional<RawContact>
sphereSphere(const Vec3 &ca, Real ra, const Vec3 &cb, Real rb)
{
    const Vec3 d = ca - cb;
    const Real dist2 = d.lengthSquared();
    const Real rsum = ra + rb;
    if (dist2 > rsum * rsum)
        return std::nullopt;
    const Real dist = std::sqrt(dist2);
    const Vec3 n = dist > 1e-12 ? d / dist : Vec3{0.0, 1.0, 0.0};
    const Real depth = rsum - dist;
    return RawContact{cb + n * (rb - 0.5 * depth), n, depth};
}

/** Sphere against an oriented box; normal points toward the sphere. */
std::optional<RawContact>
sphereBox(const Vec3 &center, Real radius, const Transform &box_pose,
          const Vec3 &half)
{
    const Vec3 c_local = box_pose.applyInverse(center);
    const Vec3 clamped{std::clamp(c_local.x, -half.x, half.x),
                       std::clamp(c_local.y, -half.y, half.y),
                       std::clamp(c_local.z, -half.z, half.z)};
    const Vec3 d = c_local - clamped;
    const Real dist2 = d.lengthSquared();
    if (dist2 > radius * radius)
        return std::nullopt;

    Vec3 n_local;
    Real depth;
    if (dist2 > 1e-18) {
        const Real dist = std::sqrt(dist2);
        n_local = d / dist;
        depth = radius - dist;
    } else {
        // Center inside the box: exit through the nearest face.
        const Real dx = half.x - std::fabs(c_local.x);
        const Real dy = half.y - std::fabs(c_local.y);
        const Real dz = half.z - std::fabs(c_local.z);
        if (dx <= dy && dx <= dz) {
            n_local = {c_local.x >= 0 ? 1.0 : -1.0, 0.0, 0.0};
            depth = dx + radius;
        } else if (dy <= dz) {
            n_local = {0.0, c_local.y >= 0 ? 1.0 : -1.0, 0.0};
            depth = dy + radius;
        } else {
            n_local = {0.0, 0.0, c_local.z >= 0 ? 1.0 : -1.0};
            depth = dz + radius;
        }
    }
    return RawContact{box_pose.apply(clamped),
                      box_pose.applyDirection(n_local), depth};
}

/** Sphere against a heightfield; normal points toward the sphere. */
std::optional<RawContact>
sphereHeightfield(const Vec3 &center, Real radius,
                  const Transform &hf_pose, const HeightfieldShape &hf)
{
    const Vec3 local = center - hf_pose.position;
    if (local.x < -radius || local.x > hf.width() + radius ||
        local.z < -radius || local.z > hf.depth() + radius) {
        return std::nullopt;
    }
    const Real surface = hf.sampleHeight(local.x, local.z);
    const Real dist = local.y - surface;
    if (dist > radius)
        return std::nullopt;
    const Vec3 n = hf.sampleNormal(local.x, local.z);
    const Vec3 pos = hf_pose.position + Vec3{local.x, surface, local.z};
    return RawContact{pos, n, radius - dist};
}

/** Sphere against one trimesh triangle; normal toward the sphere. */
std::optional<RawContact>
sphereTriangle(const Vec3 &center, Real radius, const Vec3 &va,
               const Vec3 &vb, const Vec3 &vc)
{
    const Vec3 n = (vb - va).cross(vc - va).normalized();
    const Real dist = n.dot(center - va);
    const Vec3 proj = center - n * dist;
    const Vec3 e0 = vb - va, e1 = vc - vb, e2 = va - vc;
    const bool inside = n.dot(e0.cross(proj - va)) >= 0 &&
                        n.dot(e1.cross(proj - vb)) >= 0 &&
                        n.dot(e2.cross(proj - vc)) >= 0;
    Vec3 closest = proj;
    if (!inside) {
        const std::array<Vec3, 3> candidates{
            closestOnSegment(va, vb, center),
            closestOnSegment(vb, vc, center),
            closestOnSegment(vc, va, center)};
        Real best = 1e30;
        for (const Vec3 &c : candidates) {
            const Real d2 = (center - c).lengthSquared();
            if (d2 < best) {
                best = d2;
                closest = c;
            }
        }
    }
    const Vec3 dvec = center - closest;
    const Real d2 = dvec.lengthSquared();
    if (d2 > radius * radius)
        return std::nullopt;
    const Real dist_c = std::sqrt(d2);
    const Vec3 cn = dist_c > 1e-12 ? dvec / dist_c : n;
    return RawContact{closest, cn, radius - dist_c};
}

/** Up to eight sample spheres (center, radius), held inline. */
struct SampleSpheres
{
    std::array<std::pair<Vec3, Real>, 8> spheres;
    int count = 0;

    void add(const Vec3 &center, Real radius)
    { spheres[count++] = {center, radius}; }
    const std::pair<Vec3, Real> *begin() const { return spheres.data(); }
    const std::pair<Vec3, Real> *end() const
    { return spheres.data() + count; }
};

/**
 * Sample-sphere decomposition of a convex geom: capsules become three
 * axis spheres, boxes become eight inset corner spheres. Used for the
 * approximate capsule/box versus terrain and capsule-box tests (a
 * documented deviation from exact ODE colliders).
 */
SampleSpheres
sampleSpheres(const Geom &g)
{
    SampleSpheres samples;
    const Transform pose = g.worldPose();
    switch (g.shape().type()) {
      case ShapeType::Sphere: {
        const auto &s = static_cast<const SphereShape &>(g.shape());
        samples.add(pose.position, s.radius());
        break;
      }
      case ShapeType::Capsule: {
        const auto &cap = static_cast<const CapsuleShape &>(g.shape());
        Vec3 p, q;
        cap.segment(pose, p, q);
        samples.add(p, cap.radius());
        samples.add((p + q) * 0.5, cap.radius());
        samples.add(q, cap.radius());
        break;
      }
      case ShapeType::Box: {
        const auto &box = static_cast<const BoxShape &>(g.shape());
        const Vec3 h = box.halfExtents();
        const Real r = std::min({h.x, h.y, h.z});
        const Vec3 inner = h - Vec3{r, r, r};
        for (int i = 0; i < 8; ++i) {
            const Vec3 local{(i & 1) ? inner.x : -inner.x,
                             (i & 2) ? inner.y : -inner.y,
                             (i & 4) ? inner.z : -inner.z};
            samples.add(pose.apply(local), r);
        }
        break;
      }
      default:
        break;
    }
    return samples;
}

} // namespace

int
Narrowphase::collide(const Geom &a, const Geom &b, std::vector<Contact> &out)
{
    ++stats_.pairsTested;
    const auto ta = static_cast<int>(a.shape().type());
    const auto tb = static_cast<int>(b.shape().type());
    ++stats_.testsByType[std::min(ta, tb)][std::max(ta, tb)];

    const size_t before = out.size();
    collideOrdered(a, b, out, false);
    const int made = static_cast<int>(out.size() - before);
    if (made > 0)
        ++stats_.pairsColliding;
    stats_.contactsCreated += made;
    return made;
}

void
Narrowphase::collideOrdered(const Geom &a, const Geom &b,
                            std::vector<Contact> &out, bool flipped)
{
    const ShapeType sa = a.shape().type();
    const ShapeType sb = b.shape().type();

    // Canonicalize: handle each combination with a <= b in type order
    // by re-dispatching with the arguments swapped.
    if (static_cast<int>(sa) > static_cast<int>(sb)) {
        collideOrdered(b, a, out, !flipped);
        return;
    }

    auto emit = [&](const RawContact &rc) {
        Contact c;
        c.position = rc.position;
        c.depth = rc.depth;
        if (flipped) {
            c.geomA = b.id();
            c.geomB = a.id();
            c.normal = -rc.normal;
        } else {
            c.geomA = a.id();
            c.geomB = b.id();
            c.normal = rc.normal;
        }
        out.push_back(c);
    };

    const Transform pa = a.worldPose();
    const Transform pb = b.worldPose();

    if (sa == ShapeType::Sphere && sb == ShapeType::Sphere) {
        const auto &s1 = static_cast<const SphereShape &>(a.shape());
        const auto &s2 = static_cast<const SphereShape &>(b.shape());
        if (auto rc = sphereSphere(pa.position, s1.radius(),
                                   pb.position, s2.radius()))
            emit(*rc);
    } else if (sa == ShapeType::Sphere && sb == ShapeType::Box) {
        const auto &s = static_cast<const SphereShape &>(a.shape());
        const auto &box = static_cast<const BoxShape &>(b.shape());
        if (auto rc = sphereBox(pa.position, s.radius(), pb,
                                box.halfExtents()))
            emit(*rc);
    } else if (sa == ShapeType::Sphere && sb == ShapeType::Plane) {
        const auto &s = static_cast<const SphereShape &>(a.shape());
        const auto &plane = static_cast<const PlaneShape &>(b.shape());
        const Real dist = plane.distance(pa.position);
        if (dist <= s.radius()) {
            emit(RawContact{pa.position - plane.normal() * dist,
                            plane.normal(), s.radius() - dist});
        }
    } else if (sa == ShapeType::Sphere && sb == ShapeType::Capsule) {
        const auto &s = static_cast<const SphereShape &>(a.shape());
        const auto &cap = static_cast<const CapsuleShape &>(b.shape());
        Vec3 p, q;
        cap.segment(pb, p, q);
        const Vec3 closest = closestOnSegment(p, q, pa.position);
        if (auto rc = sphereSphere(pa.position, s.radius(), closest,
                                   cap.radius()))
            emit(*rc);
    } else if (sa == ShapeType::Sphere &&
               sb == ShapeType::Heightfield) {
        const auto &s = static_cast<const SphereShape &>(a.shape());
        const auto &hf =
            static_cast<const HeightfieldShape &>(b.shape());
        if (auto rc = sphereHeightfield(pa.position, s.radius(), pb,
                                        hf))
            emit(*rc);
    } else if (sa == ShapeType::Sphere && sb == ShapeType::TriMesh) {
        const auto &s = static_cast<const SphereShape &>(a.shape());
        const auto &mesh =
            static_cast<const TriMeshShape &>(b.shape());
        const Vec3 c_local = pb.applyInverse(pa.position);
        const Real r = s.radius();
        const Aabb query{
            {c_local.x - r, c_local.y - r, c_local.z - r},
            {c_local.x + r, c_local.y + r, c_local.z + r}};
        int made = 0;
        mesh.visitOverlaps(query, [&](std::uint32_t tri) {
            Vec3 va, vb, vc;
            mesh.triangleCorners(tri, pb, va, vb, vc);
            if (auto rc = sphereTriangle(pa.position, r, va, vb, vc)) {
                emit(*rc);
                return ++made < maxContactsPerPair;
            }
            return true;
        });
    } else if (sa == ShapeType::Box && sb == ShapeType::Box) {
        collideBoxBox(a, b, out, flipped);
    } else if (sa == ShapeType::Box && sb == ShapeType::Plane) {
        collideBoxPlane(a, b, out, flipped);
    } else if (sa == ShapeType::Box && sb == ShapeType::Capsule) {
        // Capsule sampled as spheres versus the exact box.
        const auto &box = static_cast<const BoxShape &>(a.shape());
        int made = 0;
        for (const auto &[center, radius] : sampleSpheres(b)) {
            if (auto rc = sphereBox(center, radius, pa,
                                    box.halfExtents())) {
                // rc's normal points toward the capsule sample (the
                // "sphere" side), i.e. toward b; our convention needs
                // it toward a, so flip relative to emit's handling.
                RawContact flippedRc{rc->position, -rc->normal,
                                     rc->depth};
                emit(flippedRc);
                if (++made >= maxContactsPerPair)
                    break;
            }
        }
    } else if (sa == ShapeType::Box &&
               (sb == ShapeType::Heightfield ||
                sb == ShapeType::TriMesh)) {
        collideSampledVsStatic(a, b, out, flipped);
    } else if (sa == ShapeType::Capsule && sb == ShapeType::Capsule) {
        collideCapsuleCapsule(a, b, out, flipped);
    } else if (sa == ShapeType::Capsule && sb == ShapeType::Plane) {
        const auto &cap = static_cast<const CapsuleShape &>(a.shape());
        const auto &plane = static_cast<const PlaneShape &>(b.shape());
        Vec3 p, q;
        cap.segment(pa, p, q);
        for (const Vec3 &end : {p, q}) {
            const Real dist = plane.distance(end);
            if (dist <= cap.radius()) {
                emit(RawContact{end - plane.normal() * dist,
                                plane.normal(),
                                cap.radius() - dist});
            }
        }
    } else if (sa == ShapeType::Capsule &&
               (sb == ShapeType::Heightfield ||
                sb == ShapeType::TriMesh)) {
        collideSampledVsStatic(a, b, out, flipped);
    }
    // All remaining combinations pair two static environment shapes
    // and are filtered out by the broadphase.
}

void
Narrowphase::collideBoxBox(const Geom &a, const Geom &b,
                           std::vector<Contact> &out, bool flipped)
{
    const auto &ba = static_cast<const BoxShape &>(a.shape());
    const auto &bb = static_cast<const BoxShape &>(b.shape());
    const Transform pa = a.worldPose();
    const Transform pb = b.worldPose();
    const Mat3 ra = pa.rotation.toMat3();
    const Mat3 rb = pb.rotation.toMat3();
    const Vec3 ha = ba.halfExtents();
    const Vec3 hb = bb.halfExtents();
    const Vec3 d = pa.position - pb.position;

    auto projectedRadius = [](const Mat3 &rot, const Vec3 &half,
                              const Vec3 &axis) {
        return std::fabs(rot.column(0).dot(axis)) * half.x +
               std::fabs(rot.column(1).dot(axis)) * half.y +
               std::fabs(rot.column(2).dot(axis)) * half.z;
    };

    // Separating-axis test over the 15 candidate axes. Face axes are
    // slightly favored over edge cross products (the 1.01 bias) so
    // near-ties produce stable face manifolds instead of flickering
    // edge contacts.
    Real best_depth = 1e30;
    Vec3 best_axis;
    bool best_is_face_of_a = true;
    bool best_is_face = true;
    bool separated = false;

    auto testAxis = [&](Vec3 axis, bool is_face, bool is_a) {
        const Real len = axis.length();
        if (len < 1e-9)
            return; // Degenerate cross-product axis: skip.
        axis = axis / len;
        const Real overlap = projectedRadius(ra, ha, axis) +
                             projectedRadius(rb, hb, axis) -
                             std::fabs(d.dot(axis));
        if (overlap < 0) {
            separated = true;
            return;
        }
        const Real bias = is_face ? 1.0 : 1.01;
        if (overlap * bias < best_depth) {
            best_depth = overlap;
            best_axis = d.dot(axis) >= 0 ? axis : -axis;
            best_is_face = is_face;
            best_is_face_of_a = is_a;
        }
    };

    for (int i = 0; i < 3 && !separated; ++i)
        testAxis(ra.column(i), true, true);
    for (int i = 0; i < 3 && !separated; ++i)
        testAxis(rb.column(i), true, false);
    for (int i = 0; i < 3 && !separated; ++i)
        for (int j = 0; j < 3 && !separated; ++j)
            testAxis(ra.column(i).cross(rb.column(j)), false, false);
    if (separated)
        return;

    // Reference-face clipping (Sutherland-Hodgman), the standard
    // stable manifold for face contact: clip the incident face of
    // the other box against the side planes of the reference face,
    // keep the clipped vertices behind the reference plane.
    const bool ref_is_a = best_is_face ? best_is_face_of_a : true;
    const Transform &ref_pose = ref_is_a ? pa : pb;
    const Transform &inc_pose = ref_is_a ? pb : pa;
    const Mat3 &ref_rot = ref_is_a ? ra : rb;
    const Mat3 &inc_rot = ref_is_a ? rb : ra;
    const Vec3 &ref_h = ref_is_a ? ha : hb;
    const Vec3 &inc_h = ref_is_a ? hb : ha;
    // Reference normal points from the reference box toward the
    // incident box. best_axis points B->A.
    const Vec3 ref_normal = ref_is_a ? -best_axis : best_axis;

    // Reference face: the ref box axis most aligned with ref_normal.
    int ref_face = 0;
    Real best_align = -1e30;
    Real ref_sign = 1.0;
    for (int i = 0; i < 3; ++i) {
        const Real align = ref_rot.column(i).dot(ref_normal);
        if (std::fabs(align) > best_align) {
            best_align = std::fabs(align);
            ref_face = i;
            ref_sign = align >= 0 ? 1.0 : -1.0;
        }
    }
    const Vec3 ref_face_normal = ref_rot.column(ref_face) * ref_sign;
    const Vec3 ref_face_center =
        ref_pose.position + ref_face_normal * ref_h[ref_face];

    // Incident face: the inc box face most anti-parallel to the
    // reference face normal.
    int inc_face = 0;
    Real most_anti = 1e30;
    Real inc_sign = 1.0;
    for (int i = 0; i < 3; ++i) {
        const Real align = inc_rot.column(i).dot(ref_face_normal);
        if (align < most_anti) {
            most_anti = align;
            inc_face = i;
            inc_sign = 1.0;
        }
        if (-align < most_anti) {
            most_anti = -align;
            inc_face = i;
            inc_sign = -1.0;
        }
    }
    const Vec3 inc_normal = inc_rot.column(inc_face) * inc_sign;
    const int iu = (inc_face + 1) % 3;
    const int iv = (inc_face + 2) % 3;
    const Vec3 inc_center =
        inc_pose.position + inc_normal * inc_h[inc_face];
    const Vec3 inc_u = inc_rot.column(iu) * inc_h[iu];
    const Vec3 inc_v = inc_rot.column(iv) * inc_h[iv];

    // One clip turns n vertices into at most n + n/2: only an edge
    // that leaves the half-space emits two, and it must be followed
    // by one that starts outside and emits at most one. So four
    // clips take the incident quad through at most 6, 9, 13 and 19
    // vertices, under any rounding.
    constexpr int clip_capacity = 20;
    std::array<Vec3, clip_capacity> poly_a;
    std::array<Vec3, clip_capacity> poly_b;
    Vec3 *poly = poly_a.data();
    Vec3 *clipped = poly_b.data();
    int poly_size = 4;
    poly[0] = inc_center + inc_u + inc_v;
    poly[1] = inc_center + inc_u - inc_v;
    poly[2] = inc_center - inc_u - inc_v;
    poly[3] = inc_center - inc_u + inc_v;

    // Clip against the four side planes of the reference face.
    const int ru = (ref_face + 1) % 3;
    const int rv = (ref_face + 2) % 3;
    struct ClipPlane { Vec3 n; Real offset; };
    const ClipPlane clip_planes[4] = {
        {ref_rot.column(ru),
         ref_rot.column(ru).dot(ref_pose.position) + ref_h[ru]},
        {-ref_rot.column(ru),
         -ref_rot.column(ru).dot(ref_pose.position) + ref_h[ru]},
        {ref_rot.column(rv),
         ref_rot.column(rv).dot(ref_pose.position) + ref_h[rv]},
        {-ref_rot.column(rv),
         -ref_rot.column(rv).dot(ref_pose.position) + ref_h[rv]}};

    for (const ClipPlane &plane : clip_planes) {
        int clipped_size = 0;
        for (int i = 0; i < poly_size; ++i) {
            const Vec3 &cur = poly[i];
            const Vec3 &nxt = poly[(i + 1) % poly_size];
            const Real dc = plane.n.dot(cur) - plane.offset;
            const Real dn = plane.n.dot(nxt) - plane.offset;
            if (dc <= 0)
                clipped[clipped_size++] = cur;
            if ((dc < 0 && dn > 0) || (dc > 0 && dn < 0)) {
                const Real t = dc / (dc - dn);
                clipped[clipped_size++] = cur + (nxt - cur) * t;
            }
        }
        std::swap(poly, clipped);
        poly_size = clipped_size;
        if (poly_size == 0)
            break;
    }

    // Keep clipped points behind the reference face; their depth is
    // the distance below the face plane.
    struct Point { Vec3 pos; Real depth; };
    std::array<Point, clip_capacity> point_buf;
    Point *points = point_buf.data();
    int point_count = 0;
    for (int i = 0; i < poly_size; ++i) {
        const Real separation =
            ref_face_normal.dot(poly[i] - ref_face_center);
        if (separation <= 0)
            points[point_count++] = {poly[i], -separation};
    }

    if (point_count == 0) {
        // Edge-edge contact (or grazing): fall back to the midpoint
        // of the overlap along the separating axis.
        points[point_count++] = {(pa.position + pb.position) * 0.5,
                                 best_depth};
    }

    // Keep the deepest points up to the manifold cap.
    std::sort(points, points + point_count,
              [](const Point &x, const Point &y) {
                  return x.depth > y.depth;
              });
    const int keep = std::min(point_count, maxContactsPerPair);
    for (int i = 0; i < keep; ++i) {
        Contact c;
        c.position = points[i].pos;
        c.depth = points[i].depth;
        if (flipped) {
            c.geomA = b.id();
            c.geomB = a.id();
            c.normal = -best_axis;
        } else {
            c.geomA = a.id();
            c.geomB = b.id();
            c.normal = best_axis;
        }
        out.push_back(c);
    }
}

void
Narrowphase::collideBoxPlane(const Geom &a, const Geom &b,
                             std::vector<Contact> &out, bool flipped)
{
    const auto &box = static_cast<const BoxShape &>(a.shape());
    const auto &plane = static_cast<const PlaneShape &>(b.shape());
    const Transform pose = a.worldPose();
    const Vec3 h = box.halfExtents();

    struct Corner { Vec3 pos; Real depth; };
    std::array<Corner, 8> corners;
    int corner_count = 0;
    for (int i = 0; i < 8; ++i) {
        const Vec3 local{(i & 1) ? h.x : -h.x,
                         (i & 2) ? h.y : -h.y,
                         (i & 4) ? h.z : -h.z};
        const Vec3 world = pose.apply(local);
        const Real dist = plane.distance(world);
        if (dist <= 0.0)
            corners[corner_count++] = Corner{world, -dist};
    }
    if (corner_count == 0)
        return;
    // GCC 12 does not bound corner_count by 8 inside std::sort and
    // flags its (unreachable) more-than-16-elements path.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
    std::sort(corners.begin(), corners.begin() + corner_count,
              [](const Corner &x, const Corner &y) {
                  return x.depth > y.depth;
              });
#pragma GCC diagnostic pop
    const int keep = std::min(corner_count, maxContactsPerPair);
    for (int i = 0; i < keep; ++i) {
        Contact c;
        c.position = corners[i].pos;
        c.depth = corners[i].depth;
        if (flipped) {
            c.geomA = b.id();
            c.geomB = a.id();
            c.normal = -plane.normal();
        } else {
            c.geomA = a.id();
            c.geomB = b.id();
            c.normal = plane.normal();
        }
        out.push_back(c);
    }
}

void
Narrowphase::collideCapsuleCapsule(const Geom &a, const Geom &b,
                                   std::vector<Contact> &out, bool flipped)
{
    const auto &ca = static_cast<const CapsuleShape &>(a.shape());
    const auto &cb = static_cast<const CapsuleShape &>(b.shape());
    Vec3 p1, q1, p2, q2;
    ca.segment(a.worldPose(), p1, q1);
    cb.segment(b.worldPose(), p2, q2);

    // Closest points between the two segments (Ericson 5.1.9).
    const Vec3 d1 = q1 - p1;
    const Vec3 d2 = q2 - p2;
    const Vec3 r = p1 - p2;
    const Real aa = d1.lengthSquared();
    const Real ee = d2.lengthSquared();
    const Real f = d2.dot(r);
    Real s = 0.0, t = 0.0;
    if (aa > 1e-18) {
        const Real c = d1.dot(r);
        if (ee > 1e-18) {
            const Real bb = d1.dot(d2);
            const Real denom = aa * ee - bb * bb;
            if (denom > 1e-18)
                s = std::clamp((bb * f - c * ee) / denom, 0.0, 1.0);
            t = (bb * s + f) / ee;
            if (t < 0.0) {
                t = 0.0;
                s = std::clamp(-c / aa, 0.0, 1.0);
            } else if (t > 1.0) {
                t = 1.0;
                s = std::clamp((bb - c) / aa, 0.0, 1.0);
            }
        } else {
            s = std::clamp(-c / aa, 0.0, 1.0);
        }
    } else if (ee > 1e-18) {
        t = std::clamp(f / ee, 0.0, 1.0);
    }
    const Vec3 c1 = p1 + d1 * s;
    const Vec3 c2 = p2 + d2 * t;
    if (auto rc = sphereSphere(c1, ca.radius(), c2, cb.radius())) {
        Contact c;
        c.position = rc->position;
        c.depth = rc->depth;
        if (flipped) {
            c.geomA = b.id();
            c.geomB = a.id();
            c.normal = -rc->normal;
        } else {
            c.geomA = a.id();
            c.geomB = b.id();
            c.normal = rc->normal;
        }
        out.push_back(c);
    }
}

void
Narrowphase::collideSampledVsStatic(const Geom &a, const Geom &b,
                                    std::vector<Contact> &out, bool flipped)
{
    const Transform pb = b.worldPose();
    int made = 0;
    for (const auto &[center, radius] : sampleSpheres(a)) {
        std::optional<RawContact> rc;
        if (b.shape().type() == ShapeType::Heightfield) {
            const auto &hf =
                static_cast<const HeightfieldShape &>(b.shape());
            rc = sphereHeightfield(center, radius, pb, hf);
        } else {
            const auto &mesh =
                static_cast<const TriMeshShape &>(b.shape());
            const Vec3 c_local = pb.applyInverse(center);
            const Aabb query{
                {c_local.x - radius, c_local.y - radius,
                 c_local.z - radius},
                {c_local.x + radius, c_local.y + radius,
                 c_local.z + radius}};
            mesh.visitOverlaps(query, [&](std::uint32_t tri) {
                Vec3 va, vb, vc;
                mesh.triangleCorners(tri, pb, va, vb, vc);
                rc = sphereTriangle(center, radius, va, vb, vc);
                return !rc;
            });
        }
        if (rc) {
            Contact c;
            c.position = rc->position;
            c.depth = rc->depth;
            if (flipped) {
                c.geomA = b.id();
                c.geomB = a.id();
                c.normal = -rc->normal;
            } else {
                c.geomA = a.id();
                c.geomB = b.id();
                c.normal = rc->normal;
            }
            out.push_back(c);
            if (++made >= maxContactsPerPair)
                break;
        }
    }
}

} // namespace parallax
