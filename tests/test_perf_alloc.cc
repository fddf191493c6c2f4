/**
 * @file
 * Allocation gate for the steady-state hot path.
 *
 * The guarantee of the persistent-workspace design (DESIGN.md §9):
 * once a scene has warmed up, a step performs zero heap allocations.
 * This binary replaces the global operator new and delete (every
 * form, aligned ones included) with versions that count every
 * allocation while counting is switched on, and switches it on only
 * around each measured World::step() (or Narrowphase::collide()), so
 * gtest's own allocations never count. Any allocation on any lane
 * fails the test.
 *
 * The scenario steps the Mix benchmark (the densest scene: rigid
 * contacts, joints, cloth, effects) long past warm-up under both
 * kernel backends (Native's fused contact sweep keeps its own
 * scratch) at 0 and at 2 workers. It carries the `perf` ctest label
 * and runs via the `check-perf` preset, which repeats it to catch an
 * allocation that only some steal patterns produce.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "parallax.hh"
#include "physics/narrowphase/collide.hh"
#include "physics/shapes/primitives.hh"
#include "physics/shapes/static_shapes.hh"
#include "workload/benchmarks.hh"

namespace
{

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> allocations{0};

void *
allocate(std::size_t size)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
allocateAligned(std::size_t size, std::align_val_t align)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    std::size_t alignment = static_cast<std::size_t>(align);
    if (alignment < sizeof(void *))
        alignment = sizeof(void *);
    void *p = nullptr;
    if (posix_memalign(&p, alignment, size == 0 ? 1 : size) != 0)
        throw std::bad_alloc();
    return p;
}

/** Heap allocations made (on any thread) while `fn` runs. */
template <typename Fn>
std::uint64_t
allocationsDuring(Fn &&fn)
{
    const std::uint64_t before =
        allocations.load(std::memory_order_relaxed);
    counting.store(true, std::memory_order_relaxed);
    fn();
    counting.store(false, std::memory_order_relaxed);
    return allocations.load(std::memory_order_relaxed) - before;
}

} // namespace

void *operator new(std::size_t size) { return allocate(size); }
void *operator new[](std::size_t size) { return allocate(size); }
void *
operator new(std::size_t size, std::align_val_t align)
{
    return allocateAligned(size, align);
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return allocateAligned(size, align);
}
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return allocate(size);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return allocate(size);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    try {
        return allocateAligned(size, align);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    try {
        return allocateAligned(size, align);
    } catch (...) {
        return nullptr;
    }
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t,
                  const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace parallax
{
namespace
{

TEST(PerfAlloc, CounterSeesAllocations)
{
    // The gate below is only as good as the counter: a vector that
    // must grow inside the counted region has to register.
    std::vector<int> grows;
    EXPECT_GT(allocationsDuring([&grows] { grows.resize(64); }), 0u);
}

TEST(PerfAlloc, SteadyStateStepsDoNotAllocate)
{
    for (const SimdBackend backend :
         {SimdBackend::Scalar, SimdBackend::Native}) {
        for (unsigned workers : {0u, 2u}) {
            SCOPED_TRACE(std::string(backend == SimdBackend::Scalar
                                         ? "scalar"
                                         : "native") +
                         " workers=" + std::to_string(workers));
            WorldConfig config;
            config.workerThreads = workers;
            config.simdBackend = backend;
            auto world = buildBenchmark(BenchmarkId::Mix, config, 0.12);

            // Warm-up: let contacts, islands, contact slots and
            // workspaces reach their steady-state sizes. Mix keeps
            // developing activity (explosions, breakables) well past the
            // first frames, so the window is generous.
            std::uint64_t slots_created = 0;
            for (int i = 0; i < 100; ++i) {
                world->step();
                slots_created += world->lastStepStats().arenaGrowths;
            }
            // Mix tiles its pairs into several narrowphase chunks at any
            // worker count, so the window below covers the contact slots.
            EXPECT_GT(slots_created, 0u);

            // Measured window: not one heap allocation on any lane.
            std::uint64_t reuses = 0;
            for (int i = 0; i < 50; ++i) {
                EXPECT_EQ(allocationsDuring([&world] { world->step(); }),
                          0u)
                    << "heap allocation at measured step " << i;
                reuses += world->lastStepStats().solver.workspaceReuses;
            }
            // The warm path must actually be reusing workspaces, not
            // sidestepping them.
            EXPECT_GT(reuses, 0u);
        }
    }
}

/** Owns one geom of every shape type, overlapping its neighbours. */
class NarrowphaseShapes
{
  public:
    NarrowphaseShapes()
    {
        // A box turned 45 degrees about y on top of an upright box:
        // its clipped face is an octagon, the largest manifold.
        add(std::make_unique<BoxShape>(Vec3{1, 1, 1}), {0, 0, 0});
        add(std::make_unique<BoxShape>(Vec3{1, 1, 1}), {0, 1.9, 0},
            Quat::fromAxisAngle({0, 1, 0}, M_PI / 4));
        add(std::make_unique<SphereShape>(0.8), {0.5, 1.0, 0.2});
        add(std::make_unique<SphereShape>(0.6), {0.9, 1.4, 0.5});
        add(std::make_unique<CapsuleShape>(0.4, 0.8), {0.2, 1.2, 0.4});
        add(std::make_unique<CapsuleShape>(0.3, 0.6), {0.6, 0.9, 0.1});
        add(std::make_unique<PlaneShape>(Vec3{0, 1, 0}, 0.5), {});
        add(std::make_unique<HeightfieldShape>(
                std::vector<Real>(16, 0.6), 4, 4, 1.0),
            {-1.5, 0, -1.5});
        std::vector<Vec3> verts{
            {-3, 0.7, -3}, {3, 0.7, -3}, {3, 0.7, 3}, {-3, 0.7, 3}};
        std::vector<TriMeshShape::Triangle> tris{{0, 2, 1}, {0, 3, 2}};
        add(std::make_unique<TriMeshShape>(std::move(verts),
                                           std::move(tris)),
            {});
    }

    const std::vector<std::unique_ptr<Geom>> &geoms() const
    { return geoms_; }

  private:
    void
    add(std::unique_ptr<Shape> shape, const Vec3 &at,
        const Quat &turn = Quat())
    {
        shapes_.push_back(std::move(shape));
        const auto id = static_cast<BodyId>(bodies_.size());
        bodies_.push_back(std::make_unique<RigidBody>(
            id, Transform(turn, at), 1.0, Mat3::identity()));
        geoms_.push_back(std::make_unique<Geom>(
            static_cast<GeomId>(geoms_.size()), shapes_.back().get(),
            bodies_.back().get()));
    }

    std::vector<std::unique_ptr<Shape>> shapes_;
    std::vector<std::unique_ptr<RigidBody>> bodies_;
    std::vector<std::unique_ptr<Geom>> geoms_;
};

TEST(PerfAlloc, NarrowphaseShapePairingsDoNotAllocate)
{
    // Every shape pairing the dispatcher handles, in both argument
    // orders: once to warm the contact list, then counted.
    NarrowphaseShapes scene;
    Narrowphase np;
    std::vector<Contact> out;
    constexpr int types = static_cast<int>(ShapeType::TriMesh) + 1;
    bool touched[types][types] = {};
    for (const auto &a : scene.geoms()) {
        for (const auto &b : scene.geoms()) {
            if (a == b)
                continue;
            const int ta = static_cast<int>(a->shape().type());
            const int tb = static_cast<int>(b->shape().type());
            if (np.collide(*a, *b, out) > 0)
                touched[std::min(ta, tb)][std::max(ta, tb)] = true;
        }
    }
    // The scene overlaps every pairing with a dynamic shape in it,
    // so the counted pass runs each collider's manifold code.
    const int first_static = static_cast<int>(ShapeType::Plane);
    for (int ta = 0; ta < first_static; ++ta) {
        for (int tb = ta; tb < types; ++tb) {
            EXPECT_TRUE(touched[ta][tb])
                << shapeTypeName(static_cast<ShapeType>(ta)) << "/"
                << shapeTypeName(static_cast<ShapeType>(tb))
                << " made no contact";
        }
    }

    const std::size_t contacts = out.size();
    out.clear();
    EXPECT_EQ(allocationsDuring([&scene, &np, &out] {
                  for (const auto &a : scene.geoms()) {
                      for (const auto &b : scene.geoms()) {
                          if (a != b)
                              np.collide(*a, *b, out);
                      }
                  }
              }),
              0u);
    EXPECT_EQ(out.size(), contacts);
}

} // namespace
} // namespace parallax
