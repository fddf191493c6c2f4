/**
 * @file
 * Quickstart: the physics engine in ~40 lines.
 *
 * Creates a world, drops a small stack of boxes and a ball onto the
 * ground plane, steps the simulation at the paper's rates (dt =
 * 0.01 s, 3 steps per 30 FPS frame), and prints object positions
 * and per-step statistics.
 *
 * Build and run:
 *     cmake -B build -G Ninja && cmake --build build
 *     ./build/examples/quickstart [--workers N]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "parallax.hh"

using namespace parallax;

namespace
{

unsigned
parseCount(const char *flag, const char *text)
{
    char *end = nullptr;
    const unsigned long value = std::strtoul(text, &end, 10);
    if (end == text || *end != '\0') {
        std::fprintf(stderr, "%s expects a number, got '%s'\n", flag,
                     text);
        std::exit(1);
    }
    return static_cast<unsigned>(value);
}

} // namespace

int
main(int argc, char **argv)
{
    WorldConfig config; // Defaults: gravity, dt = 0.01, 20 solver
                        // iterations — the paper's parameters.
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
            config.workerThreads = parseCount("--workers", argv[++i]);
        } else {
            std::fprintf(stderr, "usage: %s [--workers N]\n", argv[0]);
            return 1;
        }
    }
    World world(config);
    std::printf("workers=%u\n", world.config().workerThreads);

    // Static environment: the ground plane.
    const PlaneShape *ground = world.addPlane({0, 1, 0}, 0.0);
    world.createGeom(ground, world.createStaticBody(Transform()));

    // A stack of three crates.
    const BoxShape *crate = world.addBox({0.5, 0.5, 0.5});
    for (int i = 0; i < 3; ++i) {
        RigidBody *box = world.createDynamicBody(
            Transform(Quat(), {0.0, 0.55 + i * 1.01, 0.0}), *crate,
            200.0);
        world.createGeom(crate, box);
    }

    // A bouncy ball lobbed at the stack.
    const SphereShape *ball_shape = world.addSphere(0.3);
    RigidBody *ball = world.createDynamicBody(
        Transform(Quat(), {-4.0, 1.5, 0.0}), *ball_shape, 50.0);
    ball->setLinearVelocity({6.0, 2.0, 0.0});
    world.createGeom(ball_shape, ball);

    std::printf("simulating 2 seconds (60 frames at 30 FPS)...\n");
    for (int frame = 0; frame < 60; ++frame) {
        world.stepFrame(); // 3 x dt = one display frame.
        if (frame % 15 == 0) {
            const StepStats &stats = world.lastStepStats();
            std::printf(
                "t=%4.2fs  ball=(%6.2f,%5.2f,%5.2f)  pairs=%llu "
                "contacts=%llu islands=%zu\n",
                world.time(), ball->position().x,
                ball->position().y, ball->position().z,
                static_cast<unsigned long long>(stats.pairsFound),
                static_cast<unsigned long long>(
                    stats.contactsCreated),
                stats.islands.size());
        }
    }

    std::printf("\nfinal positions:\n");
    for (const auto &body : world.bodies()) {
        if (body->isStatic())
            continue;
        std::printf("  body %u at (%6.2f, %5.2f, %6.2f)\n",
                    body->id(), body->position().x,
                    body->position().y, body->position().z);
    }
    return 0;
}
