/**
 * @file
 * Public engine surface: World and everything reachable from it —
 * WorldConfig, StepStats, RigidBody, Geom, Joint, Cloth, shapes,
 * raycasts, RenderState + World::interpolate (fixed-tick render
 * decoupling), the invariant checker, tracing and the per-step
 * metrics line.
 *
 * Part of the versioned include/parallax/ header set (version.hh).
 * One World is one simulation session; to serve many of them over a
 * shared scheduler, see parallax/server.hh.
 */

#ifndef PARALLAX_PUBLIC_WORLD_HH
#define PARALLAX_PUBLIC_WORLD_HH

#include "parallax/config.hh"
#include "parallax/version.hh"

#include "physics/debug/invariants.hh"
#include "physics/raycast.hh"
#include "physics/trace/trace.hh"
#include "physics/world.hh"

#endif // PARALLAX_PUBLIC_WORLD_HH
