/**
 * @file
 * Umbrella public header for the ParallAX reproduction.
 *
 * Since the v1 API redesign the supported public surface is the
 * versioned header set under include/parallax/ (see
 * parallax/version.hh and docs/API.md):
 *
 *  - parallax/config.hh    WorldConfig (+ validate()), governor and
 *                          scheduler tuning, fault plans.
 *  - parallax/world.hh     World, bodies/joints/cloth/shapes,
 *                          raycasts, RenderState + interpolate,
 *                          invariants, tracing, metrics line.
 *  - parallax/snapshot.hh  .paxsnap capture/replay, snapshot file
 *                          I/O, delta streaming, worldStateHash.
 *  - parallax/server.hh    Server: N worlds over one scheduler,
 *                          WorldId sessions, fixed-tick stepping,
 *                          admission/shedding (link pax_server).
 *  - parallax/status.hh    Status (code + message) returned by every
 *                          fallible public call.
 *
 * Consumers (benches, examples, downstream tools) include this one
 * umbrella — or the specific parallax/*.hh they need — instead of
 * reaching into `physics/...` internals, so the engine's threading
 * model and module layout can evolve without breaking call sites.
 * The check_public_api ctest guard enforces exactly that for the
 * in-tree consumers.
 *
 * Exports beyond the v1 set, kept for the workload/architecture
 * harnesses:
 *  - Workload:     BenchmarkId, buildBenchmark/runBenchmark,
 *                  StepProfile, Instrumentation, TraceGenerator,
 *                  scene-builder helpers.
 *  - Architecture: ParallaxSystem, FgCoreModel, AreaModel, Arbiter.
 *  - Simulation:   logging.
 *
 * Lower-level simulator internals (cpu/, isa/, mem/, noc/) remain
 * separate opt-in includes: they model hardware, not the engine API.
 */

#ifndef PARALLAX_PARALLAX_HH
#define PARALLAX_PARALLAX_HH

#include "parallax/config.hh"
#include "parallax/server.hh"
#include "parallax/snapshot.hh"
#include "parallax/status.hh"
#include "parallax/version.hh"
#include "parallax/world.hh"

#include "core/arbiter.hh"
#include "core/area_model.hh"
#include "core/fg_core_model.hh"
#include "core/parallax_system.hh"
#include "sim/logging.hh"
#include "workload/benchmarks.hh"
#include "workload/instrumentation.hh"
#include "workload/mem_trace.hh"
#include "workload/scene_builder.hh"

#endif // PARALLAX_PARALLAX_HH
