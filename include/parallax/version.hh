/**
 * @file
 * Public API version of the include/parallax/ header set.
 *
 * The major number bumps on source-incompatible changes to the
 * public surface (the v1 redesign replaced the string-error facade
 * with parallax::Status and added the Server session API; v2 dropped
 * WorldConfig's legacy boolean invariant-check flag; v3 dropped the
 * broadphase-choice and phase-overlap options and the text stats
 * export; v4 dropped the frame-arena block-size options, the arena
 * stats and the narrowphase cost observer; v5 made contact joints a
 * value pool, islands spans, and the scheduler's loop body a
 * non-owning reference; v6 dropped the World and scheduler tiling
 * options, the scheduling mode, the default-grain loops and two
 * island-routing step counters, ignores WorldConfig::deterministic
 * and stops reading PAX_SIMD inside World; v7 dropped the
 * string-keyed metrics registry of World and Server; v8 dropped the
 * narrowphase's vector-engine counters with the SIMD sphere-pair
 * batches, see docs/API.md; 8.1 added the scheduler's
 * dominant-first dealing order; v9 made contacts plain
 * ContactConstraint records that islands carry beside their joints,
 * and dropped Joint::onSolved and the per-row joint id); the minor
 * number bumps when the surface grows compatibly. Internal headers
 * under src/ carry no compatibility promise at all — consumers that
 * reach past include/parallax/ are on their own, and the
 * check_public_api ctest guard keeps the in-tree benches, examples
 * and tools honest about it.
 */

#ifndef PARALLAX_PUBLIC_VERSION_HH
#define PARALLAX_PUBLIC_VERSION_HH

#define PARALLAX_API_VERSION_MAJOR 9
#define PARALLAX_API_VERSION_MINOR 0

/** Single comparable value: major * 1000 + minor. */
#define PARALLAX_API_VERSION                                         \
    (PARALLAX_API_VERSION_MAJOR * 1000 + PARALLAX_API_VERSION_MINOR)

namespace parallax
{

/** Runtime echo of the compile-time version macros. */
constexpr int apiVersionMajor = PARALLAX_API_VERSION_MAJOR;
constexpr int apiVersionMinor = PARALLAX_API_VERSION_MINOR;

} // namespace parallax

#endif // PARALLAX_PUBLIC_VERSION_HH
