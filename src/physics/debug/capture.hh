/**
 * @file
 * Deterministic capture/replay: versioned binary world snapshots.
 *
 * A snapshot records everything World::step() reads: body states,
 * joint break states, cloth particles, the contact warm-start cache,
 * the effects subsystem (pending explosives, active blasts, fracture
 * flags), simulation time, and the world configuration. Restoring a
 * snapshot into a world with the same scene structure reproduces the
 * subsequent trajectory bitwise (in deterministic mode, for any
 * worker count), which turns "scene misbehaves at step 2843" into
 * "load snapshot, step once".
 *
 * Blast volumes are the one structural mutation a running scene
 * performs (EffectsManager::triggerExplosion adds a shape, a static
 * anchor body and a trigger geom). Snapshots record these spawns so
 * restoring into a freshly built scene can recreate them and line
 * the id spaces back up.
 *
 * Format: an 8-byte magic, a version word, an FNV-1a checksum and a
 * payload length, followed by the payload. Truncated or corrupted
 * files are rejected with a structured parallax::Status, never a
 * crash.
 *
 * Delta streaming: a second blob type ("PAXDELT1") encodes one
 * snapshot as a set of byte-range patches against a base snapshot,
 * for server-side client join/rewind streams where consecutive ticks
 * share almost all of their bytes. Both blob checksums are embedded,
 * so applying a delta to the wrong base fails loudly. See
 * docs/SNAPSHOT_FORMAT.md.
 */

#ifndef PARALLAX_PHYSICS_DEBUG_CAPTURE_HH
#define PARALLAX_PHYSICS_DEBUG_CAPTURE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "parallax/status.hh"

namespace parallax
{

struct WorldConfig;
class World;

/** Current snapshot format version (bumped on layout changes). */
constexpr std::uint32_t snapshotVersion = 2;

/** Current snapshot-delta format version. */
constexpr std::uint32_t snapshotDeltaVersion = 1;

/** Header fields parsed without touching a World. */
struct SnapshotInfo
{
    std::uint32_t version = 0;
    /** Scene provenance (WorldConfig::sceneTag), e.g.
     *  "bench:MIX:scale=1". Empty for hand-built scenes. */
    std::string sceneTag;
    std::uint64_t stepCount = 0;
    double time = 0.0;
    std::uint32_t bodies = 0;
    std::uint32_t geoms = 0;
    std::uint32_t joints = 0;
    std::uint32_t cloths = 0;
    /** Blast volumes spawned mid-run (structural mutations). */
    std::uint32_t blastSpawns = 0;
};

/**
 * Parse a snapshot's header, scene tag, config and entity counts.
 * Verifies magic, version and checksum. Fills `info` and the
 * snapshot's WorldConfig.
 */
Status describeSnapshot(const std::vector<std::uint8_t> &bytes,
                        SnapshotInfo &info, WorldConfig &config);

/** Write a snapshot (or delta) blob to a file. */
Status writeSnapshotFile(const std::string &path,
                         const std::vector<std::uint8_t> &bytes);

/** Read a snapshot (or delta) blob from a file. */
Status readSnapshotFile(const std::string &path,
                        std::vector<std::uint8_t> &bytes);

// --- Delta-compressed snapshot streaming. ---

/** True when `bytes` carry the delta magic (vs a full snapshot). */
bool isSnapshotDelta(const std::vector<std::uint8_t> &bytes);

/**
 * Encode `target` as byte-range patches against `base` (both full
 * snapshot blobs). The result embeds checksums of base and target,
 * so application is verified end to end. Worst case (nothing
 * shared) the delta is slightly larger than the target; typical
 * tick-to-tick deltas are a small fraction of it.
 */
std::vector<std::uint8_t>
encodeSnapshotDelta(const std::vector<std::uint8_t> &base,
                    const std::vector<std::uint8_t> &target);

/**
 * Reconstruct the target snapshot from `base` + `delta` into `out`.
 * Fails with DATA_LOSS when `base` is not the blob the delta was
 * encoded against or the reconstruction fails its checksum, and
 * with INVALID_ARGUMENT on a malformed delta.
 */
Status applySnapshotDelta(const std::vector<std::uint8_t> &base,
                          const std::vector<std::uint8_t> &delta,
                          std::vector<std::uint8_t> &out);

/**
 * FNV-1a fingerprint of the world's dynamic state only: body poses,
 * velocities and sleep state, joint break bookkeeping, cloth
 * particles, and simulation time. Unlike captureState() — whose
 * bytes embed the WorldConfig, including the worker count — this
 * hash covers exactly the quantities the deterministic-mode
 * guarantee promises are bitwise identical for any number of
 * workers: equal hashes across worker counts are that promise, and
 * equal hashes across code versions mean a refactor did not move a
 * single bit (tools/state_hash prints it per scene).
 */
std::uint64_t worldStateHash(const World &world);

/**
 * True when every quantity worldStateHash covers — body poses,
 * orientations, velocities, cloth particles, simulation time — is
 * finite. The cheap health probe the server watchdog runs after each
 * tick burst: a NaN or Inf anywhere in dynamic state means the world
 * is poisoned even when no invariant checker is configured. Early-
 * exits on the first non-finite value.
 */
bool worldStateFinite(const World &world);

} // namespace parallax

#endif // PARALLAX_PHYSICS_DEBUG_CAPTURE_HH
