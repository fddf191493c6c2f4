/**
 * @file
 * Tests for deterministic capture/replay (physics/debug/capture).
 *
 * The contract under test: restoring a snapshot reproduces the
 * subsequent trajectory bitwise — into the same world or into a
 * freshly built copy of the scene — and damaged snapshot files fail
 * with a readable error, never a crash.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "physics/debug/capture.hh"
#include "workload/benchmarks.hh"

namespace parallax
{
namespace
{

WorldConfig
mixConfig(unsigned workers = 2)
{
    WorldConfig config;
    config.workerThreads = workers;
    return config;
}

/** Bitwise-comparable snapshot of all dynamic state in a world. */
std::vector<double>
worldState(const World &world)
{
    std::vector<double> state;
    for (const auto &body : world.bodies()) {
        const Vec3 &p = body->position();
        const Quat &q = body->orientation();
        const Vec3 &lv = body->linearVelocity();
        const Vec3 &av = body->angularVelocity();
        const double values[] = {p.x,  p.y,  p.z,  q.w,  q.x,
                                 q.y,  q.z,  lv.x, lv.y, lv.z,
                                 av.x, av.y, av.z};
        state.insert(state.end(), std::begin(values),
                     std::end(values));
    }
    for (const auto &cloth : world.cloths()) {
        for (const auto &particle : cloth->particles()) {
            state.push_back(particle.position.x);
            state.push_back(particle.position.y);
            state.push_back(particle.position.z);
        }
    }
    return state;
}

void
expectBitwiseEqual(const std::vector<double> &a,
                   const std::vector<double> &b, const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          a.size() * sizeof(double)),
              0)
        << what;
}

TEST(Capture, DescribeReportsSceneAndCounts)
{
    auto world = buildBenchmark(BenchmarkId::Mix, mixConfig(), 0.12);
    for (int i = 0; i < 10; ++i)
        world->step();
    const std::vector<std::uint8_t> bytes = world->captureState();

    SnapshotInfo info;
    WorldConfig config;
    ASSERT_TRUE(describeSnapshot(bytes, info, config).ok());
    EXPECT_EQ(info.version, snapshotVersion);
    EXPECT_EQ(info.sceneTag, "bench:Mix:scale=0.12");
    EXPECT_EQ(info.stepCount, 10u);
    EXPECT_EQ(info.bodies, static_cast<std::uint32_t>(
                               world->bodyCount()));
    EXPECT_EQ(info.joints, static_cast<std::uint32_t>(
                               world->jointCount()));
    EXPECT_EQ(config.workerThreads, 2u);
}

/** Capture mid-run, keep stepping, then rewind the same world and
 *  step again: the 100 post-snapshot steps must replay bitwise. */
TEST(Capture, SameWorldRoundTripIsBitwiseIdentical)
{
    auto world = buildBenchmark(BenchmarkId::Mix, mixConfig(), 0.12);
    for (int i = 0; i < 40; ++i)
        world->step();
    const std::vector<std::uint8_t> snapshot = world->captureState();

    for (int i = 0; i < 100; ++i)
        world->step();
    const std::vector<double> original = worldState(*world);
    ASSERT_FALSE(original.empty());

    ASSERT_TRUE(world->restoreState(snapshot).ok());
    EXPECT_EQ(world->stepCount(), 40u);
    for (int i = 0; i < 100; ++i)
        world->step();
    expectBitwiseEqual(original, worldState(*world),
                       "same-world replay diverged");
}

/** Restore into a freshly built scene (the replay-tool path). The
 *  Explosions scene is warmed until blast volumes have spawned, so
 *  the restore also exercises structural reconciliation. */
TEST(Capture, FreshWorldRoundTripRecreatesBlastSpawns)
{
    const WorldConfig config = mixConfig();
    auto world =
        buildBenchmark(BenchmarkId::Explosions, config, 0.12);

    std::vector<std::uint8_t> snapshot;
    SnapshotInfo info;
    WorldConfig snap_config;
    int warmed = 0;
    for (; warmed < 200; ++warmed) {
        world->step();
        snapshot = world->captureState();
        ASSERT_TRUE(
            describeSnapshot(snapshot, info, snap_config).ok());
        if (info.blastSpawns > 0)
            break;
    }
    ASSERT_GT(info.blastSpawns, 0u)
        << "no explosion triggered in " << warmed << " steps";

    for (int i = 0; i < 100; ++i)
        world->step();
    const std::vector<double> original = worldState(*world);

    auto fresh =
        buildBenchmark(BenchmarkId::Explosions, config, 0.12);
    ASSERT_LT(fresh->bodyCount(), world->bodyCount())
        << "expected the snapshot to carry extra spawned bodies";
    ASSERT_TRUE(fresh->restoreState(snapshot).ok());
    EXPECT_EQ(fresh->bodyCount(), world->bodyCount());
    for (int i = 0; i < 100; ++i)
        fresh->step();
    expectBitwiseEqual(original, worldState(*fresh),
                       "fresh-world replay diverged");
}

/** Restore into the same world across a blast spawn (a rollback):
 *  the volumes it spawned after the capture are taken back, and it
 *  then steps exactly like a world that never spawned them. Any
 *  other extra geom is still a mismatch. */
TEST(Capture, SameWorldRestoreTakesBackLaterBlastSpawns)
{
    const WorldConfig config = mixConfig();
    auto world =
        buildBenchmark(BenchmarkId::Explosions, config, 0.12);
    const std::size_t geoms = world->geomCount();
    std::vector<std::uint8_t> before;
    int captured_at = 0;
    for (; captured_at < 200 && world->geomCount() == geoms;
         ++captured_at) {
        before = world->captureState();
        world->step();
    }
    ASSERT_GT(world->geomCount(), geoms)
        << "no explosion triggered in " << captured_at << " steps";
    --captured_at; // `before` was taken ahead of the spawning step.
    // One more step sweeps the spawns into the broadphase axis. The
    // restore re-enables the exploded objects, so the next sweep
    // sees as many geoms as the axis holds and walks it: the axis
    // must no longer point at the removed spawns (ASan catches it).
    world->step();

    ASSERT_TRUE(world->restoreState(before).ok());
    EXPECT_EQ(world->geomCount(), geoms);
    EXPECT_EQ(world->captureState(), before);

    auto replica =
        buildBenchmark(BenchmarkId::Explosions, config, 0.12);
    for (int i = 0; i < captured_at; ++i)
        replica->step();
    ASSERT_EQ(replica->captureState(), before);
    for (int i = 0; i < 60; ++i) {
        world->step();
        replica->step();
    }
    EXPECT_GT(world->geomCount(), geoms) << "the blast spawns again";
    EXPECT_EQ(worldStateHash(*world), worldStateHash(*replica));
    EXPECT_EQ(world->captureState(), replica->captureState());

    // A late geom that is not a blast volume blocks the restore and
    // leaves the world as it was.
    const std::size_t live = world->geomCount();
    world->createGeom(world->addSphere(0.5),
                      world->createStaticBody(Transform()));
    const Status st = world->restoreState(before);
    EXPECT_EQ(st.code(), StatusCode::FailedPrecondition)
        << st.toString();
    EXPECT_EQ(world->geomCount(), live + 1);
}

/** FNV-1a over a whole blob, header included. */
std::uint64_t
blobFnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const std::uint8_t b : bytes) {
        hash ^= b;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/** Every byte of captureState() is pinned for four scenes at fixed
 *  steps: cloth particles (Deformable, Mix), spawned blast volumes
 *  and active blasts (Explosions) and fracture flags (Breakable).
 *  A rewrite of the writer must reproduce the blobs byte for byte;
 *  a layout change bumps snapshotVersion and re-records these. */
TEST(Capture, CaptureBytesArePinned)
{
    struct Pin
    {
        BenchmarkId id;
        double scale;
        int steps;
        std::size_t size;
        std::uint64_t fnv;
    };
    const Pin pins[] = {
        {BenchmarkId::Mix, 0.12, 40, 640639, 0x82c46cff5d5152bcull},
        {BenchmarkId::Deformable, 0.25, 30, 123427, 0xe9042a39f0c7b6acull},
        {BenchmarkId::Explosions, 0.12, 60, 241261, 0x75cb85b79637aef7ull},
        {BenchmarkId::Breakable, 0.12, 50, 679598, 0x975bf12169bc3034ull},
    };
    for (const Pin &pin : pins) {
        const char *name = benchmarkInfo(pin.id).name;
        auto world = buildBenchmark(pin.id, mixConfig(0), pin.scale);
        for (int i = 0; i < pin.steps; ++i)
            world->step();
        const std::vector<std::uint8_t> bytes = world->captureState();
        SnapshotInfo info;
        WorldConfig config;
        ASSERT_TRUE(describeSnapshot(bytes, info, config).ok()) << name;
        if (pin.id == BenchmarkId::Explosions) {
            EXPECT_GT(info.blastSpawns, 0u) << name;
        }
        if (pin.id == BenchmarkId::Deformable ||
            pin.id == BenchmarkId::Mix) {
            EXPECT_GT(info.cloths, 0u) << name;
        }
        EXPECT_EQ(bytes.size(), pin.size) << name;
        EXPECT_EQ(blobFnv1a(bytes), pin.fnv)
            << name << std::hex << ": 0x" << blobFnv1a(bytes)
            << std::dec << " spawns " << info.blastSpawns;
    }
}

TEST(Capture, TruncatedSnapshotFailsReadably)
{
    auto world = buildBenchmark(BenchmarkId::Mix, mixConfig(), 0.12);
    world->step();
    std::vector<std::uint8_t> bytes = world->captureState();

    // Header promises more payload than the file holds.
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.begin() + bytes.size() / 2);
    SnapshotInfo info;
    WorldConfig config;
    const Status st = describeSnapshot(cut, info, config);
    EXPECT_EQ(st.code(), StatusCode::DataLoss) << st.toString();
    EXPECT_NE(st.message().find("truncated"), std::string::npos)
        << st.toString();
    EXPECT_FALSE(world->restoreState(cut).ok());

    // Too short to even hold a header.
    std::vector<std::uint8_t> stub(bytes.begin(), bytes.begin() + 4);
    EXPECT_EQ(describeSnapshot(stub, info, config).code(),
              StatusCode::DataLoss);
}

TEST(Capture, CorruptedSnapshotFailsReadably)
{
    auto world = buildBenchmark(BenchmarkId::Mix, mixConfig(), 0.12);
    world->step();
    std::vector<std::uint8_t> bytes = world->captureState();

    std::vector<std::uint8_t> flipped = bytes;
    flipped[flipped.size() - 1] ^= 0xff; // Payload byte.
    SnapshotInfo info;
    WorldConfig config;
    const Status st = describeSnapshot(flipped, info, config);
    EXPECT_EQ(st.code(), StatusCode::DataLoss) << st.toString();
    EXPECT_NE(st.message().find("checksum"), std::string::npos)
        << st.toString();
    EXPECT_FALSE(world->restoreState(flipped).ok());

    std::vector<std::uint8_t> bad_magic = bytes;
    bad_magic[0] ^= 0xff;
    const Status magic_st =
        describeSnapshot(bad_magic, info, config);
    EXPECT_EQ(magic_st.code(), StatusCode::InvalidArgument)
        << magic_st.toString();
    EXPECT_NE(magic_st.message().find("magic"), std::string::npos);
}

TEST(Capture, WrongSceneStructureFailsReadably)
{
    auto mix = buildBenchmark(BenchmarkId::Mix, mixConfig(), 0.12);
    mix->step();
    const std::vector<std::uint8_t> snapshot = mix->captureState();

    auto other =
        buildBenchmark(BenchmarkId::Periodic, mixConfig(), 0.12);
    const Status st = other->restoreState(snapshot);
    EXPECT_EQ(st.code(), StatusCode::FailedPrecondition)
        << st.toString();
    // The error names the mismatch instead of crashing or silently
    // corrupting the target world.
    EXPECT_NE(st.message().find("snapshot"), std::string::npos)
        << st.toString();
}

// --- Hostile / corrupted snapshot corpus. -------------------------
// The parser must reject damaged headers and hostile length fields
// with a readable error — never crash, never size an allocation from
// an unvalidated count.

/** Snapshot layout constants (see capture.cc): 8-byte magic, then
 *  version u32 @8, checksum u64 @12, payloadSize u64 @20, payload
 *  @28. The checksum is FNV-1a over the payload only. */
constexpr std::size_t kVersionOffset = 8;
constexpr std::size_t kChecksumOffset = 12;
constexpr std::size_t kPayloadOffset = 28;

std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t size)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= data[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::uint32_t
readU32(const std::vector<std::uint8_t> &bytes, std::size_t offset)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(bytes[offset + i]) << (8 * i);
    return v;
}

void
writeU32(std::vector<std::uint8_t> &bytes, std::size_t offset,
         std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        bytes[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/** Re-seal a deliberately corrupted payload so only the targeted
 *  field is wrong — the checksum itself must stay valid. */
void
resealChecksum(std::vector<std::uint8_t> &bytes)
{
    const std::uint64_t hash = fnv1a(bytes.data() + kPayloadOffset,
                                     bytes.size() - kPayloadOffset);
    for (int i = 0; i < 8; ++i)
        bytes[kChecksumOffset + i] =
            static_cast<std::uint8_t>(hash >> (8 * i));
}

TEST(CaptureCorpus, EveryTruncatedHeaderPrefixFailsReadably)
{
    auto world = buildBenchmark(BenchmarkId::Mix, mixConfig(), 0.12);
    world->step();
    const std::vector<std::uint8_t> bytes = world->captureState();
    ASSERT_GT(bytes.size(), kPayloadOffset);

    SnapshotInfo info;
    WorldConfig config;
    for (std::size_t len = 0; len < kPayloadOffset; ++len) {
        std::vector<std::uint8_t> cut(bytes.begin(),
                                      bytes.begin() + len);
        EXPECT_FALSE(describeSnapshot(cut, info, config).ok())
            << "header prefix of " << len << " bytes was accepted";
        EXPECT_FALSE(world->restoreState(cut).ok());
    }
}

TEST(CaptureCorpus, HostileSceneTagLengthFailsReadably)
{
    auto world = buildBenchmark(BenchmarkId::Mix, mixConfig(), 0.12);
    world->step();
    std::vector<std::uint8_t> bytes = world->captureState();

    // The payload opens with the sceneTag length; declare 2 GiB of
    // tag in a few-hundred-KiB file and re-seal the checksum so the
    // length field is the only corruption.
    writeU32(bytes, kPayloadOffset, 0x7fffffffu);
    resealChecksum(bytes);

    SnapshotInfo info;
    WorldConfig config;
    const Status st = describeSnapshot(bytes, info, config);
    EXPECT_EQ(st.code(), StatusCode::DataLoss) << st.toString();
    EXPECT_NE(st.message().find("truncated"), std::string::npos)
        << st.toString();
    EXPECT_FALSE(world->restoreState(bytes).ok());
}

TEST(CaptureCorpus, HostileArrayCountFailsWithoutAllocating)
{
    auto world = buildBenchmark(BenchmarkId::Mix, mixConfig(), 0.12);
    world->step();
    std::vector<std::uint8_t> bytes = world->captureState();

    // Locate the blast-spawn count: sceneTag str (4 + L), stepCount
    // + time + totalJointsBroken (24), serialized config (105), four
    // entity counts (16). The Mix scene has no blasts at step 1, so
    // the field must read zero — a loud canary against layout drift.
    const std::uint32_t tag_len = readU32(bytes, kPayloadOffset);
    const std::size_t spawns_offset =
        kPayloadOffset + 4 + tag_len + 24 + 105 + 16;
    ASSERT_LT(spawns_offset + 4, bytes.size());
    ASSERT_EQ(readU32(bytes, spawns_offset), 0u)
        << "snapshot layout drifted; update the offsets above";

    // A length field of 2^31 with a checksum-valid file: the parser
    // must reject the declared count against the remaining payload
    // instead of sizing a 2-billion-element allocation.
    writeU32(bytes, spawns_offset, 0x80000000u);
    resealChecksum(bytes);

    const Status st = world->restoreState(bytes);
    EXPECT_EQ(st.code(), StatusCode::DataLoss) << st.toString();
    EXPECT_NE(st.message().find("declares"), std::string::npos)
        << st.toString();
    EXPECT_NE(st.message().find("2147483648"), std::string::npos)
        << st.toString();
}

TEST(CaptureCorpus, ChecksumValidVersionBumpFailsReadably)
{
    auto world = buildBenchmark(BenchmarkId::Mix, mixConfig(), 0.12);
    world->step();
    std::vector<std::uint8_t> bytes = world->captureState();

    // The checksum covers the payload, so a bumped header version
    // leaves a checksum-valid file; it must still be rejected, by
    // name, before any payload is interpreted.
    writeU32(bytes, kVersionOffset, snapshotVersion + 1);
    SnapshotInfo info;
    WorldConfig config;
    const Status st = describeSnapshot(bytes, info, config);
    EXPECT_EQ(st.code(), StatusCode::InvalidArgument)
        << st.toString();
    EXPECT_NE(st.message().find("version"), std::string::npos)
        << st.toString();
    EXPECT_FALSE(world->restoreState(bytes).ok());
}

void
writeU64(std::vector<std::uint8_t> &bytes, std::size_t offset,
         std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        bytes[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

bool
holdsU64(const std::vector<std::uint8_t> &bytes, std::size_t offset,
         std::uint64_t v)
{
    if (offset + 8 > bytes.size())
        return false;
    for (int i = 0; i < 8; ++i) {
        if (bytes[offset + i] != static_cast<std::uint8_t>(v >> (8 * i)))
            return false;
    }
    return true;
}

TEST(CaptureCorpus, UnorderedWarmCacheKeysFailReadably)
{
    auto world = buildBenchmark(BenchmarkId::Mix, mixConfig(), 0.12);
    for (int i = 0; i < 5; ++i)
        world->step();

    // The warm cache is this step's contact pool in order, one
    // group per geom pair: u64 key, u32 count, 72 bytes per entry.
    std::vector<std::uint64_t> keys;
    std::vector<std::uint32_t> counts;
    for (const ContactConstraint &constraint :
         world->lastContactConstraints()) {
        const Contact &c = constraint.contact;
        const std::uint64_t key =
            (static_cast<std::uint64_t>(std::min(c.geomA, c.geomB))
             << 32) |
            std::max(c.geomA, c.geomB);
        if (keys.empty() || keys.back() != key) {
            keys.push_back(key);
            counts.push_back(0);
        }
        ++counts.back();
    }
    ASSERT_GE(keys.size(), 2u);

    std::vector<std::uint8_t> bytes = world->captureState();
    // Locate the section: the group count, then the first group's key
    // and count, then the second group's key right after its entries.
    std::size_t first = 0;
    for (std::size_t at = kPayloadOffset; at + 16 < bytes.size(); ++at) {
        if (readU32(bytes, at) == keys.size() &&
            holdsU64(bytes, at + 4, keys[0]) &&
            readU32(bytes, at + 12) == counts[0] &&
            holdsU64(bytes, at + 16 + 72 * counts[0], keys[1])) {
            first = at + 4;
            break;
        }
    }
    ASSERT_NE(first, 0u) << "warm-cache section not found";
    const std::size_t second = first + 12 + 72 * counts[0];

    // Swap the first two group keys and re-seal the checksum: only
    // the ordering is wrong, every count and length still adds up.
    writeU64(bytes, first, keys[1]);
    writeU64(bytes, second, keys[0]);
    resealChecksum(bytes);

    const Status st = world->restoreState(bytes);
    EXPECT_EQ(st.code(), StatusCode::DataLoss) << st.toString();
    EXPECT_NE(st.message().find("warm-cache"), std::string::npos)
        << st.toString();
}

TEST(Capture, FileRoundTripAndMissingFile)
{
    auto world = buildBenchmark(BenchmarkId::Mix, mixConfig(), 0.12);
    world->step();
    const std::vector<std::uint8_t> bytes = world->captureState();

    const std::string path =
        testing::TempDir() + "capture_roundtrip.paxsnap";
    ASSERT_TRUE(writeSnapshotFile(path, bytes).ok());
    std::vector<std::uint8_t> loaded;
    ASSERT_TRUE(readSnapshotFile(path, loaded).ok());
    EXPECT_EQ(loaded, bytes);
    std::remove(path.c_str());

    std::vector<std::uint8_t> missing;
    EXPECT_EQ(readSnapshotFile(path + ".nope", missing).code(),
              StatusCode::NotFound);
}

} // namespace
} // namespace parallax
