#include "capture.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "physics/shapes/primitives.hh"
#include "physics/world.hh"
#include "sim/logging.hh"

namespace parallax
{

namespace
{

constexpr char snapshotMagic[8] = {'P', 'A', 'X', 'S',
                                   'N', 'A', 'P', '1'};

/** Magic, version, payload checksum and payload size. */
constexpr std::size_t snapshotHeaderSize = sizeof(snapshotMagic) + 4 + 8 + 8;

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

/**
 * Little-endian writer for POD snapshot fields. A counting writer
 * (Store = false) stores nothing and only adds up the bytes, so a
 * blob is written in two passes over one field list: count, size the
 * buffer once, then store into it. No pass ever grows a buffer.
 */
template <bool Store>
class Writer
{
  public:
    Writer() = default;
    /** Storing writer: `out` has room for every byte written. */
    explicit Writer(std::uint8_t *out) : out_(out) {}

    /** Bytes written so far. */
    std::size_t size() const { return size_; }

    void u8(std::uint8_t v) { bytes(&v, 1); }

    void
    u32(std::uint32_t v)
    {
        std::uint8_t b[4];
        for (int i = 0; i < 4; ++i)
            b[i] = static_cast<std::uint8_t>(v >> (8 * i));
        bytes(b, sizeof(b));
    }

    void
    u64(std::uint64_t v)
    {
        std::uint8_t b[8];
        for (int i = 0; i < 8; ++i)
            b[i] = static_cast<std::uint8_t>(v >> (8 * i));
        bytes(b, sizeof(b));
    }

    void
    i32(std::int32_t v)
    {
        u32(static_cast<std::uint32_t>(v));
    }

    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    vec3(const Vec3 &v)
    {
        f64(v.x);
        f64(v.y);
        f64(v.z);
    }

    void
    quat(const Quat &q)
    {
        f64(q.w);
        f64(q.x);
        f64(q.y);
        f64(q.z);
    }

    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        bytes(s.data(), s.size());
    }

    void
    bytes(const void *data, std::size_t n)
    {
        if constexpr (Store) {
            if (n > 0)
                std::memcpy(out_ + size_, data, n);
        }
        size_ += n;
    }

  private:
    std::uint8_t *out_ = nullptr;
    std::size_t size_ = 0;
};

/** Bounds-checked reader: records what it was reading when the bytes
 *  ran out, so truncation errors name the missing section. */
class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {}

    bool ok() const { return error_.empty(); }
    const std::string &error() const { return error_; }

    std::uint8_t
    u8(const char *what)
    {
        if (!need(1, what))
            return 0;
        return data_[pos_++];
    }

    std::uint32_t
    u32(const char *what)
    {
        if (!need(4, what))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    std::uint64_t
    u64(const char *what)
    {
        if (!need(8, what))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
        return v;
    }

    std::int32_t
    i32(const char *what)
    {
        return static_cast<std::int32_t>(u32(what));
    }

    double
    f64(const char *what)
    {
        const std::uint64_t bits = u64(what);
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    Vec3
    vec3(const char *what)
    {
        Vec3 v;
        v.x = f64(what);
        v.y = f64(what);
        v.z = f64(what);
        return v;
    }

    Quat
    quat(const char *what)
    {
        Quat q;
        q.w = f64(what);
        q.x = f64(what);
        q.y = f64(what);
        q.z = f64(what);
        return q;
    }

    std::string
    str(const char *what)
    {
        const std::uint32_t n = u32(what);
        if (!need(n, what))
            return "";
        std::string s(reinterpret_cast<const char *>(data_ + pos_), n);
        pos_ += n;
        return s;
    }

    std::size_t remaining() const { return size_ - pos_; }

    /**
     * Validate a declared element count against the bytes actually
     * left in the payload: each element encodes to at least
     * `elem_bytes`, so a hostile length field (say 2^31) fails here
     * with a readable error instead of sizing a giant allocation.
     */
    std::size_t
    count(std::uint32_t n, std::size_t elem_bytes, const char *what)
    {
        if (!ok())
            return 0;
        if (static_cast<std::uint64_t>(n) * elem_bytes > remaining()) {
            error_ = "snapshot declares " + std::to_string(n) + " " +
                     what + " but only " +
                     std::to_string(remaining()) +
                     " payload bytes remain";
            return 0;
        }
        return n;
    }

    void
    fail(std::string message)
    {
        if (error_.empty())
            error_ = std::move(message);
    }

  private:
    bool
    need(std::size_t n, const char *what)
    {
        if (!ok())
            return false;
        if (pos_ + n > size_) {
            error_ = std::string("snapshot truncated while reading ") +
                     what;
            return false;
        }
        return true;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    std::string error_;
};

template <class W>
void
writeConfig(W &w, const WorldConfig &config)
{
    w.vec3(config.gravity);
    w.f64(config.dt);
    w.i32(config.solverIterations);
    w.i32(config.clothIterations);
    w.u32(config.workerThreads);
    w.f64(config.defaultMaterial.friction);
    w.f64(config.defaultMaterial.restitution);
    w.f64(config.defaultMaterial.restitutionThreshold);
    w.f64(config.erp);
    w.f64(config.cfm);
    w.u8(config.autoDisable ? 1 : 0);
    w.f64(config.sleepLinearVelocity);
    w.f64(config.sleepAngularVelocity);
    w.i32(config.sleepSteps);
}

WorldConfig
readConfig(Reader &r)
{
    WorldConfig config;
    config.gravity = r.vec3("config.gravity");
    config.dt = r.f64("config.dt");
    config.solverIterations = r.i32("config.solverIterations");
    config.clothIterations = r.i32("config.clothIterations");
    config.workerThreads = r.u32("config.workerThreads");
    config.defaultMaterial.friction = r.f64("config.friction");
    config.defaultMaterial.restitution = r.f64("config.restitution");
    config.defaultMaterial.restitutionThreshold =
        r.f64("config.restitutionThreshold");
    config.erp = r.f64("config.erp");
    config.cfm = r.f64("config.cfm");
    config.autoDisable = r.u8("config.autoDisable") != 0;
    config.sleepLinearVelocity = r.f64("config.sleepLinearVelocity");
    config.sleepAngularVelocity = r.f64("config.sleepAngularVelocity");
    config.sleepSteps = r.i32("config.sleepSteps");
    return config;
}

/** Validate magic/version/checksum; returns the payload span via
 *  out-parameters and OK on success. */
Status
openSnapshot(const std::vector<std::uint8_t> &bytes,
             const std::uint8_t **payload, std::size_t *payload_size)
{
    if (bytes.size() < snapshotHeaderSize)
        return dataLoss("snapshot too small to hold a header (" +
                        std::to_string(bytes.size()) + " bytes)");
    if (std::memcmp(bytes.data(), snapshotMagic,
                    sizeof(snapshotMagic)) != 0) {
        return invalidArgument("not a ParallAX snapshot (bad magic)");
    }
    Reader header(bytes.data() + sizeof(snapshotMagic),
                  bytes.size() - sizeof(snapshotMagic));
    const std::uint32_t version = header.u32("header.version");
    if (version != snapshotVersion) {
        return invalidArgument("unsupported snapshot version " +
                               std::to_string(version) +
                               " (expected " +
                               std::to_string(snapshotVersion) + ")");
    }
    const std::uint64_t checksum = header.u64("header.checksum");
    const std::uint64_t size = header.u64("header.payloadSize");
    if (snapshotHeaderSize + size != bytes.size()) {
        return dataLoss("snapshot truncated: header promises " +
                        std::to_string(size) +
                        " payload bytes, file has " +
                        std::to_string(bytes.size() - snapshotHeaderSize));
    }
    *payload = bytes.data() + snapshotHeaderSize;
    *payload_size = static_cast<std::size_t>(size);
    if (fnv1a(*payload, *payload_size) != checksum)
        return dataLoss(
            "snapshot corrupted: payload checksum mismatch");
    return okStatus();
}

/** Payload prefix shared by describeSnapshot and restoreState. */
struct Preamble
{
    SnapshotInfo info;
    WorldConfig config;
    std::uint64_t totalJointsBroken = 0;
};

Preamble
readPreamble(Reader &r)
{
    Preamble p;
    p.info.version = snapshotVersion;
    p.info.sceneTag = r.str("sceneTag");
    p.info.stepCount = r.u64("stepCount");
    p.info.time = r.f64("time");
    p.totalJointsBroken = r.u64("totalJointsBroken");
    p.config = readConfig(r);
    p.config.sceneTag = p.info.sceneTag;
    p.info.bodies = r.u32("bodyCount");
    p.info.geoms = r.u32("geomCount");
    p.info.joints = r.u32("jointCount");
    p.info.cloths = r.u32("clothCount");
    p.info.blastSpawns = r.u32("blastSpawnCount");
    return p;
}

/** First config field whose mismatch would make a replay diverge. */
const char *
divergentConfigField(const WorldConfig &a, const WorldConfig &b)
{
    if ((a.gravity - b.gravity).lengthSquared() != 0.0)
        return "gravity";
    if (a.dt != b.dt)
        return "dt";
    if (a.solverIterations != b.solverIterations)
        return "solverIterations";
    if (a.clothIterations != b.clothIterations)
        return "clothIterations";
    if (a.defaultMaterial.friction != b.defaultMaterial.friction ||
        a.defaultMaterial.restitution !=
            b.defaultMaterial.restitution ||
        a.defaultMaterial.restitutionThreshold !=
            b.defaultMaterial.restitutionThreshold) {
        return "defaultMaterial";
    }
    if (a.erp != b.erp)
        return "erp";
    if (a.cfm != b.cfm)
        return "cfm";
    if (a.autoDisable != b.autoDisable)
        return "autoDisable";
    if (a.autoDisable &&
        (a.sleepLinearVelocity != b.sleepLinearVelocity ||
         a.sleepAngularVelocity != b.sleepAngularVelocity ||
         a.sleepSteps != b.sleepSteps)) {
        return "sleep thresholds";
    }
    return nullptr;
}

} // namespace

Status
describeSnapshot(const std::vector<std::uint8_t> &bytes,
                 SnapshotInfo &info, WorldConfig &config)
{
    const std::uint8_t *payload = nullptr;
    std::size_t payload_size = 0;
    const Status st = openSnapshot(bytes, &payload, &payload_size);
    if (!st.ok())
        return st;
    Reader r(payload, payload_size);
    const Preamble p = readPreamble(r);
    if (!r.ok())
        return dataLoss(r.error());
    info = p.info;
    config = p.config;
    return okStatus();
}

Status
writeSnapshotFile(const std::string &path,
                  const std::vector<std::uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        return ioError("cannot open '" + path + "' for writing");
    const std::size_t written =
        std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    if (written != bytes.size())
        return ioError("short write to '" + path + "'");
    return okStatus();
}

Status
readSnapshotFile(const std::string &path,
                 std::vector<std::uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return notFound("cannot open '" + path + "' for reading");
    bytes.clear();
    std::uint8_t buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    const bool bad = std::ferror(f) != 0;
    std::fclose(f);
    if (bad)
        return ioError("read error on '" + path + "'");
    return okStatus();
}

std::vector<std::uint8_t>
World::captureState() const
{
    const EffectsManager::State effects = effects_.captureState();
    // The payload's field list, run twice: once to count its bytes,
    // once to store them behind the header.
    const auto payload = [&](auto &w) {
        w.str(config_.sceneTag);
        w.u64(stepCount_);
        w.f64(time_);
        w.u64(totalJointsBroken_);
        writeConfig(w, config_);

        w.u32(static_cast<std::uint32_t>(bodies_.size()));
        w.u32(static_cast<std::uint32_t>(geoms_.size()));
        w.u32(static_cast<std::uint32_t>(joints_.size()));
        w.u32(static_cast<std::uint32_t>(cloths_.size()));

        // Blast volumes are the one structural mutation a running
        // scene performs; record them so a fresh scene build can
        // recreate them in id order before restoring per-entity
        // state.
        std::uint32_t spawns = 0;
        for (const auto &g : geoms_) {
            if (g->isBlast())
                ++spawns;
        }
        w.u32(spawns);
        for (const auto &g : geoms_) {
            if (!g->isBlast())
                continue;
            parallax_assert(g->shape().type() == ShapeType::Sphere &&
                            g->body() != nullptr);
            w.u32(g->id());
            w.u32(g->body()->id());
            w.f64(static_cast<const SphereShape &>(g->shape()).radius());
            w.vec3(g->body()->position());
        }

        for (const auto &b : bodies_) {
            w.vec3(b->position());
            w.quat(b->orientation());
            w.vec3(b->linearVelocity());
            w.vec3(b->angularVelocity());
            w.vec3(b->force());
            w.vec3(b->torque());
            w.u8(b->enabled() ? 1 : 0);
            w.u8(b->asleep() ? 1 : 0);
            w.i32(b->sleepCounter());
        }

        for (const auto &j : joints_) {
            w.u8(j->broken() ? 1 : 0);
            w.f64(j->lastAppliedForce());
            w.f64(j->accumulatedForce());
        }

        for (const auto &c : cloths_) {
            w.u32(static_cast<std::uint32_t>(c->particles().size()));
            for (const Cloth::Particle &p : c->particles()) {
                w.vec3(p.position);
                w.vec3(p.previous);
                w.f64(p.invMass);
            }
        }

        // Warm-start cache: the flat vector is key-sorted with each
        // pair's entries in insertion order, so walking it group by
        // group writes key-ascending groups.
        std::uint32_t warm_groups = 0;
        for (std::size_t i = 0; i < warmCache_.size();) {
            std::size_t j = i + 1;
            while (j < warmCache_.size() &&
                   warmCache_[j].key == warmCache_[i].key)
                ++j;
            ++warm_groups;
            i = j;
        }
        w.u32(warm_groups);
        for (std::size_t i = 0; i < warmCache_.size();) {
            std::size_t j = i + 1;
            while (j < warmCache_.size() &&
                   warmCache_[j].key == warmCache_[i].key)
                ++j;
            w.u64(warmCache_[i].key);
            w.u32(static_cast<std::uint32_t>(j - i));
            for (std::size_t k = i; k < j; ++k) {
                const CachedContact &c = warmCache_[k].c;
                w.vec3(c.position);
                w.vec3(c.normal);
                w.f64(c.lambdas[0]);
                w.f64(c.lambdas[1]);
                w.f64(c.lambdas[2]);
            }
            i = j;
        }

        w.u32(static_cast<std::uint32_t>(effects.explosives.size()));
        for (const auto &e : effects.explosives) {
            w.u32(e.geom);
            w.f64(e.config.radius);
            w.f64(e.config.duration);
            w.f64(e.config.impulse);
        }
        w.u32(static_cast<std::uint32_t>(effects.blasts.size()));
        for (const EffectsManager::Blast &b : effects.blasts) {
            w.vec3(b.center);
            w.f64(b.radius);
            w.f64(b.impulse);
            w.f64(b.duration);
            w.f64(b.remaining);
            w.u32(b.geom);
        }
        w.u32(static_cast<std::uint32_t>(effects.fractureBroken.size()));
        for (const std::uint8_t broken : effects.fractureBroken)
            w.u8(broken);
    };

    Writer<false> counter;
    payload(counter);
    const std::size_t payload_size = counter.size();
    std::vector<std::uint8_t> bytes(snapshotHeaderSize + payload_size);
    std::uint8_t *body = bytes.data() + snapshotHeaderSize;
    Writer<true> w(body);
    payload(w);
    parallax_assert(w.size() == payload_size);

    Writer<true> header(bytes.data());
    header.bytes(snapshotMagic, sizeof(snapshotMagic));
    header.u32(snapshotVersion);
    header.u64(fnv1a(body, payload_size));
    header.u64(payload_size);
    return bytes;
}

Status
World::restoreState(const std::vector<std::uint8_t> &bytes)
{
    const std::uint8_t *payload = nullptr;
    std::size_t payload_size = 0;
    const Status st = openSnapshot(bytes, &payload, &payload_size);
    if (!st.ok())
        return st;

    Reader r(payload, payload_size);
    const Preamble p = readPreamble(r);
    if (!r.ok())
        return dataLoss(r.error());

    if (const char *field =
            divergentConfigField(p.config, config_)) {
        warn("snapshot config differs from world config (%s): "
             "replay may diverge", field);
    }

    struct Spawn
    {
        GeomId geom;
        BodyId body;
        Real radius;
        Vec3 center;
    };
    // Each spawn record is 2 u32 + f64 + vec3 = 40 bytes.
    std::vector<Spawn> spawn_records(
        r.count(p.info.blastSpawns, 40, "blast spawns"));
    for (Spawn &s : spawn_records) {
        s.geom = r.u32("spawn.geom");
        s.body = r.u32("spawn.body");
        s.radius = r.f64("spawn.radius");
        s.center = r.vec3("spawn.center");
    }
    if (!r.ok())
        return dataLoss(r.error());

    // Line the structure up before touching any state: either the
    // world already contains the spawned blast volumes (restoring
    // into the same world), or it is a fresh scene build and they
    // must be recreated in id order, or it spawned more of them
    // after the capture (a rollback across a blast), which the
    // commit below removes again.
    std::size_t late_spawns = 0;
    if (geoms_.size() + spawn_records.size() == p.info.geoms) {
        for (const Spawn &s : spawn_records) {
            const SphereShape *sphere = addSphere(s.radius);
            RigidBody *anchor =
                createStaticBody(Transform(Quat(), s.center));
            Geom *blast_geom = createGeom(sphere, anchor);
            blast_geom->setBlast(true);
            if (blast_geom->id() != s.geom ||
                anchor->id() != s.body) {
                return failedPrecondition(
                    "blast spawn id mismatch: snapshot has geom " +
                    std::to_string(s.geom) + "/body " +
                    std::to_string(s.body) + ", world created " +
                    std::to_string(blast_geom->id()) + "/" +
                    std::to_string(anchor->id()));
            }
        }
    } else if (geoms_.size() >= p.info.geoms) {
        late_spawns = geoms_.size() - p.info.geoms;
        for (const Spawn &s : spawn_records) {
            if (s.geom >= p.info.geoms ||
                !geoms_[s.geom]->isBlast()) {
                return failedPrecondition(
                    "snapshot blast geom " + std::to_string(s.geom) +
                    " is not a blast volume in this world");
            }
        }
        // Each extra geom must be a blast volume spawned after the
        // capture: a sphere on its own static anchor, where anchor
        // and shape are the matching tail entries of bodies_ and
        // shapes_ (triggerExplosion creates shape, body, geom).
        const bool tails_fit = bodies_.size() >= late_spawns &&
                               shapes_.size() >= late_spawns;
        for (std::size_t i = 0; i < late_spawns; ++i) {
            const Geom &g = *geoms_[p.info.geoms + i];
            const std::size_t body = bodies_.size() - late_spawns + i;
            const std::size_t shape = shapes_.size() - late_spawns + i;
            if (!tails_fit || !g.isBlast() ||
                g.body() != bodies_[body].get() ||
                !g.body()->isStatic() ||
                &g.shape() != shapes_[shape].get()) {
                return failedPrecondition(
                    "snapshot does not match this world: snapshot has " +
                    std::to_string(p.info.geoms) + " geoms, world has " +
                    std::to_string(geoms_.size()) + " and geom " +
                    std::to_string(g.id()) +
                    " is not a blast volume spawned after the capture");
            }
        }
    } else {
        return failedPrecondition(
            "snapshot does not match this world: snapshot has " +
            std::to_string(p.info.geoms) + " geoms (" +
            std::to_string(p.info.blastSpawns) +
            " blast spawns), world has " +
            std::to_string(geoms_.size()));
    }
    if (bodies_.size() - late_spawns != p.info.bodies ||
        joints_.size() != p.info.joints ||
        cloths_.size() != p.info.cloths) {
        return failedPrecondition(
            "snapshot does not match this world: snapshot has " +
            std::to_string(p.info.bodies) + " bodies / " +
            std::to_string(p.info.joints) + " joints / " +
            std::to_string(p.info.cloths) + " cloths, world has " +
            std::to_string(bodies_.size() - late_spawns) + " / " +
            std::to_string(joints_.size()) + " / " +
            std::to_string(cloths_.size()));
    }

    // Parse everything into locals first: a truncated tail must not
    // leave the world half-restored.
    struct BodyState
    {
        Transform pose;
        Vec3 linVel, angVel, force, torque;
        bool enabled, asleep;
        int sleepCounter;
    };
    std::vector<BodyState> body_states(p.info.bodies);
    for (BodyState &b : body_states) {
        b.pose.position = r.vec3("body.position");
        b.pose.rotation = r.quat("body.orientation");
        b.linVel = r.vec3("body.linearVelocity");
        b.angVel = r.vec3("body.angularVelocity");
        b.force = r.vec3("body.force");
        b.torque = r.vec3("body.torque");
        b.enabled = r.u8("body.enabled") != 0;
        b.asleep = r.u8("body.asleep") != 0;
        b.sleepCounter = r.i32("body.sleepCounter");
    }

    struct JointState
    {
        bool broken;
        Real lastForce, accumForce;
    };
    std::vector<JointState> joint_states(p.info.joints);
    for (JointState &j : joint_states) {
        j.broken = r.u8("joint.broken") != 0;
        j.lastForce = r.f64("joint.lastForce");
        j.accumForce = r.f64("joint.accumForce");
    }

    std::vector<std::vector<Cloth::Particle>> cloth_states(
        p.info.cloths);
    for (std::vector<Cloth::Particle> &particles : cloth_states) {
        const std::uint32_t n = r.u32("cloth.particleCount");
        particles.resize(r.count(n, 56, "cloth particles"));
        for (Cloth::Particle &particle : particles) {
            particle.position = r.vec3("cloth.position");
            particle.previous = r.vec3("cloth.previous");
            particle.invMass = r.f64("cloth.invMass");
        }
    }

    // Groups must arrive in strictly ascending key order, entries in
    // insertion order: the live cache's layout, which the step's
    // forward lookup cursor relies on. Anything else is corruption.
    std::vector<WarmEntry> warm;
    std::uint64_t previous_key = 0;
    const std::uint32_t warm_entries =
        static_cast<std::uint32_t>(r.count(
            r.u32("warmCache.entries"), 12, "warm-cache entries"));
    for (std::uint32_t i = 0; r.ok() && i < warm_entries; ++i) {
        const std::uint64_t key = r.u64("warmCache.key");
        if (r.ok() && i > 0 && key <= previous_key) {
            return dataLoss("warm-cache group " + std::to_string(i) +
                            " key " + std::to_string(key) +
                            " is not greater than the key before it (" +
                            std::to_string(previous_key) + ")");
        }
        previous_key = key;
        const std::uint32_t n = static_cast<std::uint32_t>(
            r.count(r.u32("warmCache.count"), 72,
                    "warm-cache contacts"));
        for (std::uint32_t k = 0; k < n; ++k) {
            CachedContact c;
            c.position = r.vec3("warmCache.position");
            c.normal = r.vec3("warmCache.normal");
            c.lambdas[0] = r.f64("warmCache.lambda");
            c.lambdas[1] = r.f64("warmCache.lambda");
            c.lambdas[2] = r.f64("warmCache.lambda");
            warm.push_back(WarmEntry{key, c});
        }
    }

    EffectsManager::State effects;
    const std::uint32_t explosive_count = r.u32("effects.explosives");
    effects.explosives.resize(
        r.count(explosive_count, 28, "explosives"));
    for (auto &e : effects.explosives) {
        e.geom = r.u32("effects.explosive.geom");
        e.config.radius = r.f64("effects.explosive.radius");
        e.config.duration = r.f64("effects.explosive.duration");
        e.config.impulse = r.f64("effects.explosive.impulse");
    }
    const std::uint32_t blast_count = r.u32("effects.blasts");
    effects.blasts.resize(r.count(blast_count, 60, "blasts"));
    for (EffectsManager::Blast &b : effects.blasts) {
        b.center = r.vec3("effects.blast.center");
        b.radius = r.f64("effects.blast.radius");
        b.impulse = r.f64("effects.blast.impulse");
        b.duration = r.f64("effects.blast.duration");
        b.remaining = r.f64("effects.blast.remaining");
        b.geom = r.u32("effects.blast.geom");
    }
    const std::uint32_t fracture_count = r.u32("effects.fractures");
    effects.fractureBroken.resize(
        r.count(fracture_count, 1, "fracture flags"));
    for (std::uint8_t &broken : effects.fractureBroken)
        broken = r.u8("effects.fracture.broken");
    if (!r.ok())
        return dataLoss(r.error());

    // Commit.
    removeTailBlastSpawns(late_spawns);
    for (std::size_t i = 0; i < bodies_.size(); ++i) {
        RigidBody *body = bodies_[i].get();
        const BodyState &s = body_states[i];
        body->setPose(s.pose);
        body->setLinearVelocity(s.linVel);
        body->setAngularVelocity(s.angVel);
        body->clearAccumulators();
        body->applyForce(s.force);
        body->applyTorque(s.torque);
        body->setEnabled(s.enabled);
        body->setSleepState(s.asleep, s.sleepCounter);
    }
    for (std::size_t i = 0; i < joints_.size(); ++i) {
        joints_[i]->restoreBreakState(joint_states[i].broken,
                                      joint_states[i].lastForce,
                                      joint_states[i].accumForce);
    }
    for (std::size_t i = 0; i < cloths_.size(); ++i) {
        if (!cloths_[i]->restoreParticles(cloth_states[i])) {
            return failedPrecondition(
                "cloth " + std::to_string(i) + " has " +
                std::to_string(cloths_[i]->particles().size()) +
                " particles, snapshot has " +
                std::to_string(cloth_states[i].size()) +
                " (different mesh)");
        }
    }
    warmCache_ = std::move(warm);
    const std::string effects_err = effects_.restoreState(effects);
    if (!effects_err.empty())
        return failedPrecondition(effects_err);

    jointWasBroken_.assign(joints_.size(), false);
    for (std::size_t i = 0; i < joints_.size(); ++i)
        jointWasBroken_[i] = joints_[i]->broken();
    time_ = p.info.time;
    stepCount_ = p.info.stepCount;
    totalJointsBroken_ = p.totalJointsBroken;

    // Per-step scratch describes a step that never happened here.
    lastPairs_.clear();
    lastContacts_.clear();
    contactConstraints_.clear();
    lastIslandList_.clear();
    stepStats_.reset();

    // Governor ladder and quarantine bookkeeping are runtime
    // containment state, not simulation state: a restored world
    // starts at full quality with nothing frozen (body enabled flags
    // from the snapshot already reflect any freezes).
    governor_ = StepGovernor(config_.frameBudget, config_.governor,
                             config_.solverIterations,
                             config_.clothIterations);
    plan_ = governor_.planForLevel(0);
    lastStepSeconds_ = 0.0;
    quarantinedBodies_.clear();
    probationUntil_.clear();
    retryCount_.clear();
    clothQuarantined_.clear();
    // A deferred hard-fail is rehabilitated by the rollback that
    // brought us here (the external degradation floor, by contrast,
    // is the supervisor's to lift — it survives restores).
    hardFailCode_.clear();
    return okStatus();
}

void
World::removeTailBlastSpawns(std::size_t count)
{
    if (count == 0)
        return;
    // Drop every cached pointer to the spawns before they go: the
    // sweep axis persists across steps, and the broadphase pointer
    // list and cloth collider tables hold last step's geoms.
    broadphase_.forgetGeomsFrom(
        static_cast<GeomId>(geoms_.size() - count));
    geomPtrs_.clear();
    clothCandidates_.clear();
    for (std::vector<const Geom *> &colliders : clothColliders_)
        colliders.clear();
    for (std::size_t i = 0; i < count; ++i) {
        geoms_.pop_back();
        bodyPtrs_.pop_back();
        bodies_.pop_back();
        shapes_.pop_back();
    }
}

std::vector<InvariantViolation>
World::validateInvariants() const
{
    return checkWorldInvariants(*this);
}

void
World::dumpViolationSnapshot(const char *prefix)
{
    std::string name = prefix;
    for (const char c : config_.sceneTag)
        name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
    name += "_step" + std::to_string(stepCount_) + ".paxsnap";
    const std::string path = config_.snapshotDir + "/" + name;
    const Status st = writeSnapshotFile(path, preStepSnapshot_);
    if (st.ok()) {
        warn("pre-step snapshot written to %s "
             "(replay: tools/replay_snapshot %s)",
             path.c_str(), path.c_str());
    } else {
        warn("failed to write pre-step snapshot: %s",
             st.toString().c_str());
    }
}

void
World::failInvariants(const std::vector<InvariantViolation> &violations)
{
    parallax_assert(!violations.empty());
    for (const InvariantViolation &v : violations)
        warn("invariant [%s]: %s", v.code.c_str(), v.message.c_str());

    dumpViolationSnapshot("invariant");
    fatal("world invariants violated at step %llu (%zu violation(s), "
          "first: [%s] %s)",
          static_cast<unsigned long long>(stepCount_),
          violations.size(), violations[0].code.c_str(),
          violations[0].message.c_str());
}


// --- Delta-compressed snapshot streaming. ---

namespace
{

constexpr char snapshotDeltaMagic[8] = {'P', 'A', 'X', 'D',
                                        'E', 'L', 'T', '1'};

/** Fixed-size delta header: magic + version + base/target checksums
 *  + target size + range count. */
constexpr std::size_t deltaHeaderSize =
    sizeof(snapshotDeltaMagic) + 4 + 8 + 8 + 8 + 4;

/** Two differing byte runs closer than this are emitted as one
 *  range: each range costs 12 header bytes, so bridging a short
 *  matching gap is cheaper than splitting. */
constexpr std::size_t deltaCoalesceGap = 8;

std::uint64_t
readLittleU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

std::uint32_t
readLittleU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

} // namespace

bool
isSnapshotDelta(const std::vector<std::uint8_t> &bytes)
{
    return bytes.size() >= sizeof(snapshotDeltaMagic) &&
           std::memcmp(bytes.data(), snapshotDeltaMagic,
                       sizeof(snapshotDeltaMagic)) == 0;
}

std::uint64_t
snapshotDeltaChecksum(const std::vector<std::uint8_t> &bytes)
{
    return fnv1a(bytes.data(), bytes.size());
}

std::vector<std::uint8_t>
encodeSnapshotDelta(const std::vector<std::uint8_t> &base,
                    std::uint64_t baseChecksum,
                    const std::vector<std::uint8_t> &target)
{
    // Collect differing byte ranges over the shared prefix, merging
    // runs separated by short matches; bytes past the base's end are
    // one final range. The list is scratch, kept per thread so that
    // encoding in a loop (a checkpoint ring per lane) stops
    // allocating it.
    struct Range
    {
        std::size_t offset;
        std::size_t length;
    };
    thread_local std::vector<Range> ranges;
    ranges.clear();
    const std::size_t shared = std::min(base.size(), target.size());
    std::size_t i = 0;
    while (i < shared) {
        if (base[i] == target[i]) {
            ++i;
            continue;
        }
        std::size_t end = i + 1;
        std::size_t match = 0;
        while (end < shared) {
            if (base[end] != target[end]) {
                end += 1;
                match = 0;
            } else if (match + 1 <= deltaCoalesceGap) {
                end += 1;
                match += 1;
            } else {
                break;
            }
        }
        end -= match; // trailing matched bytes are not part of it
        ranges.push_back({i, end - i});
        i = end;
    }
    if (target.size() > base.size())
        ranges.push_back({base.size(), target.size() - base.size()});

    // Range lengths are stored as u32; split longer runs so diffs
    // >= 4 GiB encode losslessly instead of silently truncating.
    constexpr std::size_t maxRangeLength = UINT32_MAX;
    for (std::size_t n = 0; n < ranges.size(); ++n) {
        if (ranges[n].length > maxRangeLength) {
            const Range r = ranges[n];
            ranges[n] = {r.offset, maxRangeLength};
            // The remainder is revisited (and split again if still
            // too long) on the next iteration.
            ranges.insert(ranges.begin() + n + 1,
                          {r.offset + maxRangeLength,
                           r.length - maxRangeLength});
        }
    }

    std::size_t payload = 0;
    for (const Range &r : ranges)
        payload += 12 + r.length;
    std::vector<std::uint8_t> out(deltaHeaderSize + payload);
    Writer<true> w(out.data());
    w.bytes(snapshotDeltaMagic, sizeof(snapshotDeltaMagic));
    w.u32(snapshotDeltaVersion);
    w.u64(baseChecksum);
    w.u64(fnv1a(target.data(), target.size()));
    w.u64(target.size());
    w.u32(static_cast<std::uint32_t>(ranges.size()));
    for (const Range &r : ranges) {
        w.u64(r.offset);
        w.u32(static_cast<std::uint32_t>(r.length));
        w.bytes(target.data() + r.offset, r.length);
    }
    return out;
}

std::vector<std::uint8_t>
encodeSnapshotDelta(const std::vector<std::uint8_t> &base,
                    const std::vector<std::uint8_t> &target)
{
    return encodeSnapshotDelta(base, snapshotDeltaChecksum(base), target);
}

Status
applySnapshotDelta(const std::vector<std::uint8_t> &base,
                   const std::vector<std::uint8_t> &delta,
                   std::vector<std::uint8_t> &out)
{
    if (delta.size() < deltaHeaderSize)
        return invalidArgument(
            "snapshot delta too small to hold a header (" +
            std::to_string(delta.size()) + " bytes)");
    if (!isSnapshotDelta(delta))
        return invalidArgument(
            "not a ParallAX snapshot delta (bad magic)");
    const std::uint8_t *p = delta.data() + sizeof(snapshotDeltaMagic);
    const std::uint32_t version = readLittleU32(p);
    p += 4;
    if (version != snapshotDeltaVersion) {
        return invalidArgument(
            "unsupported snapshot delta version " +
            std::to_string(version) + " (expected " +
            std::to_string(snapshotDeltaVersion) + ")");
    }
    const std::uint64_t base_checksum = readLittleU64(p);
    p += 8;
    const std::uint64_t target_checksum = readLittleU64(p);
    p += 8;
    const std::uint64_t target_size = readLittleU64(p);
    p += 8;
    const std::uint32_t range_count = readLittleU32(p);
    p += 4;

    if (fnv1a(base.data(), base.size()) != base_checksum) {
        return dataLoss("snapshot delta does not apply to this "
                        "base: base checksum mismatch");
    }

    // A well-formed delta's target can never exceed the base plus
    // the delta's own size: every byte past the base's end must
    // arrive in a range payload. Reject oversized headers before
    // resize() so a corrupt blob yields a Status, not bad_alloc.
    if (target_size >
        static_cast<std::uint64_t>(base.size()) + delta.size()) {
        return invalidArgument(
            "snapshot delta target size " +
            std::to_string(target_size) +
            " exceeds base plus delta size (" +
            std::to_string(base.size() + delta.size()) + ")");
    }

    out.assign(base.begin(), base.end());
    out.resize(static_cast<std::size_t>(target_size));

    const std::uint8_t *delta_end = delta.data() + delta.size();
    for (std::uint32_t r = 0; r < range_count; ++r) {
        if (delta_end - p < 12) {
            return invalidArgument(
                "snapshot delta truncated in range header " +
                std::to_string(r));
        }
        const std::uint64_t offset = readLittleU64(p);
        p += 8;
        const std::uint32_t length = readLittleU32(p);
        p += 4;
        // Overflow-safe form of `offset + length > target_size`: a
        // crafted offset near UINT64_MAX must not wrap past the
        // check and reach the memcpy below.
        if (offset > target_size || length > target_size - offset) {
            return invalidArgument(
                "snapshot delta range " + std::to_string(r) +
                " writes past the target size");
        }
        if (static_cast<std::uint64_t>(delta_end - p) < length) {
            return invalidArgument(
                "snapshot delta truncated in range payload " +
                std::to_string(r));
        }
        std::memcpy(out.data() + offset, p, length);
        p += length;
    }
    if (p != delta_end)
        return invalidArgument(
            "snapshot delta has trailing bytes after the last range");

    if (fnv1a(out.data(), out.size()) != target_checksum) {
        return dataLoss("snapshot delta reconstruction failed its "
                        "target checksum");
    }
    return okStatus();
}

std::uint64_t
worldStateHash(const World &world)
{
    // Must cover exactly what tools/state_hash has always hashed so
    // recorded fingerprints stay comparable across versions.
    struct Fnv
    {
        std::uint64_t h = 0xcbf29ce484222325ull;

        void
        bytes(const void *data, std::size_t n)
        {
            const auto *p = static_cast<const std::uint8_t *>(data);
            for (std::size_t i = 0; i < n; ++i) {
                h ^= p[i];
                h *= 0x100000001b3ull;
            }
        }

        void real(Real v) { bytes(&v, sizeof(v)); }

        void
        vec3(const Vec3 &v)
        {
            real(v.x);
            real(v.y);
            real(v.z);
        }
    } f;

    for (const auto &b : world.bodies()) {
        f.vec3(b->position());
        f.bytes(&b->orientation(), sizeof(Quat));
        f.vec3(b->linearVelocity());
        f.vec3(b->angularVelocity());
        const std::uint8_t flags =
            static_cast<std::uint8_t>((b->enabled() ? 1 : 0) |
                                      (b->asleep() ? 2 : 0));
        f.bytes(&flags, 1);
        const std::int32_t sleep = b->sleepCounter();
        f.bytes(&sleep, sizeof(sleep));
    }
    for (const auto &j : world.joints()) {
        const std::uint8_t broken = j->broken() ? 1 : 0;
        f.bytes(&broken, 1);
        f.real(j->lastAppliedForce());
        f.real(j->accumulatedForce());
    }
    for (const auto &c : world.cloths()) {
        for (const Cloth::Particle &p : c->particles()) {
            f.vec3(p.position);
            f.vec3(p.previous);
        }
    }
    f.real(world.time());
    return f.h;
}

bool
worldStateFinite(const World &world)
{
    const auto finite3 = [](const Vec3 &v) {
        return std::isfinite(v.x) && std::isfinite(v.y) &&
               std::isfinite(v.z);
    };
    for (const auto &b : world.bodies()) {
        const Quat &q = b->orientation();
        if (!finite3(b->position()) || !finite3(b->linearVelocity()) ||
            !finite3(b->angularVelocity()) || !std::isfinite(q.w) ||
            !std::isfinite(q.x) || !std::isfinite(q.y) ||
            !std::isfinite(q.z)) {
            return false;
        }
    }
    for (const auto &c : world.cloths()) {
        for (const Cloth::Particle &p : c->particles()) {
            if (!finite3(p.position) || !finite3(p.previous))
                return false;
        }
    }
    return std::isfinite(world.time());
}

} // namespace parallax
