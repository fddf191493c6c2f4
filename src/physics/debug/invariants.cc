#include "invariants.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "physics/world.hh"

namespace parallax
{

namespace
{

bool
finite(const Quat &q)
{
    return std::isfinite(q.w) && std::isfinite(q.x) &&
           std::isfinite(q.y) && std::isfinite(q.z);
}

std::uint64_t
orderedPairKey(std::uint32_t a, std::uint32_t b)
{
    return (static_cast<std::uint64_t>(a) << 32) | b;
}

/** The dynamic body a contact violation should be attributed to
 *  (quarantine wants an island, and only dynamic bodies have one). */
std::int64_t
dynamicBodyOf(const World &world, GeomId a, GeomId b)
{
    for (const GeomId id : {a, b}) {
        const Geom *geom = world.geom(id);
        const RigidBody *body = geom != nullptr ? geom->body()
                                                : nullptr;
        if (body != nullptr && !body->isStatic())
            return body->id();
    }
    return -1;
}

/** Collects violations, capping the list so a systemic failure (every
 *  body NaN) reports a readable handful, not a million lines. */
class Report
{
  public:
    explicit Report(std::vector<InvariantViolation> &out) : out_(out) {}

    void
    add(const char *code, std::string message,
        std::int64_t body = -1, std::int64_t cloth = -1)
    {
        if (out_.size() < maxViolations) {
            out_.push_back(InvariantViolation{
                code, std::move(message), body, cloth});
        }
        ++total_;
    }

    std::size_t total() const { return total_; }

    static constexpr std::size_t maxViolations = 64;

  private:
    std::vector<InvariantViolation> &out_;
    std::size_t total_ = 0;
};

void
checkBodiesFinite(const World &world, Report &report)
{
    for (const auto &body : world.bodies()) {
        const BodyId id = body->id();
        if (!finite(body->position()) || !finite(body->orientation())) {
            report.add("body-finite",
                       "body " + std::to_string(id) +
                           " has a non-finite pose", id);
        }
        if (!finite(body->linearVelocity()) ||
            !finite(body->angularVelocity())) {
            report.add("body-finite",
                       "body " + std::to_string(id) +
                           " has a non-finite velocity", id);
        }
        if (!finite(body->force()) || !finite(body->torque())) {
            report.add("body-finite",
                       "body " + std::to_string(id) +
                           " has a non-finite force/torque accumulator",
                       id);
        }
    }
}

void
checkContacts(const World &world, Report &report)
{
    // Broadphase pairs are canonical (a < b); a contact for geoms
    // (x, y) must have come from pair (min, max). Also: no pair may
    // be emitted in both orientations, and a geom never contacts
    // itself.
    std::unordered_set<std::uint64_t> pair_set;
    pair_set.reserve(world.lastPairs().size());
    for (const GeomPair &pair : world.lastPairs())
        pair_set.insert(orderedPairKey(pair.a, pair.b));

    std::unordered_set<std::uint64_t> emitted;
    emitted.reserve(world.lastContacts().size());
    for (const Contact &c : world.lastContacts()) {
        if (c.geomA == c.geomB) {
            report.add("contact-distinct",
                       "contact pairs geom " +
                           std::to_string(c.geomA) + " with itself");
            continue;
        }
        if (c.geomA >= world.geomCount() ||
            c.geomB >= world.geomCount()) {
            report.add("contact-valid",
                       "contact references geom out of range (" +
                           std::to_string(c.geomA) + ", " +
                           std::to_string(c.geomB) + ")");
            continue;
        }
        if (!finite(c.position) || !finite(c.normal) ||
            !std::isfinite(c.depth)) {
            report.add("contact-finite",
                       "contact between geoms " +
                           std::to_string(c.geomA) + " and " +
                           std::to_string(c.geomB) +
                           " has non-finite data",
                       dynamicBodyOf(world, c.geomA, c.geomB));
        }
        const std::uint64_t lo_hi = orderedPairKey(
            std::min(c.geomA, c.geomB), std::max(c.geomA, c.geomB));
        if (pair_set.find(lo_hi) == pair_set.end()) {
            report.add("contact-from-pair",
                       "contact between geoms " +
                           std::to_string(c.geomA) + " and " +
                           std::to_string(c.geomB) +
                           " has no broadphase pair");
        }
        emitted.insert(orderedPairKey(c.geomA, c.geomB));
        if (emitted.count(orderedPairKey(c.geomB, c.geomA))) {
            report.add("contact-symmetric",
                       "geom pair (" + std::to_string(c.geomA) +
                           ", " + std::to_string(c.geomB) +
                           ") emitted in both orientations");
        }
    }
}

void
checkIslandPartition(const World &world, Report &report)
{
    // Every awake, enabled dynamic body belongs to exactly one
    // island; a sleeping body still belongs to exactly one (sleeping
    // islands are kept, just not solved). Static and disabled bodies
    // belong to none.
    std::unordered_map<BodyId, int> seen;
    for (const Island &island : world.lastIslandPartition()) {
        for (const RigidBody *body : island.bodies)
            ++seen[body->id()];
    }
    for (const auto &body : world.bodies()) {
        const bool expected =
            !body->isStatic() && body->enabled();
        const int count =
            seen.count(body->id()) ? seen[body->id()] : 0;
        if (expected && count != 1) {
            report.add("island-partition",
                       "dynamic body " + std::to_string(body->id()) +
                           " appears in " + std::to_string(count) +
                           " islands (expected 1)");
        } else if (!expected && count != 0) {
            report.add("island-partition",
                       (body->isStatic() ? "static" : "disabled") +
                           std::string(" body ") +
                           std::to_string(body->id()) +
                           " appears in " + std::to_string(count) +
                           " islands (expected 0)");
        }
    }
}

void
checkSleeping(const World &world, Report &report)
{
    // Sleeping bodies were zeroed by sleep() and skipped by the
    // solver and integrator: any residual velocity or contact
    // impulse means a sleeping island was touched without waking.
    for (const auto &body : world.bodies()) {
        if (!body->asleep())
            continue;
        if (body->linearVelocity().lengthSquared() != 0.0 ||
            body->angularVelocity().lengthSquared() != 0.0) {
            report.add("sleep-motion",
                       "sleeping body " + std::to_string(body->id()) +
                           " has non-zero velocity",
                       body->id());
        }
    }
    for (const ContactJoint &joint : world.lastContactJoints()) {
        const RigidBody *a = joint.bodyA();
        const RigidBody *b = joint.bodyB();
        const bool touches_sleeper =
            (a != nullptr && a->asleep()) ||
            (b != nullptr && b->asleep());
        if (!touches_sleeper)
            continue;
        const Real *l = joint.solvedLambdas();
        if (l[0] != 0.0 || l[1] != 0.0 || l[2] != 0.0) {
            report.add("sleep-impulse",
                       "contact joint " + std::to_string(joint.id()) +
                           " applied an impulse to a sleeping body",
                       joint.bodyA() != nullptr
                           ? static_cast<std::int64_t>(
                                 joint.bodyA()->id())
                           : -1);
        }
    }
}

void
checkFrictionCone(const World &world, Report &report,
                  const InvariantOptions &options)
{
    // Contact joints are built with the world's default material, so
    // its friction coefficient bounds every solved friction impulse.
    const Real mu = world.config().defaultMaterial.friction;
    for (const ContactJoint &joint : world.lastContactJoints()) {
        // ContactJoint guarantees a dynamic bodyA; quarantine will
        // freeze its island.
        const std::int64_t owner =
            joint.bodyA() != nullptr
                ? static_cast<std::int64_t>(joint.bodyA()->id())
                : -1;
        const Real *l = joint.solvedLambdas();
        if (!std::isfinite(l[0]) || !std::isfinite(l[1]) ||
            !std::isfinite(l[2])) {
            report.add("impulse-finite",
                       "contact joint " + std::to_string(joint.id()) +
                           " solved a non-finite impulse",
                       owner);
            continue;
        }
        const Real slack =
            options.frictionSlack * (1.0 + std::fabs(mu * l[0]));
        if (l[0] < -slack) {
            report.add("friction-cone",
                       "contact joint " + std::to_string(joint.id()) +
                           " has negative normal impulse " +
                           std::to_string(l[0]),
                       owner);
        }
        const Real limit = mu * std::max<Real>(l[0], 0.0) + slack;
        if (std::fabs(l[1]) > limit || std::fabs(l[2]) > limit) {
            report.add("friction-cone",
                       "contact joint " + std::to_string(joint.id()) +
                           " friction impulse exceeds mu * normal (" +
                           std::to_string(l[1]) + ", " +
                           std::to_string(l[2]) + " vs limit " +
                           std::to_string(limit) + ")",
                       owner);
        }
    }
}

void
checkCloth(const World &world, Report &report,
           const InvariantOptions &options)
{
    for (const auto &cloth : world.cloths()) {
        for (std::size_t i = 0; i < cloth->particles().size(); ++i) {
            const Cloth::Particle &p = cloth->particles()[i];
            if (!finite(p.position) || !finite(p.previous)) {
                report.add("cloth-finite",
                           "cloth " + std::to_string(cloth->id()) +
                               " particle " + std::to_string(i) +
                               " is non-finite",
                           -1, cloth->id());
            }
        }
        for (const Cloth::DistanceConstraint &c :
             cloth->constraints()) {
            const Vec3 d = cloth->particles()[c.a].position -
                           cloth->particles()[c.b].position;
            const Real len = d.length();
            if (!std::isfinite(len) ||
                std::fabs(len - c.restLength) >
                    options.clothStretchFactor * c.restLength) {
                report.add("cloth-stretch",
                           "cloth " + std::to_string(cloth->id()) +
                               " edge (" + std::to_string(c.a) + ", " +
                               std::to_string(c.b) + ") length " +
                               std::to_string(len) +
                               " vs rest " +
                               std::to_string(c.restLength),
                           -1, cloth->id());
            }
        }
    }
}

} // namespace

std::vector<InvariantViolation>
checkWorldInvariants(const World &world, const InvariantOptions &options)
{
    std::vector<InvariantViolation> violations;
    Report report(violations);
    checkBodiesFinite(world, report);
    checkContacts(world, report);
    checkIslandPartition(world, report);
    checkSleeping(world, report);
    checkFrictionCone(world, report, options);
    checkCloth(world, report, options);
    if (report.total() > Report::maxViolations) {
        violations.push_back(InvariantViolation{
            "truncated",
            std::to_string(report.total() - Report::maxViolations) +
                " further violations omitted"});
    }
    return violations;
}

} // namespace parallax
