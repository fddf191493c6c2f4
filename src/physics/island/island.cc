#include "island.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace parallax
{

std::uint32_t
IslandBuilder::find(std::uint32_t i)
{
    ++stats_.findOps;
    while (parent_[i] != i) {
        parent_[i] = parent_[parent_[i]]; // Path halving.
        i = parent_[i];
    }
    return i;
}

void
IslandBuilder::build(const std::vector<RigidBody *> &bodies,
                     const std::vector<Joint *> &joints,
                     std::span<ContactConstraint> contacts,
                     std::vector<Island> &out)
{
    const auto n = static_cast<std::uint32_t>(bodies.size());
    parent_.resize(n);
    for (std::uint32_t i = 0; i < n; ++i)
        parent_[i] = i;
    stats_.bodiesVisited += n;

    auto dynamicIndex = [&](const RigidBody *b) -> std::int64_t {
        if (b == nullptr || b->isStatic() || !b->enabled())
            return -1;
        return b->id();
    };

    // Union pass, joints first, then contacts. Each live link also
    // records its owner: the first dynamic endpoint, whose island
    // the link joins.
    constexpr std::uint32_t none = ~std::uint32_t(0);
    auto unite = [&](const RigidBody *a,
                     const RigidBody *b) -> std::uint32_t {
        const std::int64_t ia = dynamicIndex(a);
        const std::int64_t ib = dynamicIndex(b);
        if (ia >= 0 && ib >= 0) {
            const std::uint32_t ra = find(static_cast<std::uint32_t>(ia));
            const std::uint32_t rb = find(static_cast<std::uint32_t>(ib));
            if (ra != rb) {
                parent_[rb] = ra;
                ++stats_.unionOps;
            }
        }
        if (ia < 0 && ib < 0)
            return none;
        return static_cast<std::uint32_t>(ia >= 0 ? ia : ib);
    };
    jointOwner_.resize(joints.size());
    for (std::size_t k = 0; k < joints.size(); ++k) {
        const Joint *j = joints[k];
        jointOwner_[k] =
            j->broken() ? none : unite(j->bodyA(), j->bodyB());
    }
    contactOwner_.resize(contacts.size());
    for (std::size_t k = 0; k < contacts.size(); ++k)
        contactOwner_[k] = unite(contacts[k].bodyA, contacts[k].bodyB);
    stats_.jointsVisited += joints.size() + contacts.size();

    // Number the components in body-id order and count their
    // members. The root -> island map is a dense array indexed by
    // the root body id (roots are body indices).
    rootToIsland_.assign(n, none);
    bodyCursor_.clear();
    std::size_t member_bodies = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        RigidBody *b = bodies[i];
        if (b == nullptr || b->isStatic() || !b->enabled()) {
            if (b != nullptr)
                b->setIslandId(none);
            continue;
        }
        parallax_assert(b->id() == i);
        const std::uint32_t root = find(i);
        std::uint32_t island = rootToIsland_[root];
        if (island == none) {
            island = static_cast<std::uint32_t>(bodyCursor_.size());
            rootToIsland_[root] = island;
            bodyCursor_.push_back(0);
        }
        b->setIslandId(island);
        ++bodyCursor_[island];
        ++member_bodies;
    }
    const std::size_t islands = bodyCursor_.size();
    auto countMembers = [&](const std::vector<std::uint32_t> &owners,
                            std::vector<std::uint32_t> &cursor) {
        cursor.assign(islands, 0);
        std::size_t members = 0;
        for (const std::uint32_t owner : owners) {
            if (owner == none)
                continue;
            ++cursor[bodies[owner]->islandId()];
            ++members;
        }
        return members;
    };
    const std::size_t member_joints =
        countMembers(jointOwner_, jointCursor_);
    const std::size_t member_contacts =
        countMembers(contactOwner_, contactCursor_);

    // Lay the islands out back to back, turning each count into the
    // island's fill cursor.
    bodies_.resize(member_bodies);
    joints_.resize(member_joints);
    contacts_.resize(member_contacts);
    out.resize(islands);
    std::uint32_t body_at = 0;
    std::uint32_t joint_at = 0;
    std::uint32_t contact_at = 0;
    for (std::size_t k = 0; k < islands; ++k) {
        const std::uint32_t nb = bodyCursor_[k];
        const std::uint32_t nj = jointCursor_[k];
        const std::uint32_t nc = contactCursor_[k];
        out[k] = Island{{bodies_.data() + body_at, nb},
                        {joints_.data() + joint_at, nj},
                        {contacts_.data() + contact_at, nc},
                        0};
        bodyCursor_[k] = body_at;
        jointCursor_[k] = joint_at;
        contactCursor_[k] = contact_at;
        body_at += nb;
        joint_at += nj;
        contact_at += nc;
    }

    // Fill: bodies in id order, joints and contacts in input order.
    // The position within the island's body list doubles as the
    // solver's dense body index (replacing its body->index map).
    for (std::uint32_t i = 0; i < n; ++i) {
        RigidBody *b = bodies[i];
        if (b == nullptr || b->islandId() == none)
            continue;
        const std::uint32_t island = b->islandId();
        const std::uint32_t at = bodyCursor_[island]++;
        bodies_[at] = b;
        b->setSolverIndex(
            static_cast<int>(&bodies_[at] - out[island].bodies.data()));
    }
    for (std::size_t k = 0; k < joints.size(); ++k) {
        const std::uint32_t owner = jointOwner_[k];
        if (owner == none)
            continue;
        const std::uint32_t island = bodies[owner]->islandId();
        joints_[jointCursor_[island]++] = joints[k];
        out[island].rows += joints[k]->numRows();
    }
    for (std::size_t k = 0; k < contacts.size(); ++k) {
        const std::uint32_t owner = contactOwner_[k];
        if (owner == none)
            continue;
        const std::uint32_t island = bodies[owner]->islandId();
        contacts_[contactCursor_[island]++] = &contacts[k];
        out[island].rows += 3; // buildContactRows' three rows.
    }

    stats_.islandsCreated += islands;
    for (const Island &island : out) {
        stats_.largestIslandRows = std::max<std::uint64_t>(
            stats_.largestIslandRows, island.rows);
        stats_.largestIslandBodies = std::max<std::uint64_t>(
            stats_.largestIslandBodies, island.bodies.size());
    }
}

} // namespace parallax
