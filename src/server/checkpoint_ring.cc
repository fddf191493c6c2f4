/**
 * @file
 * Checkpoint ring implementation. See checkpoint_ring.hh for the
 * anchor + independent-delta layout and the rebase policy.
 */

#include "server/checkpoint_ring.hh"

#include "physics/debug/capture.hh"
#include "physics/world.hh"
#include "sim/logging.hh"

namespace parallax
{

namespace
{

/** Magic/version/checksum validation of a stored full snapshot, so
 *  a corrupted full entry fails inside reconstruct() just like a
 *  corrupted delta — the caller's fallback walk stays uniform. */
Status
validateFull(const std::vector<std::uint8_t> &bytes)
{
    SnapshotInfo info;
    WorldConfig config;
    return describeSnapshot(bytes, info, config);
}

} // namespace

void
CheckpointRing::setCapacity(std::size_t capacity)
{
    capacity_ = capacity == 0 ? 1 : capacity;
    while (deltas_.size() + 1 > capacity_)
        deltas_.pop_back();
}

std::uint64_t
CheckpointRing::tickAt(std::size_t i) const
{
    if (i < deltas_.size())
        return deltas_[i].tick;
    return baseTick_;
}

void
CheckpointRing::push(std::uint64_t tick, std::vector<std::uint8_t> full)
{
    if (base_.empty() || capacity_ == 1) {
        base_ = std::move(full);
        baseTick_ = tick;
        baseChecksum_.reset();
        deltas_.clear();
        return;
    }
    if (!baseChecksum_)
        baseChecksum_ = snapshotDeltaChecksum(base_);
    std::vector<std::uint8_t> delta =
        encodeSnapshotDelta(base_, *baseChecksum_, full);
    // Store whichever representation is smaller. A busy scene moves
    // nearly every body byte between checkpoints, making the delta
    // as large as the snapshot — storing it full keeps the entry
    // independent of the anchor at no extra cost.
    if (delta.size() < full.size())
        deltas_.push_front(Entry{tick, std::move(delta)});
    else
        deltas_.push_front(Entry{tick, std::move(full)});
    while (deltas_.size() + 1 > capacity_)
        deltas_.pop_back();
}

Status
CheckpointRing::reconstruct(std::size_t i,
                            std::vector<std::uint8_t> &out) const
{
    if (i >= size()) {
        return invalidArgument(
            "checkpoint index " + std::to_string(i) +
            " out of range (ring holds " + std::to_string(size()) +
            ")");
    }
    if (i == deltas_.size()) {
        const Status st = validateFull(base_);
        if (!st.ok())
            return st;
        out = base_;
        return okStatus();
    }
    const std::vector<std::uint8_t> &blob = deltas_[i].blob;
    if (isSnapshotDelta(blob))
        return applySnapshotDelta(base_, blob, out);
    const Status st = validateFull(blob);
    if (!st.ok())
        return st;
    out = blob;
    return okStatus();
}

const std::vector<std::uint8_t> &
CheckpointRing::storedBytes(std::size_t i) const
{
    parallax_assert(i < size());
    return i < deltas_.size() ? deltas_[i].blob : base_;
}

std::size_t
CheckpointRing::bytesUsed() const
{
    std::size_t bytes = base_.size();
    for (const Entry &e : deltas_)
        bytes += e.blob.size();
    return bytes;
}

void
CheckpointRing::clear()
{
    base_.clear();
    base_.shrink_to_fit();
    baseTick_ = 0;
    baseChecksum_.reset();
    deltas_.clear();
}

void
CheckpointRing::corruptNewest()
{
    std::vector<std::uint8_t> &blob =
        deltas_.empty() ? base_ : deltas_.front().blob;
    // Flip a spread of bytes (not just one, so both checksum fields
    // and payload are hit regardless of blob layout).
    for (std::size_t i = 0; i < blob.size(); i += 97)
        blob[i] ^= 0xa5;
    // Later deltas encode against the corrupted anchor's bytes.
    if (deltas_.empty())
        baseChecksum_.reset();
}

} // namespace parallax
