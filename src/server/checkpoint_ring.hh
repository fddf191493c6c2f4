/**
 * @file
 * Per-world checkpoint ring: the K last-good snapshots of one hosted
 * world, delta-encoded so memory stays proportional to one snapshot.
 *
 * Layout: one full snapshot anchor (`base`) plus up to K-1 newer
 * entries, each stored EITHER as a PAXDELT1 delta against the anchor
 * — never against each other — OR as an independent full snapshot
 * when the world has diverged so far that the delta stopped paying
 * for itself (a busy scene changes nearly every body byte between
 * checkpoints). Either way entries never depend on one another, so
 * corrupting one checkpoint (a real failure mode, and a scripted
 * ServerFaultKind::CorruptCheckpoint) leaves every other entry
 * reconstructable. Rollback walks newest to oldest until a
 * reconstruction both decodes and restores.
 *
 * Memory is bounded by K full snapshots in the worst case (every
 * entry stored full) and is typically one snapshot plus small
 * deltas for quiescent worlds — the population that dominates a
 * 10k-world server.
 *
 * The ring never touches a World: it stores and reconstructs blobs.
 * The server owns the capture/restore calls around it.
 */

#ifndef PARALLAX_SERVER_CHECKPOINT_RING_HH
#define PARALLAX_SERVER_CHECKPOINT_RING_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "parallax/status.hh"

namespace parallax
{

/** Bounded history of delta-encoded world snapshots. */
class CheckpointRing
{
  public:
    CheckpointRing() = default;
    explicit CheckpointRing(std::size_t capacity)
        : capacity_(capacity == 0 ? 1 : capacity)
    {
    }

    /** Max checkpoints retained (anchor + deltas). Shrinking drops
     *  the oldest entries immediately. */
    void setCapacity(std::size_t capacity);
    std::size_t capacity() const { return capacity_; }

    /** Restorable checkpoints currently held. */
    std::size_t size() const
    { return deltas_.size() + (base_.empty() ? 0 : 1); }

    bool empty() const { return base_.empty(); }

    /** World tick of checkpoint `i` (0 = newest). */
    std::uint64_t tickAt(std::size_t i) const;

    /** Record `full` (a full snapshot blob) as the checkpoint taken
     *  at world tick `tick`. Ticks must be pushed in increasing
     *  order. */
    void push(std::uint64_t tick, std::vector<std::uint8_t> full);

    /**
     * Reconstruct the full snapshot of checkpoint `i` (0 = newest)
     * into `out`. Fails with INVALID_ARGUMENT on a bad index and
     * with the delta codec's status (DATA_LOSS / INVALID_ARGUMENT)
     * when the stored bytes are corrupt — the caller is expected to
     * fall back to an older entry.
     */
    Status reconstruct(std::size_t i,
                       std::vector<std::uint8_t> &out) const;

    /** The bytes held for checkpoint `i` (0 = newest, i < size()):
     *  a PAXDELT1 delta against the anchor or a full snapshot; the
     *  oldest is the anchor itself. */
    const std::vector<std::uint8_t> &storedBytes(std::size_t i) const;

    /** Total bytes held (anchor + deltas): the memory-bound gauge. */
    std::size_t bytesUsed() const;

    void clear();

    /**
     * Fault-injection hook (ServerFaultKind::CorruptCheckpoint):
     * deterministically flip bytes of the newest entry's stored blob
     * so its reconstruction fails checksum validation. Older entries
     * are encoded against the anchor, not this blob, so they stay
     * reconstructable — exactly the failure the recovery ladder's
     * walk-to-older-checkpoint path exists for.
     */
    void corruptNewest();

  private:
    struct Entry
    {
        std::uint64_t tick = 0;
        /** PAXDELT1 delta against base_, or a full snapshot when
         *  the delta would not have been smaller (distinguished by
         *  isSnapshotDelta). */
        std::vector<std::uint8_t> blob;
    };

    /** Full snapshot anchor — also the oldest checkpoint. */
    std::vector<std::uint8_t> base_;
    std::uint64_t baseTick_ = 0;
    /** snapshotDeltaChecksum(base_), computed by the first push that
     *  encodes against this anchor and dropped when the anchor's
     *  bytes change: the anchor is hashed once, not once per delta. */
    std::optional<std::uint64_t> baseChecksum_;
    /** Deltas vs base_, newest first. */
    std::deque<Entry> deltas_;
    std::size_t capacity_ = 3;
};

} // namespace parallax

#endif // PARALLAX_SERVER_CHECKPOINT_RING_HH
