/**
 * @file
 * Interconnect latency/bandwidth models: the on-chip 2D mesh and
 * the HTX / PCIe off-chip links of section 5.1.
 *
 * Mesh: 90 nm parameters from Polaris (Soteriou et al.): 1-cycle
 * per-hop wire delay, 5-cycle router pipeline, 64-bit flits, four
 * virtual channels, at the common 2 GHz clock. Off-chip: PCI
 * Express at 4 GB/s half-duplex (used by GPUs and PhysX) and
 * HyperTransport at 20.8 GB/s (used by AMD co-processors); data
 * distribution on the far side still crosses the FG chip's mesh.
 */

#ifndef PARALLAX_NOC_INTERCONNECT_HH
#define PARALLAX_NOC_INTERCONNECT_HH

#include <cstdint>

#include "packet.hh"
#include "sim/ticks.hh"

namespace parallax
{

/** Which CG-to-FG interconnect a configuration uses. */
enum class InterconnectKind
{
    OnChipMesh,
    Htx,
    Pcie,
};

const char *interconnectName(InterconnectKind kind);

/** 2D mesh of `nodes` endpoints with XY routing. */
class MeshModel
{
  public:
    /** @param nodes Endpoints (FG cores + ports), rounded up to a
     *         square grid. */
    explicit MeshModel(int nodes);

    int width() const { return width_; }

    /** Hop count between two node indices under XY routing. */
    int hops(int src, int dst) const;

    /** Average hop count from a corner port to all nodes. */
    double averageHopsFromPort() const;

    /**
     * One-way latency in cycles for a packet of `payload_bytes`
     * crossing `hop_count` hops: per-hop wire + router pipeline for
     * the head flit, plus serialization of the remaining flits.
     */
    Tick packetLatency(int hop_count,
                       std::uint64_t payload_bytes) const;

    static constexpr Tick perHopCycles = 1;
    static constexpr Tick routerPipelineCycles = 5;
    static constexpr int virtualChannels = 4;

  private:
    int width_;
};

/** An off-chip point-to-point link. */
struct OffChipLink
{
    double latencySeconds;     // One-way base latency.
    double bandwidthBytesPerSec;

    /** One-way transfer time for a payload, in cycles at 2 GHz. */
    Tick transferCycles(std::uint64_t payload_bytes) const;

    /** PCI Express: 4 GB/s half duplex, microsecond-class latency. */
    static OffChipLink pcie();

    /** HyperTransport: 20.8 GB/s half duplex, lower latency. */
    static OffChipLink htx();
};

/**
 * End-to-end CG->FG dispatch latency for a task of `payload_bytes`
 * on the chosen interconnect, including the far-side mesh
 * distribution for off-chip configurations.
 *
 * @param mesh The FG-side mesh (data distribution network).
 * @param mean_hops Average hops to reach an FG core.
 */
Tick dispatchLatency(InterconnectKind kind, const MeshModel &mesh,
                     double mean_hops, std::uint64_t payload_bytes);

} // namespace parallax

#endif // PARALLAX_NOC_INTERCONNECT_HH
