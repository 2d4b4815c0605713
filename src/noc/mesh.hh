/**
 * @file
 * 2-D mesh topology and wormhole timing. Dimension-ordered (XY)
 * routing; per-directional-link occupancy provides contention. A
 * packet of F flits over H hops arrives after roughly H * hop_latency
 * + F cycles (pipelined), later if links are busy.
 */

#ifndef SNPU_NOC_MESH_HH
#define SNPU_NOC_MESH_HH

#include <cstdint>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace snpu
{

/** Mesh geometry and link timing. */
struct MeshParams
{
    std::uint32_t cols = 5;
    std::uint32_t rows = 2;   // 10 accelerator tiles (Table II)
};

/**
 * The mesh interconnect. Nodes are numbered row-major; node ids are
 * NPU core ids. The mesh also tracks each node's current world (ID
 * state) so router controllers can authenticate peephole requests.
 */
class Mesh
{
  public:
    /** Router pipeline depth per hop. */
    static constexpr Tick hop_latency = 1;

    Mesh(stats::Group &stats, MeshParams params = {});

    std::uint32_t nodes() const { return params.cols * params.rows; }
    std::uint32_t cols() const { return params.cols; }
    std::uint32_t meshRows() const { return params.rows; }

    /** Hop count of the XY route from @p src to @p dst. */
    std::uint32_t hops(std::uint32_t src, std::uint32_t dst) const;

    /** Node ids visited by the XY route, inclusive of endpoints. */
    std::vector<std::uint32_t> routeNodes(std::uint32_t src,
                                          std::uint32_t dst) const;

    /**
     * Timed traversal of a packet of @p flits flits. Reserves each
     * link on the route for the packet's duration (wormhole).
     * @return tick at which the tail flit arrives at @p dst.
     */
    Tick traverse(Tick when, std::uint32_t src, std::uint32_t dst,
                  std::uint32_t flits);

    /**
     * Timed traversal of a minimal control packet (head-only), used
     * for authentication requests and acks.
     */
    Tick control(Tick when, std::uint32_t src, std::uint32_t dst);

    /** Set / get the ID state of a node (kept current by the NPU). */
    void setNodeWorld(std::uint32_t node, World w);
    World nodeWorld(std::uint32_t node) const;

    std::uint64_t flitsMoved() const
    {
        return static_cast<std::uint64_t>(flit_count.value());
    }

  private:
    struct Coord
    {
        std::uint32_t x;
        std::uint32_t y;
    };

    Coord coordOf(std::uint32_t node) const;
    std::uint32_t nodeOf(Coord c) const;
    /** Index of the directional link from @p a to adjacent @p b. */
    std::size_t linkIndex(std::uint32_t a, std::uint32_t b) const;

    MeshParams params;
    std::vector<Tick> link_free;   // per directional link
    std::vector<World> node_world;

    stats::Scalar packets;
    stats::Scalar flit_count;
    stats::Average packet_latency;
};

} // namespace snpu

#endif // SNPU_NOC_MESH_HH
