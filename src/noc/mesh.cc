#include "noc/mesh.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace snpu
{

Mesh::Mesh(stats::Group &stats, MeshParams params)
    : params(params),
      packets(stats, "noc_packets", "packets traversing the mesh"),
      flit_count(stats, "noc_flits", "flits moved over mesh links"),
      packet_latency(stats, "noc_packet_latency",
                     "end-to-end packet latency (cycles)")
{
    if (params.cols == 0 || params.rows == 0)
        fatal("mesh needs nonzero geometry");
    // Two directional links per adjacent pair; index space sized
    // generously as 4 links per node (N/S/E/W outgoing).
    link_free.assign(static_cast<std::size_t>(nodes()) * 4, 0);
    node_world.assign(nodes(), World::normal);
}

Mesh::Coord
Mesh::coordOf(std::uint32_t node) const
{
    if (node >= nodes())
        panic("mesh node out of range: ", node);
    return Coord{node % params.cols, node / params.cols};
}

std::uint32_t
Mesh::nodeOf(Coord c) const
{
    return c.y * params.cols + c.x;
}

std::size_t
Mesh::linkIndex(std::uint32_t a, std::uint32_t b) const
{
    const Coord ca = coordOf(a);
    const Coord cb = coordOf(b);
    int dir;
    if (cb.x == ca.x + 1 && cb.y == ca.y)
        dir = 0; // east
    else if (ca.x == cb.x + 1 && cb.y == ca.y)
        dir = 1; // west
    else if (cb.y == ca.y + 1 && cb.x == ca.x)
        dir = 2; // south
    else if (ca.y == cb.y + 1 && cb.x == ca.x)
        dir = 3; // north
    else
        panic("linkIndex: nodes not adjacent");
    return static_cast<std::size_t>(a) * 4 + dir;
}

std::uint32_t
Mesh::hops(std::uint32_t src, std::uint32_t dst) const
{
    const Coord a = coordOf(src);
    const Coord b = coordOf(dst);
    const std::uint32_t dx = a.x > b.x ? a.x - b.x : b.x - a.x;
    const std::uint32_t dy = a.y > b.y ? a.y - b.y : b.y - a.y;
    return dx + dy;
}

std::vector<std::uint32_t>
Mesh::routeNodes(std::uint32_t src, std::uint32_t dst) const
{
    std::vector<std::uint32_t> route;
    Coord cur = coordOf(src);
    const Coord end = coordOf(dst);
    route.push_back(nodeOf(cur));
    // X first, then Y (dimension-ordered routing).
    while (cur.x != end.x) {
        cur.x += cur.x < end.x ? 1 : -1;
        route.push_back(nodeOf(cur));
    }
    while (cur.y != end.y) {
        cur.y += cur.y < end.y ? 1 : -1;
        route.push_back(nodeOf(cur));
    }
    return route;
}

Tick
Mesh::traverse(Tick when, std::uint32_t src, std::uint32_t dst,
               std::uint32_t flits)
{
    if (flits == 0)
        panic("empty packet");
    ++packets;
    flit_count += flits;

    if (src == dst) {
        packet_latency.sample(1.0);
        return when + 1;
    }

    const auto route = routeNodes(src, dst);
    // The head cannot enter a link before the link frees; with
    // wormhole switching the packet then occupies each link for
    // `flits` cycles.
    Tick head = when;
    for (std::size_t i = 0; i + 1 < route.size(); ++i) {
        const std::size_t link = linkIndex(route[i], route[i + 1]);
        head = std::max(head, link_free[link]);
        link_free[link] = head + flits;
        head += hop_latency;
    }
    const Tick tail_arrival = head + flits - 1;
    packet_latency.sample(static_cast<double>(tail_arrival - when));
    return tail_arrival;
}

Tick
Mesh::control(Tick when, std::uint32_t src, std::uint32_t dst)
{
    return traverse(when, src, dst, 1);
}

void
Mesh::setNodeWorld(std::uint32_t node, World w)
{
    if (node >= nodes())
        panic("setNodeWorld: node out of range");
    node_world[node] = w;
}

World
Mesh::nodeWorld(std::uint32_t node) const
{
    if (node >= nodes())
        panic("nodeWorld: node out of range");
    return node_world[node];
}

} // namespace snpu
