#include "iommu/page_table.hh"

#include "sim/hashing.hh"
#include "sim/logging.hh"

namespace snpu
{

namespace
{
constexpr std::uint64_t flag_valid = 1ULL << 0;
constexpr std::uint64_t flag_writable = 1ULL << 1;
constexpr std::uint64_t flag_secure = 1ULL << 2;
constexpr std::uint64_t pa_mask = ~0xfffULL;
} // namespace

std::uint64_t
Pte::encode() const
{
    std::uint64_t raw = paddr & pa_mask;
    if (valid)
        raw |= flag_valid;
    if (writable)
        raw |= flag_writable;
    if (secure)
        raw |= flag_secure;
    return raw;
}

Pte
Pte::decode(std::uint64_t raw)
{
    Pte pte;
    pte.valid = raw & flag_valid;
    pte.writable = raw & flag_writable;
    pte.secure = raw & flag_secure;
    pte.paddr = raw & pa_mask;
    return pte;
}

PageTable::PageTable(MemSystem &mem, AddrRange arena)
    : mem(mem), arena(arena)
{
    if (arena.size < page_bytes)
        fatal("page-table arena too small");
    root_node = allocNode();
}

Addr
PageTable::allocNode()
{
    const Addr addr = arena.base +
        static_cast<Addr>(nodes_used) * page_bytes;
    if (addr + page_bytes > arena.end())
        fatal("page-table arena exhausted (",
              nodes_used, " nodes allocated)");
    ++nodes_used;
    mem.data().fill(addr, page_bytes, 0);
    return addr;
}

std::uint32_t
PageTable::index(Addr vaddr, int level)
{
    // level 0 is the root; leaf entries live at level 2.
    const int shift = 12 + bits_per_level * (levels - 1 - level);
    return static_cast<std::uint32_t>(
        (vaddr >> shift) & (entries_per_node - 1));
}

Addr
PageTable::entryAddr(Addr node, std::uint32_t idx) const
{
    return node + static_cast<Addr>(idx) * 8;
}

bool
PageTable::map(Addr vaddr, Addr paddr, bool writable, bool secure)
{
    Addr node = root_node;
    for (int level = 0; level < levels - 1; ++level) {
        const Addr ea = entryAddr(node, index(vaddr, level));
        Pte pte = Pte::decode(mem.data().read64(ea));
        if (!pte.valid) {
            pte.valid = true;
            pte.paddr = allocNode();
            mem.data().write64(ea, pte.encode());
        }
        node = pte.paddr;
    }
    const Addr leaf = entryAddr(node, index(vaddr, levels - 1));
    Pte pte = Pte::decode(mem.data().read64(leaf));
    if (pte.valid)
        return false;
    pte.valid = true;
    pte.writable = writable;
    pte.secure = secure;
    pte.paddr = paddr & ~Addr(page_bytes - 1);
    mem.data().write64(leaf, pte.encode());
    return true;
}

bool
PageTable::mapRange(Addr vaddr, Addr paddr, Addr bytes, bool writable,
                    bool secure)
{
    const Addr frame = ~Addr(page_bytes - 1);
    for (Addr off = 0; off < bytes; off += page_bytes) {
        if (map(vaddr + off, paddr + off, writable, secure))
            continue;
        // Already mapped: an overlapping window onto the same frame
        // keeps its entry; a different frame is a conflict.
        if ((lookup(vaddr + off).paddr & frame) != ((paddr + off) & frame))
            return false;
    }
    return true;
}

bool
PageTable::unmap(Addr vaddr)
{
    Addr node = root_node;
    for (int level = 0; level < levels - 1; ++level) {
        const Addr ea = entryAddr(node, index(vaddr, level));
        Pte pte = Pte::decode(mem.data().read64(ea));
        if (!pte.valid)
            return false;
        node = pte.paddr;
    }
    const Addr leaf = entryAddr(node, index(vaddr, levels - 1));
    Pte pte = Pte::decode(mem.data().read64(leaf));
    if (!pte.valid)
        return false;
    mem.data().write64(leaf, 0);
    return true;
}

Pte
PageTable::lookup(Addr vaddr) const
{
    Addr node = root_node;
    for (int level = 0; level < levels - 1; ++level) {
        const Addr ea = entryAddr(node, index(vaddr, level));
        Pte pte = Pte::decode(mem.data().read64(ea));
        if (!pte.valid)
            return Pte{};
        node = pte.paddr;
    }
    const Addr leaf = entryAddr(node, index(vaddr, levels - 1));
    Pte pte = Pte::decode(mem.data().read64(leaf));
    if (pte.valid)
        pte.paddr += vaddr & (page_bytes - 1);
    return pte;
}

Tick
PageTable::walkCached(Tick when, Addr vaddr, Pte &pte)
{
    // Resolve the non-leaf levels functionally (they hit the walk
    // cache); charge a timed read for the leaf entry only.
    Addr node = root_node;
    for (int level = 0; level < levels - 1; ++level) {
        const Addr ea = entryAddr(node, index(vaddr, level));
        Pte inner = Pte::decode(mem.data().read64(ea));
        if (!inner.valid) {
            pte = Pte{};
            return when + 1;
        }
        node = inner.paddr;
    }
    const Addr leaf = entryAddr(node, index(vaddr, levels - 1));
    MemRequest req{leaf, 8, MemOp::read, World::secure};
    MemResult res = mem.access(when, req);
    pte = Pte::decode(mem.data().read64(leaf));
    if (pte.valid)
        pte.paddr &= ~Addr(page_bytes - 1);
    return res.done;
}

std::uint64_t
PageTable::layoutFingerprint(Addr va_base, Addr bytes) const
{
    std::uint64_t h = fnv_offset;
    const Addr first = va_base & ~Addr(page_bytes - 1);
    const Addr last = va_base + bytes;
    // Pages sharing a leaf node share the non-leaf chain; resolve it
    // once per leaf-node-sized VA region (2 MiB) instead of per page.
    const int leaf_shift = 12 + bits_per_level;
    Addr leaf_node = 0;
    Addr chain_va = ~Addr(0);
    for (Addr va = first; va < last; va += page_bytes) {
        if ((va >> leaf_shift) != (chain_va >> leaf_shift)) {
            chain_va = va;
            Addr node = root_node;
            bool resolved = true;
            for (int level = 0; level < levels - 1; ++level) {
                const Addr ea = entryAddr(node, index(va, level));
                h = hashMix(h, ea);
                const Pte pte = Pte::decode(mem.data().read64(ea));
                if (!pte.valid) {
                    resolved = false;
                    break;
                }
                node = pte.paddr;
            }
            leaf_node = resolved ? node : 0;
        }
        if (!leaf_node) {
            h = hashMix(h, ~std::uint64_t(0));
            continue;
        }
        const Addr leaf = entryAddr(leaf_node, index(va, levels - 1));
        h = hashMix(h, leaf);
        h = hashMix(h, mem.data().read64(leaf));
    }
    return h;
}

Tick
PageTable::walk(Tick when, Addr vaddr, Pte &pte)
{
    Addr node = root_node;
    Tick t = when;
    for (int level = 0; level < levels; ++level) {
        const Addr ea = entryAddr(node, index(vaddr, level));
        // Each level is a dependent 8-byte read through the cache
        // hierarchy — this is where IOTLB misses get their cost.
        MemRequest req{ea, 8, MemOp::read, World::secure};
        MemResult res = mem.access(t, req);
        t = res.done;
        pte = Pte::decode(mem.data().read64(ea));
        if (!pte.valid)
            return t;
        node = pte.paddr;
    }
    pte.paddr &= ~Addr(page_bytes - 1);
    return t;
}

} // namespace snpu
