#include "mem/phys_mem.hh"

#include <cstring>

namespace snpu
{

PhysMem::Page &
PhysMem::pageFor(Addr addr)
{
    const auto key = addr / page_size;
    if (key == cached_key)
        return *cached_page;
    auto it = pages.find(key);
    if (it == pages.end())
        it = pages.emplace(key, Page{}).first;
    cached_key = key;
    cached_page = &it->second;
    return it->second;
}

const PhysMem::Page *
PhysMem::pageIfPresent(Addr addr) const
{
    const auto key = addr / page_size;
    if (key == cached_key)
        return cached_page;
    auto it = pages.find(key);
    if (it == pages.end())
        return nullptr;
    cached_key = key;
    cached_page = const_cast<Page *>(&it->second);
    return cached_page;
}

void
PhysMem::write(Addr addr, const void *src, std::size_t n)
{
    const auto *p = static_cast<const std::uint8_t *>(src);
    while (n > 0) {
        auto off = addr % page_size;
        auto chunk = std::min(n, page_size - off);
        std::memcpy(pageFor(addr).data() + off, p, chunk);
        addr += chunk;
        p += chunk;
        n -= chunk;
    }
}

void
PhysMem::read(Addr addr, void *dst, std::size_t n) const
{
    auto *p = static_cast<std::uint8_t *>(dst);
    while (n > 0) {
        auto off = addr % page_size;
        auto chunk = std::min(n, page_size - off);
        if (const Page *page = pageIfPresent(addr)) {
            std::memcpy(p, page->data() + off, chunk);
        } else {
            std::memset(p, 0, chunk);
        }
        addr += chunk;
        p += chunk;
        n -= chunk;
    }
}

std::uint8_t
PhysMem::read8(Addr addr) const
{
    std::uint8_t v = 0;
    read(addr, &v, 1);
    return v;
}

std::uint32_t
PhysMem::read32(Addr addr) const
{
    std::uint32_t v = 0;
    read(addr, &v, 4);
    return v;
}

std::uint64_t
PhysMem::read64(Addr addr) const
{
    std::uint64_t v = 0;
    read(addr, &v, 8);
    return v;
}

void
PhysMem::fill(Addr addr, std::size_t n, std::uint8_t value)
{
    while (n > 0) {
        auto off = addr % page_size;
        auto chunk = std::min(n, page_size - off);
        if (value != 0) {
            std::memset(pageFor(addr).data() + off, value, chunk);
        } else if (auto it = pages.find(addr / page_size);
                   it != pages.end()) {
            // An absent page already reads as zeros: leave it absent.
            std::memset(it->second.data() + off, 0, chunk);
        }
        addr += chunk;
        n -= chunk;
    }
}

} // namespace snpu
