#include "core/protection_table.hh"

#include <cstdio>
#include <cstdlib>

#include "core/soc_config.hh"
#include "dma/crypto_backend.hh"
#include "guarder/guarder.hh"
#include "iommu/iommu.hh"
#include "sim/logging.hh"

namespace snpu
{

namespace
{

std::unique_ptr<ProtectionBackend>
buildPassThrough(stats::Group &stats, const SocParams &, PageTable *)
{
    return std::make_unique<PassThroughControl>(&stats);
}

std::unique_ptr<ProtectionBackend>
buildIommu(stats::Group &stats, const SocParams &params,
           PageTable *page_table)
{
    if (!page_table)
        fatal("iommu backend built without a page table");
    IommuParams ip;
    ip.iotlb_entries = params.iotlb_entries;
    ip.walk_cache = params.iommu_walk_cache;
    return std::make_unique<Iommu>(stats, *page_table, ip);
}

std::unique_ptr<ProtectionBackend>
buildGuarder(stats::Group &stats, const SocParams &, PageTable *)
{
    return std::make_unique<NpuGuarder>(stats);
}

std::unique_ptr<ProtectionBackend>
buildCrypto(stats::Group &stats, const SocParams &, PageTable *)
{
    return std::make_unique<CryptoBackend>(&stats);
}

/** Row order is the order error messages and CI loops list. */
const ProtectionBackendRow rows[] = {
    {"passthrough", false, buildPassThrough},
    {"iommu", true, buildIommu},
    {"guarder", false, buildGuarder},
    {"crypto", false, buildCrypto},
};

const ProtectionBackendRow *
findRow(const std::string &name)
{
    for (const ProtectionBackendRow &row : rows) {
        if (name == row.name)
            return &row;
    }
    return nullptr;
}

std::string
joinedNames()
{
    std::string joined;
    for (const ProtectionBackendRow &row : rows) {
        if (!joined.empty())
            joined += ", ";
        joined += row.name;
    }
    return joined;
}

} // namespace

std::vector<std::string>
protectionBackendNames()
{
    std::vector<std::string> names;
    for (const ProtectionBackendRow &row : rows)
        names.emplace_back(row.name);
    return names;
}

bool
isProtectionBackend(const std::string &name)
{
    return findRow(name) != nullptr;
}

const ProtectionBackendRow &
protectionBackend(const std::string &name)
{
    const ProtectionBackendRow *row = findRow(name);
    if (!row) {
        fatal("unknown protection backend '", name,
              "' (registered: ", joinedNames(), ")");
    }
    return *row;
}

void
requireProtectionBackend(const std::string &name)
{
    if (isProtectionBackend(name))
        return;
    std::fprintf(stderr,
                 "unknown protection backend '%s' (registered: %s)\n",
                 name.c_str(), joinedNames().c_str());
    std::exit(2);
}

} // namespace snpu
