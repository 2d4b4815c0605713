/**
 * @file
 * The closed table of protection backends: the four DMA-path
 * mechanisms the paper compares, fixed at build time. The SoC builds
 * one backend per tile from the row SocParams::protection names;
 * benches and CLIs check user-supplied names against the table.
 * Adding a backend means adding a row.
 */

#ifndef SNPU_CORE_PROTECTION_TABLE_HH
#define SNPU_CORE_PROTECTION_TABLE_HH

#include <memory>
#include <string>
#include <vector>

#include "dma/protection_backend.hh"

namespace snpu
{

class PageTable;
struct SocParams;

/** One row of the backend table. */
struct ProtectionBackendRow
{
    /** The SocParams::protection value selecting this row. */
    const char *name;
    /** The SoC builds the shared PageTable before calling build. */
    bool needs_page_table;
    /**
     * Build one tile's backend, exporting its stats into @p stats.
     * @p page_table is non-null exactly when needs_page_table.
     */
    std::unique_ptr<ProtectionBackend> (*build)(stats::Group &stats,
                                                const SocParams &params,
                                                PageTable *page_table);
};

/** Backend names in row order: passthrough, iommu, guarder, crypto. */
std::vector<std::string> protectionBackendNames();

bool isProtectionBackend(const std::string &name);

/**
 * The row named @p name, whose build makes the backend. Unknown
 * names are fatal, and the error lists every name.
 */
const ProtectionBackendRow &protectionBackend(const std::string &name);

/**
 * Command-line check of a user-supplied backend name: an unknown
 * name prints "unknown protection backend '<name>' (registered:
 * <names>)" on stderr and exits 2.
 */
void requireProtectionBackend(const std::string &name);

} // namespace snpu

#endif // SNPU_CORE_PROTECTION_TABLE_HH
