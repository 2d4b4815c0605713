#include "sim/logging.hh"

#include <cstdio>

#include "sim/types.hh"

namespace snpu
{

const char *
worldName(World w)
{
    return w == World::secure ? "secure" : "normal";
}

namespace logging
{

void
emit(const char *level, const std::string &msg)
{
    std::fprintf(stderr, "[%s] %s\n", level, msg.c_str());
}

} // namespace logging
} // namespace snpu
