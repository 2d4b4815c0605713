#include "workload/layer.hh"

#include <algorithm>

namespace snpu
{

std::uint64_t
ModelSpec::macs() const
{
    std::uint64_t total = 0;
    for (const auto &layer : layers)
        total += layer.macs();
    return total;
}

std::uint64_t
ModelSpec::weightBytes() const
{
    std::uint64_t total = 0;
    for (const auto &layer : layers)
        total += layer.wBytes();
    return total;
}

ModelSpec
ModelSpec::scaled(std::uint32_t divisor) const
{
    if (divisor <= 1)
        return *this;
    ModelSpec out;
    out.name = name;
    out.layers = layers;
    for (auto &layer : out.layers)
        layer.m = std::max<std::uint32_t>(16, layer.m / divisor);
    return out;
}

} // namespace snpu
