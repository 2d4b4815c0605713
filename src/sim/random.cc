#include "sim/random.hh"

#include "sim/logging.hh"

namespace snpu
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &word : s)
        word = splitmix64(x);
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    if (bound == 0)
        panic("Rng::below(0)");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Rng::range(std::int64_t lo, std::int64_t hi)
{
    if (lo > hi)
        panic("Rng::range: lo > hi");
    auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    // span == 0 means the full 64-bit range.
    if (span == 0)
        return static_cast<std::int64_t>(next());
    return lo + static_cast<std::int64_t>(below(span));
}

} // namespace snpu
