/**
 * @file
 * FNV-1a hashing helpers shared by the layer-timing cache key
 * computation and the stat-delta path index. 64-bit FNV-1a over raw
 * bytes: deterministic across runs and processes (no pointer or
 * seed dependence), which is what lets timing-cache entries be
 * shared between independently constructed SoCs.
 */

#ifndef SNPU_SIM_HASHING_HH
#define SNPU_SIM_HASHING_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace snpu
{

constexpr std::uint64_t fnv_offset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t fnv_prime = 0x100000001b3ULL;

/** Fold @p bytes raw bytes into hash state @p h. */
inline std::uint64_t
fnv1a(const void *data, std::size_t bytes,
      std::uint64_t h = fnv_offset)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= fnv_prime;
    }
    return h;
}

/**
 * Fold a large buffer into hash state @p h, eight bytes per step.
 * Same determinism guarantees as fnv1a but ~8x faster on bulk data
 * (a wordline-ID image fingerprint hashes 17 KiB per tile; the
 * scratchpad memoizes it, so the full hash runs only after the image
 * changed on a live path, not per memoized op); the wider
 * multiply-xor mix keeps full 64-bit avalanche per word.
 */
inline std::uint64_t
hashBytesFast(const void *data, std::size_t bytes,
              std::uint64_t h = fnv_offset)
{
    const auto *p = static_cast<const unsigned char *>(data);
    while (bytes >= 8) {
        std::uint64_t w = 0;
        std::memcpy(&w, p, 8);
        h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
        h ^= h >> 29;
        p += 8;
        bytes -= 8;
    }
    return fnv1a(p, bytes, h);
}

/** Fold one integer value into hash state @p h. */
inline std::uint64_t
hashMix(std::uint64_t h, std::uint64_t v)
{
    return fnv1a(&v, sizeof(v), h);
}

/** Fold a double (by bit pattern) into hash state @p h. */
inline std::uint64_t
hashMix(std::uint64_t h, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return hashMix(h, bits);
}

/** Fold a string (length-prefixed) into hash state @p h. */
inline std::uint64_t
hashMix(std::uint64_t h, const std::string &s)
{
    h = hashMix(h, static_cast<std::uint64_t>(s.size()));
    return fnv1a(s.data(), s.size(), h);
}

} // namespace snpu

#endif // SNPU_SIM_HASHING_HH
