/**
 * @file
 * SHA-256 (FIPS 180-4), implemented from scratch for the NPU
 * Monitor's code-measurement path. Streaming interface plus one-shot
 * helpers; verified against NIST test vectors in the test suite.
 */

#ifndef SNPU_TEE_SHA256_HH
#define SNPU_TEE_SHA256_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace snpu
{

/** A 256-bit digest. */
using Digest = std::array<std::uint8_t, 32>;

/**
 * Timing of the SoC's one SHA-256/HMAC unit: a fixed finalize
 * latency plus a streaming throughput. The crypto DMA backend's MAC
 * and the attestation handshake are both priced with it.
 */
inline constexpr Tick sha_unit_latency = 40;
inline constexpr double sha_unit_bytes_per_cycle = 32.0;

/** Incremental SHA-256 context. */
class Sha256
{
  public:
    Sha256();

    /** Absorb @p n bytes. */
    void update(const void *data, std::size_t n);

    /** Finalize and return the digest. The context becomes unusable. */
    Digest finish();

    /** One-shot digest of a buffer. */
    static Digest hash(const void *data, std::size_t n);
    static Digest hash(const std::vector<std::uint8_t> &data);

    /** Hex rendering for logs and reports. */
    static std::string toHex(const Digest &d);

  private:
    void compress(const std::uint8_t block[64]);

    std::array<std::uint32_t, 8> state;
    std::uint64_t total_bytes;
    std::array<std::uint8_t, 64> buffer;
    std::size_t buffered;
    bool finished;
};

} // namespace snpu

#endif // SNPU_TEE_SHA256_HH
