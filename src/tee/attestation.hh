/**
 * @file
 * Remote attestation over the measured boot chain (ROADMAP: the
 * TXT-style hash-extend chain + admission handshake). Symmetric-key
 * attestation: the NPU Monitor holds an attest key derived from its
 * sealed key; a tenant that provisioned the same key out of band
 * (the usual model for on-SoC enclaves — there is one silicon
 * vendor) challenges the monitor with a fresh nonce and receives a
 * quote:
 *
 *     quote.mac = HMAC-SHA256(attest_key, measurement ∥ nonce)
 *
 * where `measurement` is the boot-chain MR extended with the loaded
 * model image's digest. The verifier recomputes the MAC, checks the
 * nonce (freshness — a replayed quote is rejected), and compares
 * the measurement against the golden value it computed from the
 * expected stage digests. On success both sides derive the same
 * session key:
 *
 *     skey = HMAC-SHA256(attest_key, "snpu-skey" ∥ measurement ∥ nonce)
 *
 * attestHandshakeCycles() prices the handshake in simulated cycles
 * on the same SHA unit the DMA crypto backend uses, so serving
 * experiments can show attestation cost amortizing with request
 * rate.
 */

#ifndef SNPU_TEE_ATTESTATION_HH
#define SNPU_TEE_ATTESTATION_HH

#include <array>
#include <cstdint>
#include <unordered_set>

#include "sim/status.hh"
#include "sim/types.hh"
#include "tee/aes128.hh"
#include "tee/hmac.hh"
#include "tee/sha256.hh"

namespace snpu
{

/** Verifier-chosen freshness challenge. */
using AttestNonce = std::array<std::uint8_t, 16>;

/** Deterministic nonce derivation (sweeps stay byte-identical). */
AttestNonce attestNonceFromSeed(std::uint64_t seed);

/** The monitor's attest key, derived from its sealed key. */
std::vector<std::uint8_t> deriveAttestKey(const AesKey &sealed_key);

/** What the monitor signs in response to a challenge. */
struct AttestQuote
{
    /** Boot-chain MR extended with the loaded model's digest. */
    Digest measurement{};
    /** Echo of the verifier's challenge. */
    AttestNonce nonce{};
    /** HMAC-SHA256(attest_key, measurement ∥ nonce). */
    Digest mac{};
};

/** Build a quote (the monitor / attestor side). */
AttestQuote makeQuote(const std::vector<std::uint8_t> &attest_key,
                      const Digest &measurement,
                      const AttestNonce &nonce);

/** Session key both sides derive from a verified quote. */
Digest attestSessionKey(const std::vector<std::uint8_t> &attest_key,
                        const Digest &measurement,
                        const AttestNonce &nonce);

/**
 * The tenant side: holds the golden measurement and the shared
 * attest key, rejects replayed nonces. One verifier per tenant —
 * the replay cache is per-challenger state.
 */
class AttestVerifier
{
  public:
    AttestVerifier(std::vector<std::uint8_t> attest_key,
                   Digest expected_measurement);

    /**
     * Verify @p quote against the challenge @p nonce this verifier
     * issued. Precise failure codes: a replayed nonce, a wrong
     * nonce echo, a bad MAC, and a diverged measurement all return
     * StatusCode::verification_failed with distinct messages. A
     * verified nonce enters the replay cache — presenting the same
     * quote twice fails the second time.
     */
    Status verify(const AttestQuote &quote, const AttestNonce &nonce);

    /** Session key of the last successful verify(). */
    const Digest &sessionKey() const { return session_key; }

  private:
    std::vector<std::uint8_t> key;
    Digest expected;
    Digest session_key{};
    /** FNV-folded nonces already accepted (freshness). */
    std::unordered_set<std::uint64_t> seen;
};

/**
 * Cycles of the full admission handshake on the SoC's SHA unit
 * (sha_unit_latency plus streaming at sha_unit_bytes_per_cycle, the
 * unit the DMA crypto backend's MAC uses): measure the loaded model
 * image (@p model_bytes of ciphertext), extend the MR, generate the
 * quote, verify it (MAC recompute + constant-time compares) and
 * derive the session key on both sides. The model measurement
 * dominates — which is what makes amortization vs. request rate
 * worth plotting.
 */
Tick attestHandshakeCycles(std::uint64_t model_bytes);

} // namespace snpu

#endif // SNPU_TEE_ATTESTATION_HH
