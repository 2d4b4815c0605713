/**
 * @file
 * Code verifier (§IV-C): measures a secure task's program against the
 * user's expected SHA-256 digest and authenticates + decrypts the
 * confidential model (HMAC-then-decrypt with a key sealed to the
 * monitor). Launch aborts on any mismatch — the driver and compiler
 * are untrusted, so a tampered instruction stream must never reach
 * the NPU.
 */

#ifndef SNPU_TEE_MONITOR_CODE_VERIFIER_HH
#define SNPU_TEE_MONITOR_CODE_VERIFIER_HH

#include <cstdint>
#include <vector>

#include "npu/isa.hh"
#include "tee/aes128.hh"
#include "tee/hmac.hh"
#include "tee/sha256.hh"

namespace snpu
{

/** The code verifier. Holds the monitor's sealed model key. */
class CodeVerifier
{
  public:
    explicit CodeVerifier(AesKey sealed_key);

    /**
     * Measure a program: SHA-256 of a stable serialization that holds
     * every field that affects execution. The privileged bit is
     * excluded because the loader (not the user) sets it.
     */
    static Digest measure(const NpuProgram &program);

    /** Compare a program against an expected measurement. */
    bool verifyCode(const NpuProgram &program,
                    const Digest &expected) const;

    /**
     * Authenticate and decrypt an encrypted model blob.
     * @return true and fills @p plaintext on success.
     */
    bool decryptModel(const std::vector<std::uint8_t> &ciphertext,
                      const Digest &mac, const AesBlock &iv,
                      std::vector<std::uint8_t> &plaintext) const;

    /** Encrypt helper used by provisioning (tests, examples). */
    std::vector<std::uint8_t>
    encryptModel(const std::vector<std::uint8_t> &plaintext,
                 const AesBlock &iv, Digest &mac_out) const;

  private:
    AesKey key;
    std::vector<std::uint8_t> mac_key;
};

} // namespace snpu

#endif // SNPU_TEE_MONITOR_CODE_VERIFIER_HH
