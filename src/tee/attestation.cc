#include "tee/attestation.hh"

#include <cmath>

#include "sim/hashing.hh"

namespace snpu
{

namespace
{

/** Length-framed concatenation-free HMAC input: measurement ∥ nonce
 *  (both fixed-size, so plain concatenation is unambiguous). */
std::vector<std::uint8_t>
quoteMessage(const Digest &measurement, const AttestNonce &nonce)
{
    std::vector<std::uint8_t> msg;
    msg.reserve(measurement.size() + nonce.size());
    msg.insert(msg.end(), measurement.begin(), measurement.end());
    msg.insert(msg.end(), nonce.begin(), nonce.end());
    return msg;
}

} // namespace

AttestNonce
attestNonceFromSeed(std::uint64_t seed)
{
    // SplitMix64 expansion: two independent 64-bit words per nonce,
    // deterministic for a given seed so sweep jobs derived from
    // submission indices challenge with reproducible nonces.
    AttestNonce nonce{};
    std::uint64_t state = seed;
    for (std::size_t half = 0; half < 2; ++half) {
        state += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        z ^= z >> 31;
        for (std::size_t i = 0; i < 8; ++i)
            nonce[half * 8 + i] =
                static_cast<std::uint8_t>(z >> (8 * i));
    }
    return nonce;
}

std::vector<std::uint8_t>
deriveAttestKey(const AesKey &sealed_key)
{
    static const char label[] = "snpu-attest-key";
    std::vector<std::uint8_t> sk(sealed_key.begin(),
                                 sealed_key.end());
    std::vector<std::uint8_t> msg(label, label + sizeof(label) - 1);
    const Digest d = hmacSha256(sk, msg);
    return std::vector<std::uint8_t>(d.begin(), d.end());
}

AttestQuote
makeQuote(const std::vector<std::uint8_t> &attest_key,
          const Digest &measurement, const AttestNonce &nonce)
{
    AttestQuote quote;
    quote.measurement = measurement;
    quote.nonce = nonce;
    quote.mac = hmacSha256(attest_key,
                           quoteMessage(measurement, nonce));
    return quote;
}

Digest
attestSessionKey(const std::vector<std::uint8_t> &attest_key,
                 const Digest &measurement, const AttestNonce &nonce)
{
    static const char label[] = "snpu-skey";
    std::vector<std::uint8_t> msg;
    msg.reserve(sizeof(label) - 1 + measurement.size() +
                nonce.size());
    msg.insert(msg.end(), label, label + sizeof(label) - 1);
    msg.insert(msg.end(), measurement.begin(), measurement.end());
    msg.insert(msg.end(), nonce.begin(), nonce.end());
    return hmacSha256(attest_key, msg);
}

AttestVerifier::AttestVerifier(std::vector<std::uint8_t> attest_key,
                               Digest expected_measurement)
    : key(std::move(attest_key)), expected(expected_measurement)
{}

Status
AttestVerifier::verify(const AttestQuote &quote,
                       const AttestNonce &nonce)
{
    if (quote.nonce != nonce) {
        return Status::verificationFailed(
            "attestation: quote answers a different challenge");
    }
    const std::uint64_t fresh = fnv1a(nonce.data(), nonce.size());
    if (seen.count(fresh)) {
        return Status::verificationFailed(
            "attestation: nonce replayed");
    }
    const Digest want =
        hmacSha256(key, quoteMessage(quote.measurement, quote.nonce));
    if (!digestEqual(want, quote.mac)) {
        return Status::verificationFailed(
            "attestation: quote MAC rejected");
    }
    // The MAC is genuine, so the attestor really booted to
    // quote.measurement — now ask whether that is the state we
    // trust.
    if (!digestEqual(quote.measurement, expected)) {
        return Status::verificationFailed(
            "attestation: measurement diverges from golden "
            "(tampered boot stage or model image)");
    }
    seen.insert(fresh);
    session_key = attestSessionKey(key, quote.measurement, nonce);
    return Status::ok();
}

namespace
{

/** One SHA-256 pass over @p bytes. */
Tick
shaCycles(std::uint64_t bytes)
{
    const auto stream = static_cast<Tick>(std::ceil(
        static_cast<double>(bytes) / sha_unit_bytes_per_cycle));
    return sha_unit_latency + stream;
}

/** One HMAC-SHA256 over @p bytes of message: an inner pass over
 *  (ipad block ∥ message), an outer pass over (opad block ∥ inner
 *  digest). */
Tick
hmacCycles(std::uint64_t bytes)
{
    return shaCycles(64 + bytes) + shaCycles(64 + 32);
}

/** Quote generation: one HMAC over measurement ∥ nonce. */
Tick
quoteCycles()
{
    return hmacCycles(sizeof(Digest) + sizeof(AttestNonce));
}

} // namespace

Tick
attestHandshakeCycles(std::uint64_t model_bytes)
{
    // Attestor: measure the model image, extend the MR, sign.
    const Tick measure = shaCycles(model_bytes);
    const Tick ext = shaCycles(2 * sizeof(Digest));
    const Tick sign = quoteCycles();
    // Verifier: recompute the MAC; both sides derive the session
    // key. Constant-time compares are noise next to the SHA passes.
    const Tick check = quoteCycles();
    const Tick skey = 2 * hmacCycles(9 + sizeof(Digest) +
                                     sizeof(AttestNonce));
    return measure + ext + sign + check + skey;
}

} // namespace snpu
