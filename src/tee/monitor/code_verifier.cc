#include "tee/monitor/code_verifier.hh"

namespace snpu
{

CodeVerifier::CodeVerifier(AesKey sealed_key)
    : key(sealed_key)
{
    // Derive a distinct MAC key from the sealed key (simple domain
    // separation; both keys never leave the monitor).
    mac_key.assign(key.begin(), key.end());
    mac_key.push_back('m');
    mac_key.push_back('a');
    mac_key.push_back('c');
}

namespace
{

void
put32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void
put64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    put32(out, static_cast<std::uint32_t>(v));
    put32(out, static_cast<std::uint32_t>(v >> 32));
}

void
putInstr(std::vector<std::uint8_t> &out, const Instr &in)
{
    out.push_back(static_cast<std::uint8_t>(in.op));
    put64(out, in.vaddr);
    put32(out, in.spad_row);
    put32(out, in.spad_row2);
    put32(out, in.rows);
    put32(out, in.k);
    put32(out, in.peer);
    out.push_back(static_cast<std::uint8_t>(in.act));
    out.push_back(in.accumulate ? 1 : 0);
    out.push_back(static_cast<std::uint8_t>(in.world));
    // in.privileged deliberately excluded (loader-controlled).
}

} // namespace

Digest
CodeVerifier::measure(const NpuProgram &program)
{
    // Hash the serialization in 4 KiB chunks: a large model's
    // serialized stream runs to tens of MB and need never exist whole.
    constexpr std::size_t chunk_bytes = 4096;
    Sha256 h;
    std::vector<std::uint8_t> chunk;
    chunk.reserve(chunk_bytes + 64);
    put64(chunk, program.code.size());
    for (const Instr &in : program.code) {
        putInstr(chunk, in);
        if (chunk.size() >= chunk_bytes) {
            h.update(chunk.data(), chunk.size());
            chunk.clear();
        }
    }
    h.update(chunk.data(), chunk.size());
    return h.finish();
}

bool
CodeVerifier::verifyCode(const NpuProgram &program,
                         const Digest &expected) const
{
    return digestEqual(measure(program), expected);
}

bool
CodeVerifier::decryptModel(const std::vector<std::uint8_t> &ciphertext,
                           const Digest &mac, const AesBlock &iv,
                           std::vector<std::uint8_t> &plaintext) const
{
    // MAC-then-decrypt: never touch unauthenticated ciphertext.
    const Digest computed = hmacSha256(mac_key, ciphertext);
    if (!digestEqual(computed, mac))
        return false;
    Aes128 cipher(key);
    plaintext = cipher.ctr(iv, ciphertext);
    return true;
}

std::vector<std::uint8_t>
CodeVerifier::encryptModel(const std::vector<std::uint8_t> &plaintext,
                           const AesBlock &iv, Digest &mac_out) const
{
    Aes128 cipher(key);
    std::vector<std::uint8_t> ciphertext = cipher.ctr(iv, plaintext);
    mac_out = hmacSha256(mac_key, ciphertext);
    return ciphertext;
}

} // namespace snpu
