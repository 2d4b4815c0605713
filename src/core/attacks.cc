#include "core/attacks.hh"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "sim/logging.hh"
#include "tee/monitor/code_verifier.hh"

namespace snpu
{

namespace
{

/** Pad a secret to whole scratchpad rows. */
std::vector<std::uint8_t>
padToRows(const std::vector<std::uint8_t> &secret,
          std::uint32_t row_bytes)
{
    std::vector<std::uint8_t> padded = secret;
    const std::size_t rows = (padded.size() + row_bytes - 1) / row_bytes;
    padded.resize(rows * row_bytes, 0);
    return padded;
}

} // namespace

AttackResult
leftoverLocalsAttack(Soc &soc, const std::vector<std::uint8_t> &secret)
{
    AttackResult result;
    result.name = "leftover-locals";

    NpuCore &core = soc.npu().core(0);
    Scratchpad &spad = core.scratchpad();
    const std::uint32_t row_bytes = spad.rowBytes();
    const auto padded = padToRows(secret, row_bytes);
    const auto rows = static_cast<std::uint32_t>(
        padded.size() / row_bytes);

    // Victim: a secure task writes its secret into scratchpad rows
    // and finishes WITHOUT scrubbing (the LeftoverLocals condition;
    // on sNPU the monitor's epilogue would scrub, but the hardware
    // rule alone must already stop the read).
    soc.driverSetCoreWorld(0, World::secure,
                           SecureContext::monitor());
    for (std::uint32_t r = 0; r < rows; ++r) {
        if (spad.write(World::secure, r,
                       padded.data() + r * row_bytes) !=
            SpadStatus::ok) {
            result.detail = "victim could not stage its own secret";
            result.blocked = true;
            return result;
        }
    }

    // Attacker: a normal-world task scheduled next reads the rows
    // without writing first.
    soc.driverSetCoreWorld(0, World::normal,
                           SecureContext::normalDriver());
    std::vector<std::uint8_t> row(row_bytes);
    for (std::uint32_t r = 0; r < rows; ++r) {
        if (spad.read(World::normal, r, row.data()) == SpadStatus::ok) {
            result.leaked.insert(result.leaked.end(), row.begin(),
                                 row.end());
        }
    }

    result.leaked.resize(std::min(result.leaked.size(), secret.size()));
    result.blocked = result.leaked != std::vector<std::uint8_t>(
                                          secret.begin(),
                                          secret.begin() +
                                              result.leaked.size()) ||
                     result.leaked.empty();
    result.detail = result.blocked
                        ? "scratchpad reads denied or returned no secret"
                        : "attacker recovered the secret from the "
                          "scratchpad";
    return result;
}

AttackResult
nocHijackAttack(Soc &soc, const std::vector<std::uint8_t> &secret)
{
    AttackResult result;
    result.name = "noc-hijack";

    if (soc.npu().tiles() < 2) {
        result.detail = "needs two cores";
        result.blocked = true;
        return result;
    }

    NpuCore &victim = soc.npu().core(0);
    NpuCore &attacker = soc.npu().core(1);
    Scratchpad &vspad = victim.scratchpad();
    Scratchpad &aspad = attacker.scratchpad();
    const std::uint32_t row_bytes = vspad.rowBytes();
    const auto padded = padToRows(secret, row_bytes);
    const auto rows = static_cast<std::uint32_t>(
        padded.size() / row_bytes);

    // Victim is secure and holds the secret; the compromised
    // scheduler placed the attacker's normal-world task on the core
    // the victim's pipeline sends its intermediate results to.
    soc.driverSetCoreWorld(0, World::secure,
                           SecureContext::monitor());
    soc.driverSetCoreWorld(1, World::normal,
                           SecureContext::normalDriver());
    for (std::uint32_t r = 0; r < rows; ++r)
        vspad.write(World::secure, r, padded.data() + r * row_bytes);

    // The victim's send fires, addressed (per the tampered schedule)
    // at the attacker's core.
    NocResult nres =
        soc.npu().fabric().transfer(0, 0, 1, 0, 0, rows);

    if (nres.ok) {
        // Attacker reads its own scratchpad for the secret.
        std::vector<std::uint8_t> row(row_bytes);
        for (std::uint32_t r = 0; r < rows; ++r) {
            if (aspad.read(World::normal, r, row.data()) ==
                SpadStatus::ok) {
                result.leaked.insert(result.leaked.end(), row.begin(),
                                     row.end());
            }
        }
        result.leaked.resize(
            std::min(result.leaked.size(), secret.size()));
    }

    const bool got_secret =
        !result.leaked.empty() &&
        std::equal(result.leaked.begin(), result.leaked.end(),
                   secret.begin());
    result.blocked = !got_secret;
    result.detail = nres.auth_failed
                        ? "peephole rejected the cross-world packet"
                        : (got_secret ? "secret delivered to the "
                                        "attacker's core"
                                      : "transfer failed");
    return result;
}

AttackResult
dmaOutOfBoundsAttack(Soc &soc, const std::vector<std::uint8_t> &secret)
{
    AttackResult result;
    result.name = "dma-out-of-bounds";

    // Plant the secret in CPU-side secure memory (e.g. facial
    // features in the TrustZone region).
    const Addr secret_pa = soc.mem().map().secureRegion().base +
                           (4u << 20);
    soc.mem().data().write(secret_pa, secret.data(), secret.size());

    // Attacker program: a single mvin from the secret's address,
    // submitted through the untrusted driver path on core 0 in the
    // normal world.
    soc.driverSetCoreWorld(0, World::normal,
                           SecureContext::normalDriver());
    NpuCore &core = soc.npu().core(0);

    DmaRequest req;
    req.vaddr = secret_pa;
    req.bytes = static_cast<std::uint32_t>(
        (secret.size() + 63) & ~std::size_t(63));
    req.op = MemOp::read;
    req.world = core.idState();

    std::vector<std::uint8_t> buffer;
    DmaResult dres = core.dma().transfer(0, req, &buffer);

    if (dres.ok) {
        buffer.resize(secret.size());
        result.leaked = buffer;
    }
    const bool got_secret =
        !result.leaked.empty() &&
        std::equal(result.leaked.begin(), result.leaked.end(),
                   secret.begin());
    result.blocked = !got_secret;
    result.detail = dres.ok
                        ? (got_secret ? "NPU read CPU secure memory"
                                      : "read returned no secret")
                        : "access control denied the DMA";
    return result;
}

AttackResult
secInstructionAttack(Soc &soc)
{
    AttackResult result;
    result.name = "sec-instruction-escalation";

    // Untrusted code embeds sec_set_id(secure) without the
    // privileged bit (the driver cannot set it: only the secure
    // loader's prologue carries privilege).
    NpuProgram evil;
    Instr instr;
    instr.op = Opcode::sec_set_id;
    instr.world = World::secure;
    instr.privileged = false;
    evil.code.push_back(instr);

    soc.driverSetCoreWorld(0, World::normal,
                           SecureContext::normalDriver());
    NpuCore &core = soc.npu().core(0);
    ExecResult exec = core.run(0, evil, ExecOptions{});

    const bool escalated =
        exec.ok() && core.idState() == World::secure;
    result.blocked = !escalated;
    result.detail = escalated
                        ? "core entered the secure world from "
                          "unprivileged code"
                        : "privileged-instruction check rejected it";
    // Restore.
    soc.driverSetCoreWorld(0, World::normal,
                           SecureContext::monitor());
    return result;
}

AttackResult
topologyAttack(Soc &soc)
{
    AttackResult result;
    result.name = "malicious-topology";

    if (!soc.hasMonitor()) {
        // Without a monitor there is no route-integrity check at
        // all: the malicious layout is accepted implicitly.
        result.blocked = false;
        result.detail = "no monitor: scheduler output is unchecked";
        return result;
    }

    NpuProgram program;
    Instr nop;
    nop.op = Opcode::fence;
    program.code.push_back(nop);
    program.spad_rows_used = 16;
    SecureTask task;
    task.expected_measurement = CodeVerifier::measure(program);
    task.program = std::make_shared<const NpuProgram>(std::move(program));
    task.topology = NocTopology{2, 2};
    // The malicious driver proposes a 1x4 strip: same core count,
    // wrong shape — intermediate results would cross foreign cores.
    task.proposed_cores = {0, 1, 2, 3};
    // (mesh is 5x2, so {0,1,2,3} is a 1x4 strip, not a 2x2 block;
    //  a correct proposal would be {0,1,5,6}.)

    soc.monitor().submit(task);
    LaunchResult launch = soc.monitor().launchNext();

    result.blocked = !launch.ok();
    result.detail = launch.ok() ? "monitor accepted a wrong topology"
                              : launch.reason();
    return result;
}

AttackResult
tamperedCodeAttack(Soc &soc)
{
    AttackResult result;
    result.name = "tampered-code";

    if (!soc.hasMonitor()) {
        result.blocked = false;
        result.detail = "no monitor: code runs unmeasured";
        return result;
    }

    // The user built and measured a benign program...
    NpuProgram benign;
    Instr instr;
    instr.op = Opcode::fence;
    benign.code.push_back(instr);
    benign.spad_rows_used = 16;
    const Digest expected = CodeVerifier::measure(benign);

    // ...but the driver swaps in a tampered copy that exfiltrates a
    // scratchpad row.
    NpuProgram tampered = benign;
    Instr evil;
    evil.op = Opcode::mvout;
    evil.vaddr = soc.mem().map().npuArena(World::normal).base;
    evil.spad_row = 0;
    evil.rows = 1;
    tampered.code.push_back(evil);

    SecureTask task;
    task.program = std::make_shared<const NpuProgram>(std::move(tampered));
    task.expected_measurement = expected;
    task.topology = NocTopology{1, 1};
    task.proposed_cores = {0};

    soc.monitor().submit(task);
    LaunchResult launch = soc.monitor().launchNext();

    result.blocked = !launch.ok();
    result.detail = launch.ok() ? "monitor accepted tampered code"
                              : launch.reason();
    return result;
}

std::vector<AttackResult>
runAllAttacks(Soc &soc)
{
    const std::vector<std::uint8_t> secret = {
        's', 'N', 'P', 'U', '-', 's', 'e', 'c', 'r', 'e', 't', '-',
        'm', 'o', 'd', 'e', 'l', '-', 'w', 'e', 'i', 'g', 'h', 't',
    };
    std::vector<AttackResult> results;
    results.push_back(leftoverLocalsAttack(soc, secret));
    results.push_back(nocHijackAttack(soc, secret));
    results.push_back(dmaOutOfBoundsAttack(soc, secret));
    results.push_back(secInstructionAttack(soc));
    results.push_back(topologyAttack(soc));
    results.push_back(tamperedCodeAttack(soc));
    return results;
}

} // namespace snpu
