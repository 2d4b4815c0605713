#include "npu/npu_core.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#include "sim/logging.hh"

namespace snpu
{

NpuCore::NpuCore(stats::Group &stats, MemSystem &mem,
                 ProtectionBackend &ctrl, NpuCoreParams p)
    : params(p), mem(mem),
      core_group(stats, "core" + std::to_string(p.core_id)),
      spad_group(core_group, "spad"),
      acc_group(core_group, "acc"),
      systolic(p.systolic),
      instructions(core_group, "npu_instructions",
                   "instructions executed"),
      sec_violations(core_group, "npu_violations",
                     "security violations observed by this core"),
      programs_run(core_group, "npu_programs", "programs executed")
{
    if (params.spad_row_bytes < params.systolic.dim)
        fatal("scratchpad row narrower than one activation row");
    if (params.acc_row_bytes < params.systolic.dim * 4)
        fatal("accumulator row narrower than one int32 output row");

    SpadParams sp;
    sp.rows = params.spad_rows;
    sp.row_bytes = params.spad_row_bytes;
    sp.scope = SpadScope::local;
    sp.mode = params.isolation;
    spad = std::make_unique<Scratchpad>(spad_group, sp);

    SpadParams ap;
    ap.rows = params.acc_rows;
    ap.row_bytes = params.acc_row_bytes;
    ap.scope = SpadScope::local;
    ap.mode = params.isolation;
    acc = std::make_unique<Scratchpad>(acc_group, ap);

    dma_engine =
        std::make_unique<DmaEngine>(core_group, mem, ctrl, params.dma);
    flush_engine = std::make_unique<FlushEngine>(core_group, mem, *spad);
}

bool
NpuCore::setIdState(World w, bool from_secure)
{
    if (!from_secure) {
        ++sec_violations;
        return false;
    }
    world = w;
    return true;
}

void
NpuCore::attachTrace(TraceSink *sink)
{
    if (sink) {
        trace_name = "core" + std::to_string(params.core_id);
        tracer.attach(sink);
    } else {
        tracer.detach();
    }
    spad->attachTrace(sink, trace_name + ".spad");
    acc->attachTrace(sink, trace_name + ".acc");
    dma_engine->attachTrace(sink, trace_name + ".dma");
}

void
NpuCore::attachNoc(NocFabric *fabric, SoftwareNoc *swnoc)
{
    noc_fabric = fabric;
    software_noc = swnoc;
    if (noc_fabric)
        noc_fabric->attachScratchpad(params.core_id, spad.get());
}

void
NpuCore::armFaults(FaultInjector *inj)
{
    faults = inj;
    spad->armFaults(inj);
    acc->armFaults(inj);
    dma_engine->armFaults(inj);
}

void
NpuCore::fail(ExecResult &res, const std::string &why, StatusCode code)
{
    res.status = Status::error(code, why);
    ++res.violations;
    ++sec_violations;
    tracer.emit(0, TraceCategory::security, trace_name, why);
}

bool
NpuCore::commitRanges(std::span<const RowRange> ranges)
{
    for (const RowRange &r : ranges) {
        if (!r.pad.rangeAllowed(world, r.first, r.count, r.is_write))
            return false;
    }
    for (const RowRange &r : ranges)
        r.pad.commitRange(world, r.first, r.count, r.is_write);
    return true;
}

std::size_t
NpuCore::execLoadBatch(const NpuProgram &program, std::size_t pc,
                       std::size_t batch_stop, Tick &dma_t,
                       ExecResult &res)
{
    // Gather up to `channels` consecutive loads, never extending
    // past a tile/layer boundary index (flush points must fire in
    // order, so a boundary instruction ends its batch).
    const std::uint32_t limit = params.dma.channels;
    std::vector<const Instr *> group;
    std::size_t end = pc;
    while (end < program.code.size() && group.size() < limit) {
        const Opcode op = program.code[end].op;
        if (op != Opcode::mvin && op != Opcode::mvin_weight)
            break;
        group.push_back(&program.code[end]);
        if (end == batch_stop) {
            ++end;
            break;
        }
        ++end;
    }
    if (group.empty())
        return 0;

    std::vector<DmaRequest> reqs;
    std::vector<std::vector<std::uint8_t>> storage(
        params.timing_only ? 0 : group.size());
    std::vector<std::vector<std::uint8_t> *> buffers;
    reqs.reserve(group.size());
    for (std::size_t i = 0; i < group.size(); ++i) {
        const Instr &in = *group[i];
        DmaRequest req{in.vaddr, in.rows * params.spad_row_bytes,
                       MemOp::read, world};
        reqs.push_back(req);
        buffers.push_back(params.timing_only ? nullptr : &storage[i]);
        instructions += i > 0 ? 1 : 0; // first counted by caller
    }

    DmaResult dres = dma_engine->transferBatch(dma_t, reqs, buffers);
    if (!dres.ok) {
        if (dres.fault) {
            fail(res, "mvin DMA transfer faulted (injected)",
                 StatusCode::fault_injected);
        } else {
            fail(res, "mvin denied by access control (batched load)",
                 StatusCode::privilege_denied);
        }
        return 0;
    }

    bool ranged = false;
    if (params.timing_only) {
        std::vector<RowRange> ranges;
        ranges.reserve(group.size());
        for (const Instr *in : group)
            ranges.push_back({*spad, in->spad_row, in->rows, true});
        ranged = commitRanges(ranges);
    }
    for (std::size_t i = 0; !ranged && i < group.size(); ++i) {
        const Instr &in = *group[i];
        for (std::uint32_t r = 0; r < in.rows; ++r) {
            const std::uint8_t *src =
                params.timing_only
                    ? nullptr
                    : storage[i].data() +
                          static_cast<std::size_t>(r) *
                              params.spad_row_bytes;
            if (spad->write(world, in.spad_row + r, src) !=
                SpadStatus::ok) {
                fail(res, "mvin scratchpad write denied",
                     StatusCode::privilege_denied);
                return 0;
            }
        }
    }
    dma_t = dres.done;
    return group.size();
}

bool
NpuCore::execMvout(const Instr &in, Tick &dma_t, Tick mac_t,
                   ExecResult &res)
{
    // Results come from the accumulator; the store cannot start
    // before outstanding computes finish.
    Tick t = std::max(dma_t, mac_t);

    const std::uint32_t dim = systolic.dim();
    std::vector<std::uint8_t> out;
    std::vector<std::uint8_t> *buf_ptr = nullptr;
    std::vector<std::uint8_t> acc_row;

    if (!params.timing_only) {
        out.resize(static_cast<std::size_t>(in.rows) *
                   params.spad_row_bytes);
        buf_ptr = &out;
        acc_row.resize(params.acc_row_bytes);
    }

    const RowRange ranges[] = {{*acc, in.spad_row, in.rows, false}};
    const bool ranged = params.timing_only && commitRanges(ranges);
    for (std::uint32_t r = 0; !ranged && r < in.rows; ++r) {
        SpadStatus st = acc->read(
            world, in.spad_row + r,
            params.timing_only ? nullptr : acc_row.data());
        if (st != SpadStatus::ok) {
            fail(res, "mvout accumulator read denied",
                 StatusCode::privilege_denied);
            return false;
        }
        if (params.timing_only)
            continue;
        // Activation + requantization: int32 -> int8 with an 8-bit
        // right shift and saturation (Gemmini-style output scaling).
        const auto *acc32 =
            reinterpret_cast<const std::int32_t *>(acc_row.data());
        auto *row_out =
            reinterpret_cast<std::int8_t *>(
                out.data() +
                static_cast<std::size_t>(r) * params.spad_row_bytes);
        for (std::uint32_t c = 0; c < dim; ++c) {
            std::int32_t v = acc32[c];
            if (activation == Activation::relu && v < 0)
                v = 0;
            v >>= 8;
            v = std::clamp(v, -128, 127);
            row_out[c] = static_cast<std::int8_t>(v);
        }
    }

    const std::uint32_t bytes = in.rows * params.spad_row_bytes;
    DmaRequest req{in.vaddr, bytes, MemOp::write, world};
    DmaResult dres = dma_engine->transfer(t, req, buf_ptr);
    if (!dres.ok) {
        if (dres.fault) {
            fail(res, "mvout DMA transfer faulted (injected)",
                 StatusCode::fault_injected);
        } else {
            fail(res, "mvout denied by access control at va 0x" +
                          std::to_string(in.vaddr),
                 StatusCode::privilege_denied);
        }
        return false;
    }
    dma_t = dres.done;
    return true;
}

bool
NpuCore::execPreload(const Instr &in, ExecResult &res)
{
    const std::uint32_t dim = systolic.dim();
    std::vector<std::int8_t> tile;
    std::vector<std::uint8_t> row;
    if (!params.timing_only) {
        tile.resize(static_cast<std::size_t>(dim) * dim);
        row.resize(params.spad_row_bytes);
    }

    const RowRange ranges[] = {{*spad, in.spad_row, dim, false}};
    const bool ranged = params.timing_only && commitRanges(ranges);
    for (std::uint32_t r = 0; !ranged && r < dim; ++r) {
        SpadStatus st = spad->read(
            world, in.spad_row + r,
            params.timing_only ? nullptr : row.data());
        if (st != SpadStatus::ok) {
            fail(res, "preload scratchpad read denied",
                 StatusCode::privilege_denied);
            return false;
        }
        if (!params.timing_only) {
            std::memcpy(tile.data() + static_cast<std::size_t>(r) * dim,
                        row.data(), dim);
        }
    }
    systolic.preload(params.timing_only ? nullptr : tile.data());
    return true;
}

bool
NpuCore::execCompute(const Instr &in, Tick &mac_t, Tick dma_ready,
                     ExecResult &res)
{
    const std::uint32_t dim = systolic.dim();
    const std::uint32_t k = in.k ? in.k : dim;

    std::vector<std::uint8_t> a_row;
    std::vector<std::uint8_t> acc_row;
    if (!params.timing_only) {
        a_row.resize(params.spad_row_bytes);
        acc_row.resize(params.acc_row_bytes);
    }

    const RowRange ranges[] = {
        {*spad, in.spad_row, in.rows, false},
        {*acc, in.spad_row2, in.accumulate ? in.rows : 0, false},
        {*acc, in.spad_row2, in.rows, true},
    };
    const bool ranged = params.timing_only && commitRanges(ranges);
    for (std::uint32_t r = 0; !ranged && r < in.rows; ++r) {
        SpadStatus st = spad->read(
            world, in.spad_row + r,
            params.timing_only ? nullptr : a_row.data());
        if (st != SpadStatus::ok) {
            fail(res, "compute activation read denied",
                 StatusCode::privilege_denied);
            return false;
        }
        const std::uint32_t acc_idx = in.spad_row2 + r;
        if (in.accumulate) {
            st = acc->read(world, acc_idx,
                           params.timing_only ? nullptr : acc_row.data());
            if (st != SpadStatus::ok) {
                fail(res, "compute accumulator read denied",
                     StatusCode::privilege_denied);
                return false;
            }
        }
        if (!params.timing_only) {
            systolic.computeRow(
                reinterpret_cast<const std::int8_t *>(a_row.data()), k,
                reinterpret_cast<std::int32_t *>(acc_row.data()),
                in.accumulate);
        }
        st = acc->write(world, acc_idx,
                        params.timing_only ? nullptr : acc_row.data());
        if (st != SpadStatus::ok) {
            fail(res, "compute accumulator write denied",
                 StatusCode::privilege_denied);
            return false;
        }
    }

    const Tick start = std::max(mac_t, dma_ready);
    const Tick busy = systolic.computeCycles(in.rows);
    mac_t = start + busy;
    res.mac_busy += busy;
    res.macs += static_cast<std::uint64_t>(in.rows) * k * dim;
    return true;
}

bool
NpuCore::execNocSend(const Instr &in, Tick &t, const ExecOptions &opts,
                     ExecResult &res)
{
    NocResult nres;
    if (opts.noc == NocMode::software) {
        if (!software_noc || !noc_fabric)
            panic("software NoC not attached");
        // Peer scratchpad located through the fabric's registry is
        // not available here; the device exposes it instead.
        fail(res, "software NoC send must go through NpuDevice");
        return false;
    }
    if (!noc_fabric)
        panic("NoC fabric not attached");
    noc_fabric->setMode(opts.noc);
    nres = noc_fabric->transfer(t, params.core_id, in.peer, in.spad_row,
                                in.spad_row, in.rows);
    if (!nres.ok) {
        if (nres.corrupted) {
            fail(res, "NoC packet dropped: head-flit corruption",
                 StatusCode::degraded);
        } else if (nres.auth_failed) {
            fail(res, "NoC peephole rejected the packet",
                 StatusCode::verification_failed);
        } else {
            fail(res, "NoC transfer denied");
        }
        return false;
    }
    t = nres.done;
    return true;
}

ExecResult
NpuCore::run(Tick start, const NpuProgram &program,
             const ExecOptions &opts)
{
    ++programs_run;
    ExecResult res;
    res.start = start;

    // An injected hang: the program never retires. The core reports
    // timeout with end == start; the caller's watchdog charges the
    // wall-clock cost of discovering it.
    if (faults && faults->shouldInject(FaultSite::task_hang, start)) {
        res.end = start;
        res.status = Status::timeout("injected task hang: program "
                                     "never retired");
        return res;
    }
    const std::uint64_t corrupt_before =
        faults ? spad->corruptions() + acc->corruptions() : 0;

    Tick dma_t = start;     // DMA pipeline cursor
    Tick dma_ready = start; // completion of the latest load
    Tick mac_t = start;     // systolic pipeline cursor

    std::size_t next_tile = 0;
    std::size_t next_layer = 0;
    std::size_t layers_since_flush = 0;

    for (std::size_t pc = 0; pc < program.code.size(); ++pc) {
        const Instr &in = program.code[pc];
        ++instructions;
        bool ok = true;
        if (tracer.active()) {
            tracer.emit(std::max(dma_t, mac_t), TraceCategory::instr,
                        trace_name, in.toString());
        }

        switch (in.op) {
          case Opcode::config:
            activation = in.act;
            break;
          case Opcode::mvin:
          case Opcode::mvin_weight: {
            // Consecutive loads issue as parallel channel streams;
            // never batch past the next flush boundary.
            std::size_t stop = program.code.size();
            if (next_tile < program.tile_ends.size())
                stop = std::min(stop, program.tile_ends[next_tile]);
            if (next_layer < program.layer_ends.size())
                stop = std::min(stop, program.layer_ends[next_layer]);
            const std::size_t consumed =
                execLoadBatch(program, pc, stop, dma_t, res);
            ok = consumed > 0;
            if (ok)
                pc += consumed - 1;
            dma_ready = std::max(dma_ready, dma_t);
            break;
          }
          case Opcode::mvout:
            ok = execMvout(in, dma_t, mac_t, res);
            break;
          case Opcode::preload:
            ok = execPreload(in, res);
            mac_t += systolic.preloadCycles();
            res.mac_busy += systolic.preloadCycles();
            break;
          case Opcode::compute:
            ok = execCompute(in, mac_t, dma_ready, res);
            break;
          case Opcode::noc_send: {
            Tick t = std::max(dma_t, mac_t);
            ok = execNocSend(in, t, opts, res);
            dma_t = mac_t = t;
            break;
          }
          case Opcode::noc_recv:
            // Cross-core arrival is synchronized by the multi-core
            // runner; within a single core this is a fence.
            dma_t = mac_t = std::max(dma_t, mac_t);
            break;
          case Opcode::fence:
            dma_t = mac_t = dma_ready = std::max(dma_t, mac_t);
            break;
          case Opcode::flush_spad: {
            Tick t = std::max(dma_t, mac_t);
            const Tick done = flush_engine->flush(
                t, program.spad_rows_used, opts.flush_save_area, world);
            res.flush_cycles += done - t;
            dma_t = mac_t = done;
            break;
          }
          case Opcode::sec_set_id:
            if (!in.privileged) {
                fail(res,
                     "sec_set_id from unprivileged context rejected",
                     StatusCode::privilege_denied);
                ok = false;
            } else {
                world = in.world;
            }
            break;
          case Opcode::sec_reset_spad:
            if (!spad->secureReset(in.spad_row, in.rows, in.privileged)) {
                fail(res, "sec_reset_spad rejected",
                     StatusCode::privilege_denied);
                ok = false;
            }
            break;
        }

        if (!ok) {
            res.end = std::max(dma_t, mac_t);
            return res;
        }

        // Strawman flush points (Fig 14): save + scrub + restore the
        // live scratchpad context at the configured granularity. At a
        // tile boundary only the tile working set is live; at a layer
        // boundary the layer's full footprint must round-trip.
        std::uint32_t flush_rows = 0;
        if (opts.flush == FlushGranularity::tile &&
            next_tile < program.tile_ends.size() &&
            pc == program.tile_ends[next_tile]) {
            ++next_tile;
            flush_rows = std::max(flush_rows, program.tile_live_rows);
        }
        if (next_layer < program.layer_ends.size() &&
            pc == program.layer_ends[next_layer]) {
            ++next_layer;
            ++layers_since_flush;
            if (opts.flush == FlushGranularity::layer ||
                (opts.flush == FlushGranularity::layer5 &&
                 layers_since_flush >= 5)) {
                // At a layer boundary the activations already sit in
                // memory; control state, the next layer's warm-up
                // prefetch, and pipeline residue round-trip (a small
                // fixed context).
                flush_rows = std::max(flush_rows, 1024u);
                layers_since_flush = 0;
            }
        }
        if (flush_rows > 0) {
            // Charge the synchronous save (drain + scrub); the
            // resumed task demand-pages its context back in,
            // overlapping the refill with execution, so the restore
            // costs only a fixed resume penalty.
            constexpr Tick resume_penalty = 200;
            Tick t = std::max(dma_t, mac_t);
            const Tick saved = flush_engine->flush(
                t, flush_rows, opts.flush_save_area, world);
            flush_engine->restoreFunctional(flush_rows,
                                            opts.flush_save_area);
            const Tick done = saved + resume_penalty;
            res.flush_cycles += done - t;
            dma_t = mac_t = dma_ready = done;
        }
    }

    res.end = std::max(dma_t, mac_t);

    // End-to-end output integrity check: if a wordline was silently
    // corrupted while this program ran, the result retires on time
    // but its output cannot be trusted.
    if (faults && res.ok()) {
        const std::uint64_t delta =
            spad->corruptions() + acc->corruptions() - corrupt_before;
        if (delta > 0) {
            res.status = Status::degraded(
                "output integrity check failed: " +
                std::to_string(delta) + " corrupted wordline(s)");
        }
    }
    return res;
}

} // namespace snpu
