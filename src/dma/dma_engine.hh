/**
 * @file
 * Per-NPU-core DMA engine. A DMA request is translated and checked
 * through the attached ProtectionBackend, split into 64-byte memory
 * packets, and streamed through the shared memory system. The engine
 * also moves functional bytes between scratchpad buffers and PhysMem.
 *
 * The engine issues at most one packet per cycle; stalls come from
 * translation latency (IOTLB misses) and memory back-pressure, which
 * is exactly the contrast between the IOMMU baseline and NPU Guarder.
 *
 * Controller contract, enforced here: every Translation::ready the
 * controller returns must be at or after the tick it was asked at
 * (the engine panics otherwise), and after the packet stream drains
 * the engine charges ProtectionBackend::transferOverhead() once per
 * request — zero for access-control backends, the crypto pipeline /
 * MAC cost for encryption backends.
 */

#ifndef SNPU_DMA_DMA_ENGINE_HH
#define SNPU_DMA_DMA_ENGINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dma/protection_backend.hh"
#include "mem/mem_system.hh"
#include "sim/fault_injector.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace snpu
{

/** Completed-transfer summary returned by the engine. */
struct DmaResult
{
    /** Tick at which the last packet completed. */
    Tick done = 0;
    /** False when the access controller or partition denied it. */
    bool ok = true;
    /** True when an injected transfer fault (not a denial) failed it. */
    bool fault = false;
    /** Packets actually issued to memory. */
    std::uint32_t packets = 0;
};

/** DMA engine parameters. */
struct DmaParams
{
    /** Parallel DMA channels for batched loads (tile-row streams). */
    std::uint32_t channels = 16;
};

/**
 * The DMA engine. Timing and data are handled in one call per
 * request: the caller (NPU core execution engine) learns when the
 * transfer finishes and schedules its next instruction accordingly.
 */
class DmaEngine
{
  public:
    DmaEngine(stats::Group &stats, MemSystem &mem,
              ProtectionBackend &ctrl);

    /**
     * Timed transfer. For reads the data lands in @p buffer (resized
     * to req.bytes); for writes @p buffer supplies the bytes.
     * @p buffer may be nullptr for timing-only experiments.
     *
     * One packet loop serves both check granularities, and adds its
     * memory-system stats once per transfer (MemSystem::commit()). A
     * request-granular controller (Guarder, crypto, pass-through) is
     * asked once for the whole request; its packets are not clamped
     * at page ends, and the bytes move in one copy after every packet
     * issued, so a partition denial partway moves none. A
     * packet-granular controller (IOMMU) is asked once per packet at
     * the packet's issue tick; each packet stops at its page end,
     * moves its bytes as it issues, and adds its wait to the stall.
     */
    DmaResult transfer(Tick when, const DmaRequest &req,
                       std::vector<std::uint8_t> *buffer);

    /**
     * Timed multi-stream transfer: up to `channels` requests move
     * concurrently, their packet streams interleaved round-robin —
     * the parallel tile-row streams a high-bandwidth NPU DMA issues.
     * With a packet-granular controller (IOMMU) the interleaving is
     * what produces IOTLB ping-pong when the stream count exceeds
     * the entry count. @p buffers parallels @p reqs (entries may be
     * null).
     */
    DmaResult transferBatch(
        Tick when, const std::vector<DmaRequest> &reqs,
        const std::vector<std::vector<std::uint8_t> *> &buffers);

    ProtectionBackend &controller() { return control; }

    /** Arm (or disarm with nullptr) the fault injector. */
    void armFaults(FaultInjector *inj) { faults = inj; }

    /**
     * Attach (or detach with nullptr) a trace sink, emitting as
     * @p who. Completions and denials trace under
     * TraceCategory::dma, injected transfer faults under
     * TraceCategory::fault.
     */
    void attachTrace(TraceSink *sink, const std::string &who);

    std::uint64_t totalBytes() const
    {
        return static_cast<std::uint64_t>(bytes_moved.value());
    }
    std::uint64_t denied() const
    {
        return static_cast<std::uint64_t>(denied_requests.value());
    }

  private:
    /**
     * Ask the controller to translate [@p va, @p va + @p bytes) of
     * @p req at tick @p at, enforcing the ready-tick contract.
     */
    Translation translate(Tick at, const DmaRequest &req, Addr va,
                          std::uint32_t bytes);

    /**
     * Move @p bytes functional bytes between PA @p pa and
     * @p buffer at @p offset, in @p op's direction. A null
     * @p buffer (timing-only) moves nothing.
     */
    void copyBytes(std::vector<std::uint8_t> *buffer, MemOp op, Addr pa,
                   std::uint32_t offset, std::uint32_t bytes);

    /** One request of a transferBatch() and its progress. */
    struct Stream
    {
        const DmaRequest *req;
        std::vector<std::uint8_t> *buffer;
        Translation req_xl;          // request-level translation
        Addr first_pa = 0;           // PA of the first packet
        std::uint32_t offset = 0;
    };

    MemSystem &mem;
    ProtectionBackend &control;
    FaultInjector *faults = nullptr;
    Tracer tracer;
    std::string trace_name;
    /**
     * transferBatch() scratch: every stream, then the ones still
     * moving bytes. Cleared per batch and never shrunk, so a batch
     * allocates nothing once they have grown; the engine is driven
     * by one thread.
     */
    std::vector<Stream> streams;
    std::vector<Stream *> live;

    stats::Scalar requests;
    stats::Scalar packets_issued;
    stats::Scalar bytes_moved;
    stats::Scalar denied_requests;
    stats::Scalar faulted_requests;
    stats::Average stall_cycles;
};

} // namespace snpu

#endif // SNPU_DMA_DMA_ENGINE_HH
