/**
 * @file
 * DNN layer intermediate representation. Layers are lowered to GEMM
 * shape (im2col for convolutions), which is what a systolic-array NPU
 * executes: C[M x N] = A[M x K] * W[K x N].
 */

#ifndef SNPU_WORKLOAD_LAYER_HH
#define SNPU_WORKLOAD_LAYER_HH

#include <cstdint>
#include <string>
#include <vector>

namespace snpu
{

/** Layer operator kinds (annotation; all lower to GEMM here). */
enum class LayerKind : std::uint8_t
{
    conv,        //!< standard convolution (im2col GEMM)
    depthwise,   //!< depthwise conv: tiny K, low arithmetic intensity
    pointwise,   //!< 1x1 conv
    fc,          //!< fully connected / projection
    attention,   //!< attention score / context GEMMs
};

/** One layer in GEMM form. */
struct LayerSpec
{
    std::string name;
    LayerKind kind = LayerKind::conv;
    /** GEMM dimensions: C[M x N] = A[M x K] * W[K x N]. */
    std::uint32_t m = 0;
    std::uint32_t n = 0;
    std::uint32_t k = 0;
    /** Apply ReLU on the output path. */
    bool relu = true;
    /**
     * Weights change between invocations (e.g. a decode step's
     * attention GEMMs read the KV cache as the weight operand), so
     * the compiler must stream them from DRAM every chunk instead of
     * planning weight residency.
     */
    bool stream_weights = false;

    std::uint64_t macs() const
    {
        return static_cast<std::uint64_t>(m) * n * k;
    }
    std::uint64_t aBytes() const
    {
        return static_cast<std::uint64_t>(m) * k;
    }
    std::uint64_t wBytes() const
    {
        return static_cast<std::uint64_t>(k) * n;
    }
    std::uint64_t cBytes() const
    {
        return static_cast<std::uint64_t>(m) * n;
    }
};

/** A whole network. */
struct ModelSpec
{
    std::string name;
    std::vector<LayerSpec> layers;

    std::uint64_t macs() const;
    std::uint64_t weightBytes() const;

    /**
     * Uniformly scale the work (M dimension) by 1/@p divisor — used
     * by long sweeps to trade fidelity for wall-clock. Shapes keep
     * their K/N structure so reuse behaviour is unchanged.
     */
    ModelSpec scaled(std::uint32_t divisor) const;
};

} // namespace snpu

#endif // SNPU_WORKLOAD_LAYER_HH
