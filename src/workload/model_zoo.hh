/**
 * @file
 * The six evaluation networks (§VI-A): GoogleNet, AlexNet, YOLO-lite,
 * MobileNet, ResNet, and BERT — CV and NLP models with very different
 * kernel mixes, arithmetic intensity, and weight footprints. Layer
 * shapes are representative GEMM lowerings of the published
 * architectures (inference; CNNs at batch 1 except the FC-heavy
 * AlexNet head which uses a batch of 128, BERT at sequence 512).
 */

#ifndef SNPU_WORKLOAD_MODEL_ZOO_HH
#define SNPU_WORKLOAD_MODEL_ZOO_HH

#include <string>
#include <vector>

#include "workload/layer.hh"

namespace snpu
{

/** The evaluation workloads, in the paper's order. */
enum class ModelId
{
    googlenet,
    alexnet,
    yololite,
    mobilenet,
    resnet,
    bert,
};

/** All six, for sweeps. */
std::vector<ModelId> allModels();

const char *modelName(ModelId id);

/** Build the layer list for @p id. */
ModelSpec makeModel(ModelId id);

/** Parse a model name; fatal on unknown names. */
ModelId modelByName(const std::string &name);

/**
 * Transformer decoder configuration for LLM serving: a prefill phase
 * processes the whole prompt at once (BERT-like full-sequence GEMMs),
 * then each generated token runs one decode step — M = 1 GEMMs whose
 * attention layers read the growing KV cache as their weight operand
 * and append one token's K/V rows.
 */
struct DecoderSpec
{
    std::string name;
    std::uint32_t blocks = 0;  //!< decoder blocks modeled
    std::uint32_t hidden = 0;  //!< model width
    std::uint32_t ffn = 0;     //!< FFN inner width
    std::uint32_t heads = 0;   //!< attention heads (annotation)
    std::uint32_t prompt = 0;  //!< prefill sequence length
    /**
     * KV paging granularity in tokens: decode-step attention shapes
     * round the context up to a page, so steady-state decode cycles
     * through a handful of shapes (and the timing cache hits).
     */
    std::uint32_t kv_page = 16;

    /** KV bytes appended per generated token (K + V, every block). */
    std::uint64_t kvBytesPerToken() const
    {
        return 2ull * blocks * hidden;
    }
    /** Context length (tokens) at generated-token @p position,
     *  rounded up to the KV page. */
    std::uint32_t contextAt(std::uint32_t position) const
    {
        const std::uint32_t ctx = prompt + position + 1;
        return ((ctx + kv_page - 1) / kv_page) * kv_page;
    }
};

/** The serving decoders. */
enum class DecoderId
{
    tinygpt, //!< small 2-block decoder for serving sweeps
    gpt2s,   //!< GPT-2-small shapes (3 blocks standing for 12)
};

std::vector<DecoderId> allDecoders();
const char *decoderName(DecoderId id);
DecoderSpec makeDecoder(DecoderId id);

/** Prefill phase: full-prompt GEMMs over every block. */
ModelSpec makePrefill(const DecoderSpec &d);

/**
 * One decode step for generated-token @p position (0-based). M = 1
 * everywhere; the attention score/context GEMMs carry
 * stream_weights = true because their weight operand is the KV cache
 * (contextAt(position) wide), streamed from DRAM each step.
 */
ModelSpec makeDecodeStep(const DecoderSpec &d, std::uint32_t position);

/**
 * The decode phase as a shape schedule: @p shapes holds the unique
 * decode-step models (one per distinct padded context), and
 * step_shape[t] indexes the shape token t executes. Steady-state
 * decode replays a previously seen shape, which is what lets the
 * layer-timing cache serve warm steps.
 */
struct DecodeSchedule
{
    std::vector<ModelSpec> shapes;
    std::vector<std::uint32_t> step_shape;
};

DecodeSchedule makeDecodeSchedule(const DecoderSpec &d,
                                  std::uint32_t tokens);

} // namespace snpu

#endif // SNPU_WORKLOAD_MODEL_ZOO_HH
