/**
 * @file
 * Model configurations for the evaluation workloads (section 5.1): the
 * MoE/attention geometry of Qwen3-30B-A3B and Mixtral-8x7B, plus scaled
 * variants for functional tests.
 */
#pragma once

#include <cstdint>
#include <string>

#include "core/stream_shape.hh"

namespace step {

/**
 * The batch extent, declared as the symbol B on every port the workload
 * builders size by the batch. Batch size is a rearm payload rather than
 * structure (see DecoderStructKey), so a built graph's metadata must
 * hold for every batch it is rearmed to.
 */
inline Dim
batchDim()
{
    return Dim::dynamicExpr(sym::Expr::sym("B"));
}

struct ModelConfig
{
    std::string name;
    int64_t hidden = 0;           ///< model hidden size H
    int64_t moeIntermediate = 0;  ///< per-expert FFN intermediate I
    int64_t numExperts = 0;
    int64_t topK = 0;
    int64_t numLayers = 0;
    int64_t headDim = 0;
    int64_t numQHeads = 0;
    int64_t numKvHeads = 0;
    /**
     * Compute bandwidth provisioned per matmul Map (FLOPs/cycle). The
     * programmer-specified bandwidth determines how many compute units
     * map to each STeP node (section 4.5); it is sized so the MoE layer
     * sits at the memory-bound knee of the roofline, matching the
     * paper's memory-bound evaluation regime.
     */
    int64_t moeMatmulBw = 1024;
};

/** Qwen3-30B-A3B: 128 experts, top-8, H=2048, I_moe=768, 48 layers. */
inline ModelConfig
qwen3_30b_a3b()
{
    ModelConfig c;
    c.name = "Qwen3-30B-A3B";
    c.hidden = 2048;
    c.moeIntermediate = 768;
    c.numExperts = 128;
    c.topK = 8;
    c.numLayers = 48;
    c.headDim = 128;
    c.numQHeads = 32;
    c.numKvHeads = 4;
    c.moeMatmulBw = 1024; // Listing 1's configuration
    return c;
}

/** Mixtral-8x7B: 8 experts, top-2, H=4096, I=14336, 32 layers. */
inline ModelConfig
mixtral8x7b()
{
    ModelConfig c;
    c.name = "Mixtral8x7B";
    c.hidden = 4096;
    c.moeIntermediate = 14336;
    c.numExperts = 8;
    c.topK = 2;
    c.numLayers = 32;
    c.headDim = 128;
    c.numQHeads = 32;
    c.numKvHeads = 8;
    // Mixtral experts are ~18x larger than Qwen's; provision the matmul
    // units accordingly (kept memory-bound, as in the paper).
    c.moeMatmulBw = 8192;
    return c;
}

/**
 * Mid-size configuration for the serving runtime: the same MoE/GQA shape
 * family as the evaluation models, scaled so one batching iteration
 * (one decoder-layer pass over the dynamic batch) simulates in
 * milliseconds. Serving experiments run thousands of iterations, so the
 * per-iteration graph must stay small; per-layer cycles are scaled by
 * `numLayers` in the engine instead of simulating every layer.
 */
inline ModelConfig
servingSimConfig()
{
    ModelConfig c;
    c.name = "serving-sim";
    c.hidden = 256;
    c.moeIntermediate = 128;
    c.numExperts = 16;
    c.topK = 2;
    c.numLayers = 24;
    c.headDim = 64;
    c.numQHeads = 4;
    c.numKvHeads = 1;
    c.moeMatmulBw = 256;
    return c;
}

/** Tiny functional-test configuration (payload-carrying tiles). */
inline ModelConfig
tinyConfig()
{
    ModelConfig c;
    c.name = "tiny";
    c.hidden = 8;
    c.moeIntermediate = 8;
    c.numExperts = 4;
    c.topK = 2;
    c.numLayers = 2;
    c.headDim = 8;
    c.numQHeads = 2;
    c.numKvHeads = 1;
    return c;
}

} // namespace step
