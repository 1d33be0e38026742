/**
 * @file
 * MoE layer graph builder (section 3.3 generalized to the evaluation's
 * SwiGLU experts, section 5.1). Supports:
 *
 *  - static tiling (Reshape+pad, the Revet-expressible baseline) and
 *    dynamic tiling (Promote + dynamically-growing Accum, section 5.2);
 *  - one dedicated subgraph per expert, or configuration
 *    time-multiplexing with EagerMerge + RandomOffChipLoad over expert
 *    regions (Figure 11, section 5.3);
 *  - timing mode (shape-only tiles at full model dimensions) and
 *    functional mode (payload tiles checked against referenceMoe()).
 */
#pragma once

#include <optional>
#include <vector>

#include "ops/graph.hh"
#include "trace/trace.hh"
#include "workloads/model_config.hh"

namespace step {

enum class Tiling { Static, Dynamic };

struct MoeParams
{
    ModelConfig cfg;
    int64_t batch = 64;
    Tiling tiling = Tiling::Static;
    /** Static tile size along the batch dimension of each expert. */
    int64_t tileRows = 32;
    /** Weight column-tile width (reduction dim is never tiled, §3.3). */
    int64_t weightTileCols = 64;
    /** Compute bandwidth per matmul Map (Listing 1 uses 1024). */
    int64_t computeBwPerMatmul = 1024;
    /**
     * Number of time-multiplexed regions; 0 = one dedicated subgraph per
     * expert (no time-multiplexing).
     */
    int64_t parallelRegions = 0;
    /** Build payload-carrying tiles for functional checking. */
    bool functional = false;
    uint64_t seed = 42;
};

struct MoeBuild
{
    /** Final combined output: [B] stream of [1,H] tiles. */
    StreamPort out;
};

class SourceOp;

/**
 * Typed handles to the operators of a built MoE layer that carry
 * per-iteration state (router selector streams, policy-assigned matmul
 * bandwidths). Populated by buildMoeLayer when requested; rearmMoeLayer()
 * patches them for the next iteration's expert trace. Only layers fed by
 * an external input (ext_in, as buildDecoderLayer builds them) are
 * rearmable. Pointers die with the graph build.
 */
struct MoeRearmHandles
{
    SourceOp* selA = nullptr; ///< router partition selector
    SourceOp* selB = nullptr; ///< router gather selector
    /** (op, divisor): rearmed bandwidth = moeRegionBw(p) / divisor. */
    std::vector<std::pair<OpBase*, int64_t>> regionBwOps;
    /** (op, divisor): rearmed bw = p.computeBwPerMatmul / divisor. */
    std::vector<std::pair<OpBase*, int64_t>> baseBwOps;
};

/**
 * Compute bandwidth provisioned to one expert region. Region compute is
 * oversubscribed: a region serving E experts gets min(E, ceil(beta *
 * sqrt(E))) x the per-expert matmul bandwidth, beta = 1 — enough to
 * keep a time-multiplexed region at the memory-bound knee (reproduces
 * the paper's 54-62% compute savings at comparable cycles). Shared by
 * the builder and the rearm path so both assign identical bandwidths.
 */
int64_t moeRegionBw(const MoeParams& p);

/**
 * Build the MoE layer into @p g. @p token_rows supplies functional input
 * activations (batch x H); null in timing mode.
 */
MoeBuild buildMoeLayer(Graph& g, const MoeParams& p,
                       const ExpertTrace& trace,
                       const std::vector<std::vector<float>>* token_rows
                           = nullptr,
                       const StreamPort* ext_in = nullptr,
                       MoeRearmHandles* rearm = nullptr);

/**
 * Re-arm a built MoE layer for a new expert-routing trace and the
 * current policy bandwidth (timing mode only). The layer geometry must
 * match the build; the trace's batch size may differ, since the router
 * streams declare the batch symbolically. Metrics are bit-identical to
 * a full rebuild with the same parameters.
 */
void rearmMoeLayer(const MoeRearmHandles& h, const MoeParams& p,
                   const ExpertTrace& trace);

/** Dense reference: same weights/combine rule as the STeP graph. */
std::vector<std::vector<float>>
referenceMoe(const MoeParams& p, const ExpertTrace& trace,
             const std::vector<std::vector<float>>& tokens);

/** Deterministic weight matrix used by both builder and reference. */
std::vector<float> moeWeightMatrix(uint64_t seed, int64_t expert,
                                   int matrix, int64_t rows, int64_t cols);

/**
 * [B, 1] row-activation stream tokens ([1,hidden] rows; payload-
 * carrying only when @p rows is non-null). Shared by the MoE input,
 * the decoder layer input, and their rearm paths, so the stream
 * structure can never drift between builders.
 */
std::vector<Token> rowStreamTokens(
    int64_t batch, int64_t hidden,
    const std::vector<std::vector<float>>* rows = nullptr);

/** FLOPs of the un-padded MoE computation (3 matmuls per assignment). */
int64_t moeUsefulFlops(const MoeParams& p, const ExpertTrace& trace);

} // namespace step
