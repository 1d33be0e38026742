/**
 * @file
 * Decode-attention workload (section 5.4). A batch of single-token decode
 * requests with per-request KV-cache lengths is spread over parallel
 * attention regions using one of three strategies:
 *
 *  - StaticCoarse: fixed blocks of requests per region;
 *  - StaticInterleaved: round-robin;
 *  - Dynamic: availability-driven dispatch (Figure 16) built from
 *    Partition + EagerMerge(completions) + Dispatcher + Reassemble.
 *
 * Each region streams the request's KV tiles from off-chip and runs an
 * online-softmax Accum, so service time is proportional to KV length —
 * the load-imbalance behaviour Figures 14/15/21 measure.
 */
#pragma once

#include <optional>
#include <vector>

#include "ops/graph.hh"
#include "workloads/model_config.hh"

namespace step {

enum class ParStrategy { StaticCoarse, StaticInterleaved, Dynamic };

struct AttnParams
{
    ModelConfig cfg;
    int64_t batch = 64;
    ParStrategy strategy = ParStrategy::Dynamic;
    int64_t regions = 4;
    /** KV-cache tokens per streamed tile. */
    int64_t kvTileRows = 32;
    /** Attention compute bandwidth per region (FLOPs/cycle). */
    int64_t computeBw = 1024;
    /** Requests per region under StaticCoarse. */
    int64_t coarseBlock = 16;
    /** Optional explicit per-request region assignment (overrides the
     *  static strategies; used for micro-batch studies). */
    std::optional<std::vector<uint32_t>> staticAssign;
    bool functional = false;
    uint64_t seed = 42;
};

struct AttnBuild
{
    /** Reassembled outputs: rank-3 [B, 1, 1] stream of [1, d] rows. */
    StreamPort out;
};

class SourceOp;
class RandomOffChipLoadOp;

class DispatcherOp;

/**
 * Typed handles to the operators and channels of a built attention
 * layer that carry per-iteration state. Populated by
 * buildAttentionLayer when requested; rearmAttentionLayer() patches
 * them for the next iteration's batch, KV lengths and policy bandwidth
 * without reconstructing the graph. Only
 * layers fed by an external q stream (ext_q, as buildDecoderLayer
 * builds them) are rearmable. Pointers are owned by the graph and die
 * with it (or with its next recycle), so handles must be refreshed on
 * every full rebuild.
 */
struct AttnRearmHandles
{
    SourceOp* meta = nullptr; ///< meta stream zipped with ext_q rows
    SourceOp* selA = nullptr; ///< static partition selector
    SourceOp* selB = nullptr; ///< static gather selector
    std::vector<RandomOffChipLoadOp*> kLoads; ///< per-region K loads
    std::vector<RandomOffChipLoadOp*> vLoads; ///< per-region V loads
    /** (op, divisor): rearmed bandwidth = p.computeBw / divisor. */
    std::vector<std::pair<OpBase*, int64_t>> bwOps;
    /** Dynamic strategy: the dispatcher (its total is the batch) and
     *  the completion channels (their depth scales with the batch). */
    DispatcherOp* disp = nullptr;
    std::vector<dam::Channel*> compChans;
};

/**
 * Build the attention layer. @p kv_lens gives each request's KV length
 * in tokens. Functional mode takes per-request q vectors and K/V
 * matrices (row-major, kv_lens[i] x d where d = numKvHeads*headDim).
 */
AttnBuild buildAttentionLayer(
    Graph& g, const AttnParams& p, const std::vector<int64_t>& kv_lens,
    const std::vector<std::vector<float>>* qs = nullptr,
    const std::vector<std::vector<float>>* ks = nullptr,
    const std::vector<std::vector<float>>* vs = nullptr,
    const StreamPort* ext_q = nullptr,
    AttnRearmHandles* rearm = nullptr);

/**
 * Re-arm a built attention layer for a new batch (kv_lens.size()), new
 * per-request KV lengths and the current policy bandwidth (timing mode
 * only). Requires the owning graph to have been rearm()-ed first;
 * produces metrics bit-identical to a full rebuild with the same
 * parameters.
 */
void rearmAttentionLayer(const AttnRearmHandles& h, const AttnParams& p,
                         const std::vector<int64_t>& kv_lens);

/** Dense softmax-attention reference for functional checking. */
std::vector<std::vector<float>>
referenceAttention(const AttnParams& p, const std::vector<int64_t>& kv_lens,
                   const std::vector<std::vector<float>>& qs,
                   const std::vector<std::vector<float>>& ks,
                   const std::vector<std::vector<float>>& vs);

/** Static region assignment used by the given strategy. */
std::vector<uint32_t> staticAssignment(const AttnParams& p);

} // namespace step
