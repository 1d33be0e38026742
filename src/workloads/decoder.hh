/**
 * @file
 * Fused Transformer decoder layer and end-to-end model runner
 * (section 5.5). Each layer is one STeP graph: QKV projection ->
 * attention (parallelized over regions) -> output projection -> MoE ->
 * off-chip store. The full model executes the layer graph repeatedly
 * with per-layer expert-routing traces, exactly the paper's "executed
 * repeatedly with layer-specific weights".
 */
#pragma once

#include "ops/graph.hh"
#include "workloads/attention.hh"
#include "workloads/moe.hh"

namespace step {

struct DecoderParams
{
    ModelConfig cfg;
    int64_t batch = 64;

    Tiling moeTiling = Tiling::Static;
    int64_t moeTile = 32;
    /** 0 = dedicated region per expert. */
    int64_t moeRegions = 0;

    ParStrategy attnStrategy = ParStrategy::StaticInterleaved;
    int64_t attnRegions = 4;
    int64_t kvTileRows = 32;

    int64_t denseTile = 32;
    int64_t weightTileCols = 64;
    int64_t computeBwPerMatmul = 1024;
    uint64_t seed = 42;
};

/** Aggregate result of an end-to-end (multi-layer) run. */
struct EndToEndResult
{
    dam::Cycle cycles = 0;          ///< summed over layers
    int64_t onChipPeakBytes = 0;    ///< max over layers (same hardware)
    int64_t allocatedComputeBw = 0; ///< max over layers
    int64_t offChipBytes = 0;       ///< summed
    int64_t totalFlops = 0;         ///< summed
};

/**
 * Dense projection block over a row stream: [B,1] of [1,in_cols] ->
 * [B,1] of [1,out_cols]. Used for QKV and attention-output projections.
 * When @p bw_ops is non-null, the operators billed against
 * @p compute_bw are recorded as (op, divisor) pairs for the rearm path.
 */
StreamPort buildDenseProj(Graph& g, const std::string& name,
                          StreamPort in_rows, int64_t in_cols,
                          int64_t out_cols, int64_t tile_rows,
                          int64_t weight_tile_cols, int64_t compute_bw,
                          uint64_t weight_base_addr,
                          std::vector<std::pair<OpBase*, int64_t>>* bw_ops
                              = nullptr);

/**
 * Structural fingerprint of a decoder-layer graph: everything that
 * determines the operator set and channel wiring. The batch size, KV
 * lengths, expert traces, and policy-assigned bandwidths are
 * deliberately absent — they are per-iteration state the rearm path
 * patches in place (the batch reaches the graph only through source
 * tokens, channel depths, the attention dispatcher's total and
 * priming, and port shapes that declare it as the symbol B). When the
 * key changes (layer config, parallelization or tiling) the graph must
 * be recycled and rebuilt.
 */
struct DecoderStructKey
{
    // ModelConfig geometry
    int64_t hidden = 0;
    int64_t moeIntermediate = 0;
    int64_t numExperts = 0;
    int64_t topK = 0;
    int64_t headDim = 0;
    int64_t numQHeads = 0;
    int64_t numKvHeads = 0;
    // Parallelization / tiling
    Tiling moeTiling = Tiling::Static;
    int64_t moeTile = 0;
    int64_t moeRegions = 0;
    ParStrategy attnStrategy = ParStrategy::StaticInterleaved;
    int64_t attnRegions = 0;
    int64_t kvTileRows = 0;
    int64_t denseTile = 0;
    int64_t weightTileCols = 0;
    uint64_t seed = 0;

    bool operator==(const DecoderStructKey&) const = default;
};

/** @p batch is unused: the batch is not structural (kept so callers
 *  can key an iteration without knowing that). */
DecoderStructKey decoderStructKey(const DecoderParams& p, int64_t batch);

/**
 * The SimConfig a serving iteration at @p batch runs under (channel
 * capacity scales with the batch). Exported so benches and tests build
 * exactly the graph the engine runs; rearm re-sizes the channels of a
 * built graph to the depth it implies.
 */
SimConfig iterationSimConfig(int64_t batch);

/**
 * Typed handles to the per-iteration operators of a built decoder-layer
 * graph plus the structural key they were built under. Owned by the
 * graph's driver (e.g. the serving engine) and refreshed by
 * buildDecoderLayer on every full rebuild; runDecoderIteration uses
 * them to take the structure-preserving rearm fast path whenever the
 * key still matches, whatever the iteration's batch size. A driver
 * with a fixed layer config therefore builds once.
 */
struct DecoderRearmHandles
{
    bool valid = false;
    DecoderStructKey key;
    SourceOp* layerIn = nullptr;
    /** (op, divisor): rearmed bw = p.computeBwPerMatmul / divisor. */
    std::vector<std::pair<OpBase*, int64_t>> denseBwOps;
    AttnRearmHandles attn;
    MoeRearmHandles moe;
    // Path counters (observability for benches and tests).
    uint64_t rearms = 0;
    uint64_t rebuilds = 0;
};

/**
 * Build one decoder layer into @p g; returns the layer-output stream
 * ([B] of [1,H] rows) already routed into a LinearOffChipStore, so the
 * run's makespan covers "first off-chip read to last off-chip write".
 * When @p rearm is non-null its handles are reset and repopulated for
 * the new build (key/valid/counters are managed by the caller).
 */
void buildDecoderLayer(Graph& g, const DecoderParams& p,
                       const ExpertTrace& trace,
                       const std::vector<int64_t>& kv_lens,
                       DecoderRearmHandles* rearm = nullptr);


/**
 * One serving iteration: a single decoder-layer pass over the *current*
 * dynamic batch composition. The serving runtime calls this once per
 * continuous-batching iteration with the batch's per-request context
 * lengths and a per-iteration expert-routing trace, instead of building
 * one whole-run graph up front — that is what lets request-level
 * dynamism (variable KV lengths, variable batch size, variable expert
 * load) reach the hardware model.
 */
struct IterationSpec
{
    /** Per-request KV context length for this iteration's batch. */
    std::vector<int64_t> kvLens;
    /** Expert routing for this iteration's tokens (size == batch). */
    ExpertTrace trace;
};

/**
 * Structure-preserving re-arm of a previously built decoder-layer
 * graph: Graph::rearm (channel depths for the iteration's batch) plus
 * per-operator patches for the iteration's batch, KV lengths, expert
 * trace, and bandwidths. Valid only while decoderStructKey(p, B)
 * matches the build; the batch may differ from the build's. Metrics
 * are bit-identical to a cold build with the same (p, spec). Exposed
 * separately from runDecoderIteration so benches can time the rearm
 * cost alone.
 */
void rearmDecoderLayer(Graph& g, const DecoderRearmHandles& h,
                       const DecoderParams& p, const IterationSpec& spec);

/**
 * Build and simulate one decoder-layer iteration. When @p sched is
 * non-null the externally owned scheduler is reused (reset + run), so a
 * long-lived engine pays no scheduler setup per iteration. When
 * @p reuse is non-null it must be an arena-backed Graph owned by the
 * caller: the previous build is recycled in place and the new iteration
 * graph reuses its operator storage, pooled channels, and interned
 * names (see Graph::recycle). When @p rearm is also non-null and the
 * structural key matches the previous build, even the rebuild is
 * skipped: the recycled graph is patched in place (rearmDecoderLayer)
 * — the fast path the serving engine runs on, batch changes included.
 * Only the first build and a key change (layer config, parallelization
 * or tiling) recycle, rebuild and refresh the handles.
 *
 * When @p vopts is non-null every fresh build — the cold path, the
 * first build and a key change, but not the structure-preserving rearm
 * itself — is statically verified (Graph::verify) before it runs; an
 * error-severity finding raises FatalError with the rendered report.
 * A built graph declares the batch symbolically, so its verification
 * holds for every batch it is rearmed to. Verification is read-only,
 * so a clean verified run is byte-identical to an unverified one.
 */
SimResult runDecoderIteration(const DecoderParams& p,
                              const IterationSpec& spec,
                              dam::Scheduler* sched = nullptr,
                              Graph* reuse = nullptr,
                              DecoderRearmHandles* rearm = nullptr,
                              const verify::VerifyOptions* vopts = nullptr);

/** Run @p layers decoder layers (fresh graph each) and aggregate. */
EndToEndResult runEndToEnd(const DecoderParams& p, int64_t layers,
                           uint64_t trace_seed);

} // namespace step
