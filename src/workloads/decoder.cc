#include "workloads/decoder.hh"

#include "ops/higher_order.hh"
#include "ops/offchip.hh"
#include "ops/shape_ops.hh"
#include "ops/source_sink.hh"
#include "support/error.hh"
#include "trace/trace.hh"
#include "verify/verifier.hh"

namespace step {

namespace {

std::string
nm(const std::string& base, const std::string& suffix)
{
    return base + "." + suffix;
}

/** Attention sub-layer parameters derived from the decoder's (build and
 *  rearm must agree exactly). */
AttnParams
attnParamsFor(const DecoderParams& p, int64_t batch)
{
    AttnParams ap;
    ap.cfg = p.cfg;
    ap.batch = batch;
    ap.strategy = p.attnStrategy;
    ap.regions = p.attnRegions;
    ap.kvTileRows = p.kvTileRows;
    ap.computeBw = p.computeBwPerMatmul;
    ap.coarseBlock = std::max<int64_t>(1, batch / p.attnRegions);
    ap.seed = p.seed;
    return ap;
}

/** MoE sub-layer parameters derived from the decoder's. */
MoeParams
moeParamsFor(const DecoderParams& p, int64_t batch)
{
    MoeParams mp;
    mp.cfg = p.cfg;
    mp.batch = batch;
    mp.tiling = p.moeTiling;
    mp.tileRows = p.moeTile;
    mp.weightTileCols = p.weightTileCols;
    mp.computeBwPerMatmul = p.cfg.moeMatmulBw;
    mp.parallelRegions = p.moeRegions;
    mp.seed = p.seed;
    return mp;
}

} // namespace

SimConfig
iterationSimConfig(int64_t batch)
{
    SimConfig sc;
    sc.channelCapacity = static_cast<size_t>(batch) + 32;
    return sc;
}

DecoderStructKey
decoderStructKey(const DecoderParams& p, int64_t /*batch: a rearm payload*/)
{
    DecoderStructKey k;
    k.hidden = p.cfg.hidden;
    k.moeIntermediate = p.cfg.moeIntermediate;
    k.numExperts = p.cfg.numExperts;
    k.topK = p.cfg.topK;
    k.headDim = p.cfg.headDim;
    k.numQHeads = p.cfg.numQHeads;
    k.numKvHeads = p.cfg.numKvHeads;
    k.moeTiling = p.moeTiling;
    k.moeTile = p.moeTile;
    k.moeRegions = p.moeRegions;
    k.attnStrategy = p.attnStrategy;
    k.attnRegions = p.attnRegions;
    k.kvTileRows = p.kvTileRows;
    k.denseTile = p.denseTile;
    k.weightTileCols = p.weightTileCols;
    k.seed = p.seed;
    return k;
}

StreamPort
buildDenseProj(Graph& g, const std::string& name, StreamPort in_rows,
               int64_t in_cols, int64_t out_cols, int64_t tile_rows,
               int64_t weight_tile_cols, int64_t compute_bw,
               uint64_t weight_base_addr,
               std::vector<std::pair<OpBase*, int64_t>>* bw_ops)
{
    const int64_t Tc = weight_tile_cols;
    STEP_ASSERT(out_cols % Tc == 0, "dense out_cols must divide by tile");
    const int64_t n_cols = out_cols / Tc;

    auto& flat = g.add<FlattenOp>(nm(name, "flat"), in_rows, 0, 1);
    auto& rs = g.add<ReshapeOp>(nm(name, "reshape"), flat.out(), 0,
                                tile_rows,
                                std::optional<Value>(Tile(1, in_cols)));
    auto& pk = g.add<AccumOp>(nm(name, "pack"), rs.out(), 1,
                              fns::retileRowInit(in_cols),
                              fns::retileRowUpdate(), compute_bw / 4,
                              DataType::tile(tile_rows, in_cols));
    if (bw_ops)
        bw_ops->emplace_back(&pk, 4);
    auto& pbc = g.add<BroadcastOp>(nm(name, "pbc"), pk.out(), 2);

    OffChipTensor wt = OffChipTensor::shapeOnly(weight_base_addr, in_cols,
                                                out_cols, in_cols, Tc);
    auto& ld = g.add<LinearOffChipLoadOp>(
        nm(name, "wload"), pbc.out(1), wt, std::array<int64_t, 2>{n_cols,
                                                                  1},
        std::array<int64_t, 2>{1, n_cols});
    auto& wfl = g.add<FlattenOp>(nm(name, "wflat"), ld.out(), 0, 1);
    auto& rep = g.add<RepeatOp>(nm(name, "rep"), pbc.out(0), n_cols);
    auto& mm = g.add<MapOp>(
        nm(name, "mm"), std::vector<StreamPort>{rep.out(), wfl.out()},
        fns::matmul(), compute_bw, DataType::tile(tile_rows, Tc));
    mm.setMatmulMemSpec(1);
    if (bw_ops)
        bw_ops->emplace_back(&mm, 1);
    auto& pc = g.add<AccumOp>(nm(name, "packcol"), mm.out(), 1,
                              fns::retileColInit(0), fns::retileColUpdate(),
                              compute_bw / 4,
                              DataType::tile(tile_rows, out_cols));
    if (bw_ops)
        bw_ops->emplace_back(&pc, 4);
    auto& fm = g.add<FlatMapOp>(nm(name, "unpack"), pc.out(),
                                fns::retileStreamify(1),
                                StreamShape({Dim::ragged()}),
                                DataType::tile(1, out_cols));
    auto& fi = g.add<FilterOp>(nm(name, "dropPad"), fm.out(), rs.padOut());
    auto& fl2 = g.add<FlattenOp>(nm(name, "rows"), fi.out(), 0, 1);
    auto& ch = g.add<RepeatOp>(nm(name, "chunk"), fl2.out(), 1);
    return ch.out();
}

void
buildDecoderLayer(Graph& g, const DecoderParams& p,
                  const ExpertTrace& trace,
                  const std::vector<int64_t>& kv_lens,
                  DecoderRearmHandles* rearm)
{
    const int64_t H = p.cfg.hidden;
    const int64_t d = p.cfg.numKvHeads * p.cfg.headDim;
    const int64_t qkv_cols =
        p.cfg.numQHeads * p.cfg.headDim + 2 * d;
    const auto B = static_cast<int64_t>(kv_lens.size());
    STEP_ASSERT(static_cast<int64_t>(trace.perToken.size()) == B,
                "trace/kv batch mismatch");
    if (rearm) {
        // Drop handles from any previous build; the caller manages the
        // key, validity, and path counters around this call.
        rearm->layerIn = nullptr;
        rearm->denseBwOps.clear();
        rearm->attn = AttnRearmHandles{};
        rearm->moe = MoeRearmHandles{};
    }

    // Layer input activations.
    auto& in_src = g.add<SourceOp>(
        "layer.in", rowStreamTokens(B, H),
        StreamShape({batchDim(), Dim::fixed(1)}), DataType::tile(1, H));
    if (rearm)
        rearm->layerIn = &in_src;

    // Weight address space above the MoE/KV regions.
    const uint64_t wbase = uint64_t{1} << 40;

    // ---- QKV projection ---------------------------------------------
    StreamPort qkv = buildDenseProj(g, "qkv", in_src.out(), H, qkv_cols,
                                    p.denseTile, p.weightTileCols,
                                    p.computeBwPerMatmul, wbase,
                                    rearm ? &rearm->denseBwOps : nullptr);
    // Slice out the q head group (timing: emits a [1,d] row per token).
    MapFn slice_q = [d](const std::vector<Value>& a, int64_t&) -> Value {
        (void)a;
        return Tile(1, d);
    };
    auto& qflat = g.add<FlattenOp>("qkv.sliceflat", qkv, 0, 1);
    auto& qrows = g.add<MapOp>("qkv.sliceq",
                               std::vector<StreamPort>{qflat.out()},
                               slice_q, 0, DataType::tile(1, d));
    auto& qchunk = g.add<RepeatOp>("qkv.qchunk", qrows.out(), 1);

    // ---- attention -----------------------------------------------------
    AttnParams ap = attnParamsFor(p, B);
    StreamPort qport = qchunk.out();
    AttnBuild ab = buildAttentionLayer(g, ap, kv_lens, nullptr, nullptr,
                                       nullptr, &qport,
                                       rearm ? &rearm->attn : nullptr);
    // [B, 1, 1] -> [B, 1] rows of [1,d].
    auto& aflat = g.add<FlattenOp>("attn.outflat", ab.out, 0, 1);

    // ---- output projection back to H ---------------------------------
    StreamPort oproj = buildDenseProj(
        g, "oproj", aflat.out(), d, H, p.denseTile, p.weightTileCols,
        p.computeBwPerMatmul, wbase + (uint64_t{1} << 36),
        rearm ? &rearm->denseBwOps : nullptr);

    // ---- MoE FFN -------------------------------------------------------
    MoeParams mp = moeParamsFor(p, B);
    MoeBuild mb = buildMoeLayer(g, mp, trace, nullptr, &oproj,
                                rearm ? &rearm->moe : nullptr);

    // ---- store the layer output ----------------------------------------
    g.add<LinearOffChipStoreOp>("layer.store", mb.out,
                                uint64_t{1} << 44);
}

void
rearmDecoderLayer(Graph& g, const DecoderRearmHandles& h,
                  const DecoderParams& p, const IterationSpec& spec)
{
    const auto B = static_cast<int64_t>(spec.kvLens.size());
    STEP_ASSERT(h.valid && h.key == decoderStructKey(p, B),
                "rearmDecoderLayer structural key mismatch: recycle and "
                "rebuild instead");
    STEP_ASSERT(static_cast<int64_t>(spec.trace.perToken.size()) == B,
                "trace/kv batch mismatch");
    g.rearm(iterationSimConfig(B));

    std::vector<Token> in_toks = rowStreamTokens(B, p.cfg.hidden);
    RearmSpec s;
    s.tokens = &in_toks;
    h.layerIn->rearm(s);

    for (const auto& [op, div] : h.denseBwOps) {
        RearmSpec bs;
        bs.computeBw = p.computeBwPerMatmul / div;
        op->rearm(bs);
    }
    rearmAttentionLayer(h.attn, attnParamsFor(p, B), spec.kvLens);
    rearmMoeLayer(h.moe, moeParamsFor(p, B), spec.trace);
}

namespace {

/** Verify a freshly built iteration graph; fatal on error findings. */
void
verifyIterationGraph(const Graph& g, const verify::VerifyOptions& opts)
{
    verify::VerifyReport report = g.verify(opts);
    if (report.errors() > 0)
        stepFatal("decoder iteration graph failed static verification:\n"
                  << report.toText());
}

} // namespace

SimResult
runDecoderIteration(const DecoderParams& p, const IterationSpec& spec,
                    dam::Scheduler* sched, Graph* reuse,
                    DecoderRearmHandles* rearm,
                    const verify::VerifyOptions* vopts)
{
    const auto B = static_cast<int64_t>(spec.kvLens.size());
    STEP_ASSERT(B > 0, "decoder iteration over an empty batch");
    SimConfig sc = iterationSimConfig(B);
    if (reuse) {
        if (rearm) {
            DecoderStructKey key = decoderStructKey(p, B);
            if (rearm->valid && rearm->key == key) {
                // Fast path: patch the recycled graph in place instead
                // of re-running ~190 operator constructors. The
                // structure is the verified one and its shapes hold for
                // every batch, so no re-verification.
                ++rearm->rearms;
                rearmDecoderLayer(*reuse, *rearm, p, spec);
            } else {
                // First build or structural change (layer config,
                // parallelization, tiling): recycle + rebuild and
                // refresh the handles.
                ++rearm->rebuilds;
                reuse->recycle(sc);
                buildDecoderLayer(*reuse, p, spec.trace, spec.kvLens,
                                  rearm);
                rearm->key = key;
                rearm->valid = true;
                if (vopts)
                    verifyIterationGraph(*reuse, *vopts);
            }
        } else {
            reuse->recycle(sc);
            buildDecoderLayer(*reuse, p, spec.trace, spec.kvLens);
            if (vopts)
                verifyIterationGraph(*reuse, *vopts);
        }
        if (sched)
            return reuse->run(*sched);
        return reuse->run();
    }
    Graph g(sc);
    buildDecoderLayer(g, p, spec.trace, spec.kvLens);
    if (vopts)
        verifyIterationGraph(g, *vopts);
    if (sched)
        return g.run(*sched);
    return g.run();
}

EndToEndResult
runEndToEnd(const DecoderParams& p, int64_t layers, uint64_t trace_seed)
{
    EndToEndResult agg;
    dam::Scheduler sched;
    for (int64_t l = 0; l < layers; ++l) {
        Rng rng(trace_seed * 1000003 + static_cast<uint64_t>(l));
        IterationSpec spec;
        spec.trace = generateExpertTrace(rng, p.batch, p.cfg.numExperts,
                                         p.cfg.topK);
        spec.kvLens = sampleKvBatch(trace_seed + static_cast<uint64_t>(l),
                                    p.batch, KvVarClass::Med);
        SimResult r = runDecoderIteration(p, spec, &sched);

        agg.cycles += r.cycles;
        agg.offChipBytes += r.offChipBytes;
        agg.totalFlops += r.totalFlops;
        agg.onChipPeakBytes = std::max(agg.onChipPeakBytes,
                                       r.onChipPeakBytes);
        agg.allocatedComputeBw = std::max(agg.allocatedComputeBw,
                                          r.allocatedComputeBw);
    }
    return agg;
}

} // namespace step
