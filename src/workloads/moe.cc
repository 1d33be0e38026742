#include "workloads/moe.hh"

#include <cmath>

#include "ops/higher_order.hh"
#include "ops/offchip.hh"
#include "ops/route.hh"
#include "ops/shape_ops.hh"
#include "ops/source_sink.hh"
#include "support/error.hh"

namespace step {

namespace {

/** Weight-matrix kinds. */
constexpr int kW1 = 0; // gate [H, I]
constexpr int kW3 = 1; // up   [H, I]
constexpr int kW2 = 2; // down [I, H]

/**
 * Produces one column-tile weight stream aligned with a trigger stream
 * of the packed-input shape; index is the matrix kind.
 */
using WeightLoader = std::function<StreamPort(
    const std::string& name, StreamPort trigger, int matrix)>;

struct PipelineCtx
{
    Graph& g;
    const MoeParams& p;
    int64_t matmulBw;
    /** When set, ops billed against the region bandwidth are recorded
     *  as (op, divisor) pairs for the rearm path. */
    std::vector<std::pair<OpBase*, int64_t>>* bwOps = nullptr;

    void
    record(OpBase& op, int64_t divisor)
    {
        if (bwOps)
            bwOps->emplace_back(&op, divisor);
    }
};

/** rows(name): suffix helper. */
std::string
nm(const std::string& base, const std::string& suffix)
{
    return base + "." + suffix;
}

/**
 * One matmul path: packed [.., rp] tiles [T?, K] x column-tiled weight
 * [K, N] -> [.., rp] tiles [T?, N]. The weight stream comes from the
 * loader (rank rp+1, already flattened to [.., nCols]).
 */
StreamPort
matmulPath(PipelineCtx& ctx, const std::string& name, StreamPort packed,
           StreamPort weights, int64_t n_cols, int64_t out_cols)
{
    auto& rep = ctx.g.add<RepeatOp>(nm(name, "rep"), packed, n_cols);
    auto& mm = ctx.g.add<MapOp>(
        nm(name, "mm"), std::vector<StreamPort>{rep.out(), weights},
        fns::matmul(), ctx.matmulBw,
        DataType::tile(packed.dtype.tileRows(),
                       Dim::fixed(ctx.p.weightTileCols)));
    mm.setMatmulMemSpec(1);
    ctx.record(mm, 1);
    auto& packcol = ctx.g.add<AccumOp>(
        nm(name, "packcol"), mm.out(), 1, fns::retileColInit(0),
        fns::retileColUpdate(), ctx.matmulBw / 4,
        DataType::tile(packed.dtype.tileRows(), Dim::fixed(out_cols)));
    ctx.record(packcol, 4);
    return packcol.out();
}

/** One expert's rows packed into tiles, plus its pad stream (static
 *  tiling only). */
struct PackedRows
{
    StreamPort packed;
    StreamPort pad;
};

/**
 * Per-expert pack stage shared by the dedicated and time-multiplexed
 * layouts: flatten the expert's partition output to a row stream, then
 * pack rows into tiles (Reshape+pad for static tiling, Promote for
 * dynamic tiling, then the row Accum). The Accum runs at a quarter of
 * the per-matmul bandwidth; on the dedicated layout that equals the
 * region bandwidth, so one rearm list serves both layouts.
 */
PackedRows
packExpertRows(Graph& g, const MoeParams& p, const std::string& name,
               StreamPort part_out, MoeRearmHandles* rearm)
{
    const int64_t H = p.cfg.hidden;
    const bool static_tiling = p.tiling == Tiling::Static;
    auto& rows = g.add<FlattenOp>(nm(name, "rows"), part_out, 0, 1);
    PackedRows out;
    StreamPort grouped;
    if (static_tiling) {
        Value zero_row = p.functional
            ? Value(Tile::zeros(1, H))
            : Value(Tile(1, H));
        auto& rs = g.add<ReshapeOp>(nm(name, "reshape"), rows.out(), 0,
                                    p.tileRows,
                                    std::optional<Value>(zero_row));
        grouped = rs.out();
        out.pad = rs.padOut();
    } else {
        grouped = g.add<PromoteOp>(nm(name, "promote"), rows.out()).out();
    }
    auto& pk = g.add<AccumOp>(
        nm(name, "packrow"), grouped, 1, fns::retileRowInit(H),
        fns::retileRowUpdate(), p.computeBwPerMatmul / 4,
        static_tiling ? DataType::tile(p.tileRows, H)
                      : DataType::tile(Dim::ragged(), Dim::fixed(H)));
    if (rearm)
        rearm->baseBwOps.emplace_back(&pk, 4);
    out.packed = pk.out();
    return out;
}

/**
 * Full SwiGLU expert pipeline over one expert's packed tiles: (W1, W3)
 * matmuls -> swiglu -> W2 matmul -> unpack+filter -> flat row stream
 * of [1,H] outputs (rank 1).
 */
StreamPort
expertPipeline(PipelineCtx& ctx, const std::string& name,
               const PackedRows& in, const WeightLoader& loader)
{
    Graph& g = ctx.g;
    const MoeParams& p = ctx.p;
    const int64_t H = p.cfg.hidden;
    const int64_t I = p.cfg.moeIntermediate;
    const int64_t Tc = p.weightTileCols;
    const int64_t n_cols_up = I / Tc;
    const int64_t n_cols_down = H / Tc;
    const StreamPort& packed = in.packed;

    // ---- gate / up projections + swiglu ----------------------------
    auto& pbc = g.add<BroadcastOp>(nm(name, "packed_bc"), packed, 4);
    StreamPort w1 = loader(nm(name, "w1"), pbc.out(2), kW1);
    StreamPort w3 = loader(nm(name, "w3"), pbc.out(3), kW3);
    StreamPort gate = matmulPath(ctx, nm(name, "gate"), pbc.out(0), w1,
                                 n_cols_up, I);
    StreamPort up = matmulPath(ctx, nm(name, "up"), pbc.out(1), w3,
                               n_cols_up, I);
    auto& act = g.add<MapOp>(
        nm(name, "swiglu"), std::vector<StreamPort>{gate, up},
        fns::swigluFn(), 256,
        DataType::tile(packed.dtype.tileRows(), Dim::fixed(I)));

    // ---- down projection -------------------------------------------
    auto& abc = g.add<BroadcastOp>(nm(name, "act_bc"), act.out(), 2);
    StreamPort w2 = loader(nm(name, "w2"), abc.out(1), kW2);
    StreamPort down = matmulPath(ctx, nm(name, "down"), abc.out(0), w2,
                                 n_cols_down, H);

    // ---- unpack back to rows ---------------------------------------
    auto& fm = g.add<FlatMapOp>(nm(name, "unpack"), down,
                                fns::retileStreamify(1),
                                StreamShape({Dim::ragged()}),
                                DataType::tile(1, H));
    StreamPort out_rows = fm.out();
    if (p.tiling == Tiling::Static) {
        auto& fi = g.add<FilterOp>(nm(name, "dropPad"), out_rows, in.pad);
        out_rows = fi.out();
    }
    if (out_rows.rank() > 1) {
        auto& fl = g.add<FlattenOp>(nm(name, "flatrows"), out_rows, 0,
                                    out_rows.rank() - 1);
        out_rows = fl.out();
    }
    return out_rows;
}

/** Bump allocator for distinct off-chip address ranges. */
struct AddrSpace
{
    uint64_t cursor = 0;

    uint64_t
    take(int64_t bytes)
    {
        uint64_t base = cursor;
        cursor += static_cast<uint64_t>(bytes);
        // Keep ranges channel-aligned.
        cursor = (cursor + 4095u) & ~uint64_t{4095};
        return base;
    }
};

struct MatrixGeom
{
    int64_t rows;   // K
    int64_t cols;   // N
};

MatrixGeom
matrixGeom(const MoeParams& p, int matrix)
{
    if (matrix == kW2)
        return {p.cfg.moeIntermediate, p.cfg.hidden};
    return {p.cfg.hidden, p.cfg.moeIntermediate};
}

/** Router selector stream tokens ([B] multi-hot; build and rearm must
 *  agree exactly). */
std::vector<Token>
moeSelTokens(const ExpertTrace& trace)
{
    std::vector<Token> toks;
    toks.reserve(trace.perToken.size() + 1);
    for (const auto& picks : trace.perToken)
        toks.push_back(Token::data(Selector(picks)));
    toks.push_back(Token::done());
    return toks;
}

} // namespace

std::vector<Token>
rowStreamTokens(int64_t batch, int64_t hidden,
                const std::vector<std::vector<float>>* rows)
{
    std::vector<Token> toks;
    StopCoalescer coal;
    for (int64_t t = 0; t < batch; ++t) {
        Tile row = rows
            ? Tile::withData(1, hidden, (*rows)[static_cast<size_t>(t)])
            : Tile(1, hidden);
        for (auto& tk : coal.onData(Value(std::move(row))))
            toks.push_back(tk);
        for (auto& tk : coal.onStop(1))
            toks.push_back(tk);
    }
    for (auto& tk : coal.onDone())
        toks.push_back(tk);
    return toks;
}

int64_t
moeRegionBw(const MoeParams& p)
{
    const int64_t E = p.cfg.numExperts;
    const int64_t regions = p.parallelRegions > 0 ? p.parallelRegions : E;
    STEP_ASSERT(regions > 0 && E % regions == 0,
                "experts must divide evenly into " << regions
                << " regions");
    const int64_t experts_per_region = E / regions;
    if (experts_per_region <= 1)
        return p.computeBwPerMatmul;
    auto factor = static_cast<int64_t>(std::ceil(
        p.regionBwBeta *
        std::sqrt(static_cast<double>(experts_per_region))));
    return p.computeBwPerMatmul * std::min(experts_per_region, factor);
}

std::vector<float>
moeWeightMatrix(uint64_t seed, int64_t expert, int matrix, int64_t rows,
                int64_t cols)
{
    Rng rng(seed * 7919 + static_cast<uint64_t>(expert) * 31 +
            static_cast<uint64_t>(matrix) + 1);
    std::vector<float> w(static_cast<size_t>(rows * cols));
    for (auto& x : w)
        x = static_cast<float>(rng.uniform() * 0.2 - 0.1);
    return w;
}

MoeBuild
buildMoeLayer(Graph& g, const MoeParams& p, const ExpertTrace& trace,
              const std::vector<std::vector<float>>* token_rows,
              const StreamPort* ext_in, MoeRearmHandles* rearm)
{
    const int64_t H = p.cfg.hidden;
    const int64_t I = p.cfg.moeIntermediate;
    const int64_t E = p.cfg.numExperts;
    const int64_t Tc = p.weightTileCols;
    const auto B = static_cast<int64_t>(trace.perToken.size());
    STEP_ASSERT(I % Tc == 0 && H % Tc == 0,
                "weight tile cols must divide I and H");
    STEP_ASSERT(!p.functional || token_rows,
                "functional mode needs input activations");
    STEP_ASSERT(!rearm || ext_in, "rearm handles need an external input");

    // ---- input token stream [B, 1] of [1,H] rows --------------------
    StreamPort in_port;
    if (ext_in) {
        in_port = *ext_in;
    } else {
        auto& in_src = g.add<SourceOp>(
            "moe.in", rowStreamTokens(B, H, token_rows),
            StreamShape({batchDim(), Dim::fixed(1)}),
            DataType::tile(1, H));
        in_port = in_src.out();
    }

    // ---- router selector streams ------------------------------------
    auto& selA = g.add<SourceOp>("moe.selA", moeSelTokens(trace),
                                 StreamShape({batchDim()}),
                                 DataType::selector(E));
    auto& selB = g.add<SourceOp>("moe.selB", moeSelTokens(trace),
                                 StreamShape({batchDim()}),
                                 DataType::selector(E));
    if (rearm) {
        rearm->selA = &selA;
        rearm->selB = &selB;
    }

    auto& part = g.add<PartitionOp>("moe.part", in_port, selA.out(),
                                    1, static_cast<size_t>(E));

    // ---- off-chip weights -------------------------------------------
    AddrSpace addr;
    auto make_tensor = [&](int64_t experts_spanned, int64_t e0,
                           int matrix) {
        MatrixGeom geo = matrixGeom(p, matrix);
        int64_t rows = geo.rows * experts_spanned;
        uint64_t base = addr.take(rows * geo.cols * 2);
        if (!p.functional) {
            return OffChipTensor::shapeOnly(base, rows, geo.cols,
                                            geo.rows, Tc);
        }
        std::vector<float> data;
        data.reserve(static_cast<size_t>(rows * geo.cols));
        for (int64_t e = e0; e < e0 + experts_spanned; ++e) {
            auto w = moeWeightMatrix(p.seed, e, matrix, geo.rows,
                                     geo.cols);
            data.insert(data.end(), w.begin(), w.end());
        }
        return OffChipTensor::fromData(base, rows, geo.cols, geo.rows, Tc,
                                       std::move(data));
    };

    const int64_t regions = p.parallelRegions > 0 ? p.parallelRegions : E;
    const int64_t experts_per_region = E / regions;
    STEP_ASSERT(E % regions == 0, "experts must divide evenly into "
                << regions << " regions");
    const bool timemux = experts_per_region > 1;
    const int64_t region_bw = moeRegionBw(p);

    std::vector<StreamPort> expert_rows(static_cast<size_t>(E));

    if (!timemux) {
        // One dedicated subgraph per expert (Figure 7).
        for (int64_t e = 0; e < E; ++e) {
            std::string name = "moe.e" + std::to_string(e);
            OffChipTensor w1t = make_tensor(1, e, kW1);
            OffChipTensor w3t = make_tensor(1, e, kW3);
            OffChipTensor w2t = make_tensor(1, e, kW2);
            PipelineCtx ctx{g, p, region_bw,
                            rearm ? &rearm->regionBwOps : nullptr};
            WeightLoader loader =
                [&, w1t, w3t, w2t](const std::string& lname,
                                   StreamPort trigger,
                                   int matrix) -> StreamPort {
                const OffChipTensor& t = matrix == kW1 ? w1t
                                       : matrix == kW3 ? w3t : w2t;
                MatrixGeom geo = matrixGeom(p, matrix);
                auto& ld = g.add<LinearOffChipLoadOp>(
                    nm(lname, "load"), trigger, t,
                    std::array<int64_t, 2>{geo.cols / Tc, 1},
                    std::array<int64_t, 2>{1, geo.cols / Tc});
                auto& fl = g.add<FlattenOp>(nm(lname, "flat"), ld.out(),
                                            0, 1);
                return fl.out();
            };
            PackedRows packed = packExpertRows(
                g, p, name, part.out(static_cast<size_t>(e)), rearm);
            StreamPort out_rows = expertPipeline(ctx, name, packed, loader);
            auto& chunked = g.add<RepeatOp>(nm(name, "chunk"), out_rows,
                                            1);
            expert_rows[static_cast<size_t>(e)] = chunked.out();
        }
    } else {
        // Configuration time-multiplexing (Figure 11): each expert keeps
        // its own cheap pack stage (Partition -> Accum, as in the
        // figure); the packed tiles of all member experts eagerly merge
        // into one shared compute region, whose weights are fetched
        // data-dependently per tile via RandomOffChipLoad.
        OffChipTensor w1all = make_tensor(E, 0, kW1);
        OffChipTensor w3all = make_tensor(E, 0, kW3);
        OffChipTensor w2all = make_tensor(E, 0, kW2);
        for (int64_t rgn = 0; rgn < regions; ++rgn) {
            std::string name = "moe.r" + std::to_string(rgn);
            int64_t e0 = rgn * experts_per_region;
            PipelineCtx ctx{g, p, region_bw,
                            rearm ? &rearm->regionBwOps : nullptr};

            // Per-expert packing into tiles.
            std::vector<StreamPort> packed_streams;
            std::vector<StreamPort> pad_streams;
            for (int64_t k = 0; k < experts_per_region; ++k) {
                PackedRows pr = packExpertRows(
                    g, p, nm(name, "e" + std::to_string(k)),
                    part.out(static_cast<size_t>(e0 + k)), rearm);
                packed_streams.push_back(pr.packed);
                pad_streams.push_back(pr.pad);
            }

            // Merge packed tiles by availability; the selector stream
            // carries each tile's origin expert.
            auto& em = g.add<EagerMergeOp>(nm(name, "merge"),
                                           packed_streams, 0);
            auto& selbc = g.add<BroadcastOp>(nm(name, "selbc"),
                                             em.selOut(), 2);
            MapFn to_global = [e0](const std::vector<Value>& a,
                                   int64_t&) -> Value {
                return Selector::oneHot(
                    a[0].selector().indices[0] +
                    static_cast<uint32_t>(e0));
            };
            auto& gids = g.add<MapOp>(
                nm(name, "gid"), std::vector<StreamPort>{selbc.out(0)},
                to_global, 0, DataType::selector(E));
            auto& gidbc = g.add<BroadcastOp>(nm(name, "gidbc"),
                                             gids.out(), 3);

            // Shared expert subgraph over the merged tile stream.
            auto& pbc = g.add<BroadcastOp>(nm(name, "pbc"), em.out(), 2);
            auto random_loader = [&](const std::string& lname,
                                     StreamPort ids,
                                     int matrix) -> StreamPort {
                const OffChipTensor& t = matrix == kW1 ? w1all
                                       : matrix == kW3 ? w3all : w2all;
                MatrixGeom geo = matrixGeom(p, matrix);
                auto& ld = g.add<RandomOffChipLoadOp>(
                    nm(lname, "load"), ids, t, geo.rows * geo.cols * 2,
                    std::array<int64_t, 2>{1, geo.cols / Tc}, true);
                auto& fl = g.add<FlattenOp>(nm(lname, "flat"), ld.out(),
                                            0, 1);
                return fl.out();
            };
            StreamPort w1s = random_loader(nm(name, "w1"), gidbc.out(0),
                                           kW1);
            StreamPort w3s = random_loader(nm(name, "w3"), gidbc.out(1),
                                           kW3);
            StreamPort gate = matmulPath(ctx, nm(name, "gate"),
                                         pbc.out(0), w1s, I / Tc, I);
            StreamPort up = matmulPath(ctx, nm(name, "up"), pbc.out(1),
                                       w3s, I / Tc, I);
            auto& act = g.add<MapOp>(
                nm(name, "swiglu"), std::vector<StreamPort>{gate, up},
                fns::swigluFn(), 256,
                DataType::tile(p.tiling == Tiling::Static
                                   ? Dim::fixed(p.tileRows)
                                   : Dim::ragged(),
                               Dim::fixed(I)));
            StreamPort w2s = random_loader(nm(name, "w2"), gidbc.out(2),
                                           kW2);
            StreamPort down = matmulPath(ctx, nm(name, "down"),
                                         act.out(), w2s, H / Tc, H);
            auto& fm = g.add<FlatMapOp>(nm(name, "unpack"), down,
                                        fns::retileStreamify(1),
                                        StreamShape({Dim::ragged()}),
                                        DataType::tile(1, H));

            // Route rows back per expert, then drop that expert's pads.
            auto& opart = g.add<PartitionOp>(
                nm(name, "opart"), fm.out(), selbc.out(1), 1,
                static_cast<size_t>(experts_per_region));
            for (int64_t k = 0; k < experts_per_region; ++k) {
                std::string en = nm(name, "oe" + std::to_string(k));
                auto& fl = g.add<FlattenOp>(
                    nm(en, "flat"), opart.out(static_cast<size_t>(k)), 0,
                    1);
                StreamPort out_rows = fl.out();
                if (p.tiling == Tiling::Static) {
                    auto& pfl = g.add<FlattenOp>(
                        nm(en, "padflat"),
                        pad_streams[static_cast<size_t>(k)], 0, 1);
                    auto& fi = g.add<FilterOp>(nm(en, "dropPad"),
                                               out_rows, pfl.out());
                    out_rows = fi.out();
                }
                auto& chunked = g.add<RepeatOp>(nm(en, "chunk"),
                                                out_rows, 1);
                expert_rows[static_cast<size_t>(e0 + k)] = chunked.out();
            }
        }
    }

    // ---- gather + combine -------------------------------------------
    auto& re = g.add<ReassembleOp>("moe.gather", expert_rows, selB.out(),
                                   1);
    auto& comb = g.add<AccumOp>(
        "moe.combine", re.out(), 2, fns::zeroInit(1, H), fns::addUpdate(),
        256, DataType::tile(1, H));
    return MoeBuild{comb.out()};
}

void
rearmMoeLayer(const MoeRearmHandles& h, const MoeParams& p,
              const ExpertTrace& trace)
{
    STEP_ASSERT(!p.functional,
                "rearm supports timing mode only (functional payloads "
                "require a rebuild)");
    RearmSpec s;
    if (h.selA) {
        std::vector<Token> toks = moeSelTokens(trace);
        s.tokens = &toks;
        h.selA->rearm(s);
    }
    if (h.selB) {
        std::vector<Token> toks = moeSelTokens(trace);
        s.tokens = &toks;
        h.selB->rearm(s);
    }

    const int64_t region_bw = moeRegionBw(p);
    for (const auto& [op, div] : h.regionBwOps) {
        RearmSpec bs;
        bs.computeBw = region_bw / div;
        op->rearm(bs);
    }
    for (const auto& [op, div] : h.baseBwOps) {
        RearmSpec bs;
        bs.computeBw = p.computeBwPerMatmul / div;
        op->rearm(bs);
    }
}

std::vector<std::vector<float>>
referenceMoe(const MoeParams& p, const ExpertTrace& trace,
             const std::vector<std::vector<float>>& tokens)
{
    const int64_t H = p.cfg.hidden;
    const int64_t I = p.cfg.moeIntermediate;
    std::vector<std::vector<float>> out(
        tokens.size(), std::vector<float>(static_cast<size_t>(H), 0.0f));
    for (size_t t = 0; t < tokens.size(); ++t) {
        Tile x = Tile::withData(1, H, tokens[t]);
        for (uint32_t e : trace.perToken[t]) {
            Tile w1 = Tile::withData(H, I,
                moeWeightMatrix(p.seed, e, kW1, H, I));
            Tile w3 = Tile::withData(H, I,
                moeWeightMatrix(p.seed, e, kW3, H, I));
            Tile w2 = Tile::withData(I, H,
                moeWeightMatrix(p.seed, e, kW2, I, H));
            Tile act = elemMul(silu(matmul(x, w1)), matmul(x, w3));
            Tile y = matmul(act, w2);
            for (int64_t d = 0; d < H; ++d)
                out[t][static_cast<size_t>(d)] += y.at(0, d);
        }
    }
    return out;
}

int64_t
moeUsefulFlops(const MoeParams& p, const ExpertTrace& trace)
{
    int64_t assignments = 0;
    for (const auto& tok : trace.perToken)
        assignments += static_cast<int64_t>(tok.size());
    int64_t per_row = 2 * p.cfg.hidden * p.cfg.moeIntermediate * 2 +
                      2 * p.cfg.moeIntermediate * p.cfg.hidden;
    return assignments * per_row;
}

int64_t
moeStaticWeightTraffic(const MoeParams& p, const ExpertTrace& trace,
                       int64_t tile)
{
    int64_t weight_bytes = 3 * p.cfg.hidden * p.cfg.moeIntermediate * 2;
    int64_t traffic = 0;
    for (int64_t c : trace.binCounts())
        traffic += ((c + tile - 1) / tile) * weight_bytes;
    return traffic;
}

} // namespace step
