#include "workloads/attention.hh"

#include <cmath>

#include "ops/higher_order.hh"
#include "ops/offchip.hh"
#include "ops/route.hh"
#include "ops/shape_ops.hh"
#include "ops/source_sink.hh"
#include "support/error.hh"

namespace step {

namespace {

std::string
nm(const std::string& base, const std::string& suffix)
{
    return base + "." + suffix;
}

/** Per-request base tile offsets into the packed KV layout. */
std::vector<int64_t>
kvBaseTiles(const std::vector<int64_t>& kv_lens, int64_t Tk,
            int64_t* tot_tiles)
{
    std::vector<int64_t> base_tile(kv_lens.size());
    int64_t tot = 0;
    for (size_t r = 0; r < kv_lens.size(); ++r) {
        base_tile[r] = tot;
        tot += (kv_lens[r] + Tk - 1) / Tk;
    }
    *tot_tiles = tot;
    return base_tile;
}

Tile
metaTile(const std::vector<int64_t>& kv_lens,
         const std::vector<int64_t>& base_tile, int64_t Tk, int64_t r)
{
    int64_t n_tiles = (kv_lens[static_cast<size_t>(r)] + Tk - 1) / Tk;
    return Tile::withData(
        1, 2,
        {static_cast<float>(n_tiles),
         static_cast<float>(base_tile[static_cast<size_t>(r)])});
}

/** Meta stream tokens for the ext_q request path ([B] of [1,2]). */
std::vector<Token>
attnMetaTokens(const std::vector<int64_t>& kv_lens,
               const std::vector<int64_t>& base_tile, int64_t Tk)
{
    std::vector<Token> toks;
    for (size_t r = 0; r < kv_lens.size(); ++r) {
        toks.push_back(Token::data(metaTile(kv_lens, base_tile, Tk,
                                            static_cast<int64_t>(r))));
    }
    toks.push_back(Token::done());
    return toks;
}

/** Static-assignment selector tokens ([B] one-hot). */
std::vector<Token>
assignSelTokens(const std::vector<uint32_t>& assign)
{
    std::vector<Token> toks;
    toks.reserve(assign.size() + 1);
    for (uint32_t a : assign)
        toks.push_back(Token::data(Selector::oneHot(a)));
    toks.push_back(Token::done());
    return toks;
}

/** Depth of the dynamic strategy's completion channels: they scale
 *  with the batch, so build and rearm size them here. */
size_t
completionCapacity(int64_t batch)
{
    return static_cast<size_t>(batch) + 16;
}

/** Shape-only K/V tensor pair for the current KV layout. */
void
kvShapeTensors(int64_t tot_tiles, int64_t Tk, int64_t d, OffChipTensor* kt,
               OffChipTensor* vt)
{
    *kt = OffChipTensor::shapeOnly(0, tot_tiles * Tk, d, Tk, d);
    uint64_t kbytes = static_cast<uint64_t>(tot_tiles * Tk * d * 2);
    *vt = OffChipTensor::shapeOnly((kbytes + 4095u) & ~uint64_t{4095},
                                   tot_tiles * Tk, d, Tk, d);
}

/** Standalone (q, meta) request stream ([B,1] of tuples; q rows are
 *  shape-only when @p qs is null). */
std::vector<Token>
attnReqTokens(const std::vector<int64_t>& kv_lens,
              const std::vector<int64_t>& base_tile, int64_t Tk, int64_t d,
              const std::vector<std::vector<float>>* qs)
{
    std::vector<Token> toks;
    for (size_t r = 0; r < kv_lens.size(); ++r) {
        Tile q = qs ? Tile::withData(1, d, (*qs)[r]) : Tile(1, d);
        toks.push_back(Token::data(Value::tuple(
            {std::move(q), metaTile(kv_lens, base_tile, Tk,
                                    static_cast<int64_t>(r))})));
        toks.push_back(Token::stop(1));
    }
    toks.push_back(Token::done());
    return toks;
}

} // namespace

std::vector<uint32_t>
staticAssignment(const AttnParams& p)
{
    if (p.staticAssign)
        return *p.staticAssign;
    std::vector<uint32_t> assign;
    for (int64_t t = 0; t < p.batch; ++t) {
        if (p.strategy == ParStrategy::StaticCoarse) {
            assign.push_back(static_cast<uint32_t>(
                std::min(t / p.coarseBlock, p.regions - 1)));
        } else {
            assign.push_back(static_cast<uint32_t>(t % p.regions));
        }
    }
    return assign;
}

AttnBuild
buildAttentionLayer(Graph& g, const AttnParams& p,
                    const std::vector<int64_t>& kv_lens,
                    const std::vector<std::vector<float>>* qs,
                    const std::vector<std::vector<float>>* ks,
                    const std::vector<std::vector<float>>* vs,
                    const StreamPort* ext_q, AttnRearmHandles* rearm)
{
    const auto B = static_cast<int64_t>(kv_lens.size());
    const int64_t d = p.cfg.numKvHeads * p.cfg.headDim;
    const int64_t Tk = p.kvTileRows;
    const auto P = static_cast<size_t>(p.regions);
    STEP_ASSERT(!p.functional || (qs && ks && vs),
                "functional mode needs q/k/v payloads");
    STEP_ASSERT(!rearm || ext_q, "rearm handles need an external q stream");

    // ---- KV tensors laid out per request ----------------------------
    int64_t tot_tiles = 0;
    std::vector<int64_t> base_tile = kvBaseTiles(kv_lens, Tk, &tot_tiles);
    if (p.functional) {
        for (int64_t len : kv_lens) {
            STEP_ASSERT(len % Tk == 0,
                        "functional mode needs KV lengths divisible by "
                        "the KV tile");
        }
    }
    // Same layout on both paths: the rearm path re-derives these via
    // the same helper, so build and rearm can never drift.
    OffChipTensor kt;
    OffChipTensor vt;
    kvShapeTensors(tot_tiles, Tk, d, &kt, &vt);
    if (p.functional) {
        auto fill = [&](OffChipTensor& t,
                        const std::vector<std::vector<float>>* rows) {
            std::vector<float> payload(
                static_cast<size_t>(tot_tiles * Tk * d), 0.0f);
            for (int64_t r = 0; r < B; ++r) {
                const auto& mat = (*rows)[static_cast<size_t>(r)];
                int64_t off = base_tile[static_cast<size_t>(r)] * Tk * d;
                std::copy(mat.begin(), mat.end(),
                          payload.begin() + static_cast<long>(off));
            }
            t = OffChipTensor::fromData(t.baseAddr, tot_tiles * Tk, d, Tk,
                                        d, std::move(payload));
        };
        fill(kt, ks);
        fill(vt, vs);
    }

    // ---- request stream [B,1] of (q, meta) tuples --------------------
    DataType req_dt = DataType::tuple(
        {DataType::tile(1, d), DataType::tile(1, 2)});
    StreamPort req_port;
    if (ext_q) {
        // q rows arrive from the previous block; zip with a meta stream
        // to form the (q, meta) request tuples.
        auto& meta_src = g.add<SourceOp>(
            "attn.meta", attnMetaTokens(kv_lens, base_tile, Tk),
            StreamShape({batchDim()}), DataType::tile(1, 2));
        if (rearm)
            rearm->meta = &meta_src;
        auto& qflat = g.add<FlattenOp>("attn.qflat", *ext_q, 0, 1);
        auto& z = g.add<ZipOp>(
            "attn.reqzip",
            std::vector<StreamPort>{qflat.out(), meta_src.out()});
        auto& rp = g.add<RepeatOp>("attn.reqchunk", z.out(), 1);
        req_port = rp.out();
    } else {
        auto& req_src = g.add<SourceOp>(
            "attn.req",
            attnReqTokens(kv_lens, base_tile, Tk, d,
                          p.functional ? qs : nullptr),
            StreamShape({batchDim(), Dim::fixed(1)}), req_dt);
        req_port = req_src.out();
    }

    // ---- selector streams per strategy --------------------------------
    StreamPort part_sel;
    StreamPort gather_sel;

    const bool dynamic = p.strategy == ParStrategy::Dynamic &&
                         !p.staticAssign;
    if (!dynamic) {
        auto assign = staticAssignment(p);
        auto mk_sel = [&](const std::string& name) -> SourceOp& {
            return g.add<SourceOp>(name, assignSelTokens(assign),
                                   StreamShape({batchDim()}),
                                   DataType::selector(p.regions));
        };
        SourceOp& sa = mk_sel("attn.selA");
        SourceOp& sb = mk_sel("attn.selB");
        if (rearm) {
            rearm->selA = &sa;
            rearm->selB = &sb;
        }
        part_sel = sa.out();
        gather_sel = sb.out();
    }

    // For the dynamic strategy the partition selector comes from the
    // dispatcher, which consumes region completions (Figure 16). The
    // regions don't exist yet, so the completion channels are created
    // up front and each region later relays its finish signals into
    // them (RelayOp).
    std::vector<dam::Channel*> completion_chans;
    if (dynamic) {
        std::vector<StreamPort> comp_ports;
        for (size_t r = 0; r < P; ++r) {
            auto& ch = g.makeChannel("attn.comp" + std::to_string(r),
                                     completionCapacity(B));
            completion_chans.push_back(&ch);
            if (rearm)
                rearm->compChans.push_back(&ch);
            comp_ports.push_back(StreamPort{
                &ch, StreamShape({Dim::ragged()}), DataType::tile(1, d)});
        }
        auto& em = g.add<EagerMergeOp>("attn.compMerge", comp_ports, 0);
        g.add<SinkOp>("attn.compSink", em.out());
        auto& disp = g.add<DispatcherOp>("attn.disp", em.selOut(), P,
                                         static_cast<uint64_t>(B),
                                         batchDim());
        if (rearm)
            rearm->disp = &disp;
        auto& selbc = g.add<BroadcastOp>("attn.selbc", disp.out(), 2);
        part_sel = selbc.out(0);
        gather_sel = selbc.out(1);
    }

    auto& part = g.add<PartitionOp>("attn.part", req_port, part_sel,
                                    1, P);

    // ---- per-region attention pipeline -------------------------------
    std::vector<StreamPort> region_outs;
    for (size_t r = 0; r < P; ++r) {
        std::string name = "attn.r" + std::to_string(r);
        auto& flat = g.add<FlattenOp>(nm(name, "flat"), part.out(r), 0, 1);
        auto& bc = g.add<BroadcastOp>(nm(name, "bc"), flat.out(), 2);

        // meta -> KV tile address stream.
        FlatMapFn addr_fn = [](const Value& v, std::vector<Token>& out,
                               int64_t&) {
            const auto& tup = v.tupleElems();
            const Tile& meta = tup[1].tile();
            auto n = static_cast<int64_t>(meta.at(0, 0));
            auto base = static_cast<int64_t>(meta.at(0, 1));
            for (int64_t i = 0; i < n; ++i) {
                out.push_back(Token::data(Tile::withData(
                    1, 1, {static_cast<float>(base + i)}, 1)));
            }
        };
        auto& addrs = g.add<FlatMapOp>(nm(name, "addr"), bc.out(0),
                                       addr_fn,
                                       StreamShape({Dim::ragged()}),
                                       DataType::tile(1, 1, 1));
        auto& abc = g.add<BroadcastOp>(nm(name, "abc"), addrs.out(), 3);
        auto& kload = g.add<RandomOffChipLoadOp>(nm(name, "k"), abc.out(0),
                                                 kt, kt.tileBytes());
        auto& vload = g.add<RandomOffChipLoadOp>(nm(name, "v"), abc.out(1),
                                                 vt, vt.tileBytes());
        if (rearm) {
            rearm->kLoads.push_back(&kload);
            rearm->vLoads.push_back(&vload);
        }

        // q stream, expanded over the request's KV tiles.
        MapFn get_q = [](const std::vector<Value>& a, int64_t&) -> Value {
            return a[0].tupleElems()[0];
        };
        auto& q = g.add<MapOp>(nm(name, "q"),
                               std::vector<StreamPort>{bc.out(1)}, get_q,
                               0, DataType::tile(1, d));
        auto& qr = g.add<RepeatOp>(nm(name, "qrep"), q.out(), 1);
        auto& qe = g.add<ExpandOp>(nm(name, "qexp"), qr.out(), abc.out(2),
                                   1);
        auto& zip = g.add<ZipOp>(
            nm(name, "zip"),
            std::vector<StreamPort>{qe.out(), kload.out(), vload.out()});
        int64_t gqa = std::max<int64_t>(
            1, p.cfg.numQHeads / std::max<int64_t>(1, p.cfg.numKvHeads));
        auto& att = g.add<AccumOp>(
            nm(name, "attn"), zip.out(), 1, fns::attnInit(d),
            fns::attnUpdate(gqa), p.computeBw,
            DataType::tuple({DataType::tile(1, 1), DataType::tile(1, 1),
                             DataType::tile(1, d)}));
        if (rearm)
            rearm->bwOps.emplace_back(&att, 1);
        auto& fin = g.add<MapOp>(nm(name, "fin"),
                                 std::vector<StreamPort>{att.out()},
                                 fns::attnFinish(), 256,
                                 DataType::tile(1, d));
        StreamPort out_rows = fin.out();
        if (dynamic) {
            auto& fbc = g.add<BroadcastOp>(nm(name, "fbc"), out_rows, 2);
            // Completion signal into the pre-created channel feeding the
            // dispatcher's EagerMerge.
            g.add<RelayOp>(nm(name, "comp"), fbc.out(1),
                           completion_chans[r]);
            out_rows = fbc.out(0);
        }
        auto& chunk = g.add<RepeatOp>(nm(name, "chunk"), out_rows, 1);
        region_outs.push_back(chunk.out());
    }

    auto& re = g.add<ReassembleOp>("attn.gather", region_outs, gather_sel,
                                   1);
    return AttnBuild{re.out()};
}

void
rearmAttentionLayer(const AttnRearmHandles& h, const AttnParams& p,
                    const std::vector<int64_t>& kv_lens)
{
    STEP_ASSERT(!p.functional,
                "rearm supports timing mode only (functional payloads "
                "require a rebuild)");
    const auto B = static_cast<int64_t>(kv_lens.size());
    const int64_t d = p.cfg.numKvHeads * p.cfg.headDim;
    const int64_t Tk = p.kvTileRows;

    int64_t tot_tiles = 0;
    std::vector<int64_t> base_tile = kvBaseTiles(kv_lens, Tk, &tot_tiles);
    OffChipTensor kt;
    OffChipTensor vt;
    kvShapeTensors(tot_tiles, Tk, d, &kt, &vt);
    for (RandomOffChipLoadOp* op : h.kLoads)
        op->setTensor(kt);
    for (RandomOffChipLoadOp* op : h.vLoads)
        op->setTensor(vt);

    if (h.meta)
        h.meta->setTokens(attnMetaTokens(kv_lens, base_tile, Tk));
    if (h.selA || h.selB) {
        auto assign = staticAssignment(p);
        if (h.selA)
            h.selA->setTokens(assignSelTokens(assign));
        if (h.selB)
            h.selB->setTokens(assignSelTokens(assign));
    }
    for (const auto& [op, div] : h.bwOps)
        op->setComputeBw(p.computeBw / div);
    for (dam::Channel* ch : h.compChans)
        ch->rearm(completionCapacity(B));
    if (h.disp)
        h.disp->setTotal(static_cast<uint64_t>(B));
}

std::vector<std::vector<float>>
referenceAttention(const AttnParams& p,
                   const std::vector<int64_t>& kv_lens,
                   const std::vector<std::vector<float>>& qs,
                   const std::vector<std::vector<float>>& ks,
                   const std::vector<std::vector<float>>& vs)
{
    const int64_t d = p.cfg.numKvHeads * p.cfg.headDim;
    std::vector<std::vector<float>> out;
    for (size_t r = 0; r < kv_lens.size(); ++r) {
        int64_t L = kv_lens[r];
        const auto& q = qs[r];
        std::vector<float> scores(static_cast<size_t>(L));
        float m = -1e30f;
        float scale = 1.0f / std::sqrt(static_cast<float>(d));
        for (int64_t t = 0; t < L; ++t) {
            float s = 0.0f;
            for (int64_t j = 0; j < d; ++j)
                s += q[static_cast<size_t>(j)] *
                     ks[r][static_cast<size_t>(t * d + j)];
            s *= scale;
            scores[static_cast<size_t>(t)] = s;
            m = std::max(m, s);
        }
        float l = 0.0f;
        for (auto& s : scores) {
            s = std::exp(s - m);
            l += s;
        }
        std::vector<float> o(static_cast<size_t>(d), 0.0f);
        for (int64_t t = 0; t < L; ++t)
            for (int64_t j = 0; j < d; ++j)
                o[static_cast<size_t>(j)] +=
                    scores[static_cast<size_t>(t)] *
                    vs[r][static_cast<size_t>(t * d + j)];
        for (auto& x : o)
            x /= l;
        out.push_back(std::move(o));
    }
    return out;
}

} // namespace step
