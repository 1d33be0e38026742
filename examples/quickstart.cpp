/**
 * @file
 * Quickstart: the paper's simplified two-expert MoE walkthrough
 * (section 3.3, Figure 7 / Listing 1) built directly from public STeP
 * operators, run functionally, and checked against a plain dense
 * computation. Also demonstrates the symbolic metrics of section 4.2.
 *
 * Each expert is a single matrix multiplication; input rows route
 * dynamically to one of the two experts and gather back in order.
 */
#include <iostream>

#include "ops/higher_order.hh"
#include "ops/offchip.hh"
#include "ops/route.hh"
#include "ops/shape_ops.hh"
#include "ops/source_sink.hh"
#include "support/cli.hh"
#include "support/rng.hh"

using namespace step;

int
main(int argc, char** argv)
{
    Cli(argc, argv).parse(); // no flags: any argument exits 2
    const int64_t batch = 10;  // rows
    const int64_t hidden = 8;  // row width
    const int64_t inter = 8;   // expert output width
    const int64_t tile = 4;    // pack-to-tile chunk (Figure 7's "4")

    Rng rng(7);
    // Input rows and a data-dependent routing decision per row.
    std::vector<std::vector<float>> rows;
    std::vector<uint32_t> route;
    for (int64_t t = 0; t < batch; ++t) {
        std::vector<float> r;
        for (int64_t j = 0; j < hidden; ++j)
            r.push_back(static_cast<float>(rng.uniform() - 0.5));
        rows.push_back(std::move(r));
        route.push_back(static_cast<uint32_t>(rng.uniformInt(2)));
    }
    std::vector<float> w0(static_cast<size_t>(hidden * inter));
    std::vector<float> w1(static_cast<size_t>(hidden * inter));
    for (auto& x : w0)
        x = static_cast<float>(rng.uniform() - 0.5);
    for (auto& x : w1)
        x = static_cast<float>(rng.uniform() - 0.5);

    Graph g;

    // Input stream: [10, 1] of [1,8] row tiles (Figure 6's left edge).
    std::vector<Token> in_toks;
    for (const auto& r : rows) {
        in_toks.push_back(Token::data(Tile::withData(1, hidden, r)));
        in_toks.push_back(Token::stop(1));
    }
    in_toks.push_back(Token::done());
    auto& in = g.add<SourceOp>("in", in_toks,
                               StreamShape::fixed({batch, 1}),
                               DataType::tile(1, hidden));

    auto sel_toks = [&] {
        std::vector<Token> ts;
        for (uint32_t r : route)
            ts.push_back(Token::data(Selector::oneHot(r)));
        ts.push_back(Token::done());
        return ts;
    };
    auto& selA = g.add<SourceOp>("selA", sel_toks(),
                                 StreamShape::fixed({batch}),
                                 DataType::selector(2));
    auto& selB = g.add<SourceOp>("selB", sel_toks(),
                                 StreamShape::fixed({batch}),
                                 DataType::selector(2));

    // Route (Figure 7): one row chunk per selector.
    auto& part = g.add<PartitionOp>("partition", in.out(), selA.out(), 1,
                                    2);

    std::vector<StreamPort> expert_outs;
    for (uint32_t e = 0; e < 2; ++e) {
        std::string n = "expert" + std::to_string(e);
        // Pack to tile: [D_e,1] -> [D_e] -> [ceil(D_e/4), 4] (padded)
        // -> [ceil(D_e/4)] of [4,8] tiles.
        auto& flat = g.add<FlattenOp>(n + ".flatten", part.out(e), 0, 1);
        auto& rs = g.add<ReshapeOp>(
            n + ".reshape", flat.out(), 0, tile,
            std::optional<Value>(Tile::zeros(1, hidden)));
        auto& pack = g.add<AccumOp>(n + ".collect_rows", rs.out(), 1,
                                    fns::retileRowInit(hidden),
                                    fns::retileRowUpdate(), 64,
                                    DataType::tile(tile, hidden));
        auto& pbc = g.add<BroadcastOp>(n + ".bc", pack.out(), 2);

        // Load weight: the packed-tile stream is the reference stream,
        // so the weight streams exactly ceil(D_e/4) times (dynamic!).
        OffChipTensor wt = OffChipTensor::fromData(
            e == 0 ? 0x0 : 0x100000, hidden, inter, hidden, inter,
            e == 0 ? w0 : w1);
        auto& wload = g.add<LinearOffChipLoadOp>(
            n + ".weight_load", pbc.out(1), wt,
            std::array<int64_t, 2>{1, 1}, std::array<int64_t, 2>{1, 1});
        // The load lifts the rank by 2 (a [1,1] grid per trigger);
        // flatten both added dims away to pair weights 1:1 with tiles.
        auto& wflat = g.add<FlattenOp>(n + ".wflat", wload.out(), 0, 1);
        auto& wflat2 = g.add<FlattenOp>(n + ".wflat2", wflat.out(), 0, 1);

        // Compute: [4,8] x [8,8] per packed tile.
        auto& mm = g.add<MapOp>(
            n + ".matmul",
            std::vector<StreamPort>{pbc.out(0), wflat2.out()},
            fns::matmul(), 1024, DataType::tile(tile, inter));
        mm.setMatmulMemSpec(1);

        // Unpack tile back to rows and drop the padding.
        auto& fm = g.add<FlatMapOp>(n + ".unpack", mm.out(),
                                    fns::retileStreamify(1),
                                    StreamShape({Dim::ragged()}),
                                    DataType::tile(1, inter));
        auto& fi = g.add<FilterOp>(n + ".droppad", fm.out(),
                                   rs.padOut());
        auto& fl2 = g.add<FlattenOp>(n + ".rows", fi.out(), 0, 1);
        auto& ch = g.add<RepeatOp>(n + ".chunk", fl2.out(), 1);
        expert_outs.push_back(ch.out());
        std::cout << "expert " << e << " packed stream shape: "
                  << pack.out().shape.toString() << "\n";
    }

    // Merge (Figure 7's Reassemble); Listing 1 line 26 overrides the
    // shape with the known input shape.
    auto& re = g.add<ReassembleOp>("reassemble", expert_outs, selB.out(),
                                   1);
    StreamPort out = re.out().withShape(StreamShape::fixed({batch, 1}));
    std::cout << "output stream shape: " << out.shape.toString() << "\n";
    auto& sink = g.add<SinkOp>("sink", re.out(), true);

    std::cout << "symbolic off-chip traffic: "
              << g.offChipTrafficExpr().toString() << " bytes\n";
    std::cout << "symbolic on-chip requirement: "
              << g.onChipMemExpr().toString() << " bytes\n";

    SimResult res = g.run();

    // Check against the dense computation.
    size_t t = 0;
    bool ok = true;
    for (const auto& tok : sink.tokens()) {
        if (!tok.isData())
            continue;
        Tile x = Tile::withData(1, hidden, rows[t]);
        Tile w = Tile::withData(hidden, inter,
                                route[t] == 0 ? w0 : w1);
        Tile expect = matmul(x, w);
        ok &= tok.value().tile().equals(expect, 1e-4f);
        ++t;
    }
    std::cout << "rows routed and computed: " << t << "\n";
    std::cout << "functional check vs dense reference: "
              << (ok && t == static_cast<size_t>(batch) ? "PASS" : "FAIL")
              << "\n";
    std::cout << "simulated cycles: " << res.cycles
              << ", off-chip traffic: " << res.offChipBytes
              << " B, FLOPs: " << res.totalFlops << "\n";
    return ok ? 0 : 1;
}
