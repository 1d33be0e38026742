/**
 * @file
 * The symbolic-frontend workflow of section 4.2: build a small STeP
 * graph with data-dependent dimensions, inspect the symbolic stream
 * shapes and the off-chip-traffic / on-chip-memory expressions, then
 * substitute candidate values for the dynamic dimensions to explore the
 * schedule space without running the simulator — and finally run the
 * simulator to confirm the measured traffic.
 */
#include <iostream>

#include "ops/higher_order.hh"
#include "ops/offchip.hh"
#include "ops/onchip.hh"
#include "ops/shape_ops.hh"
#include "ops/source_sink.hh"
#include "support/cli.hh"

using namespace step;

int
main(int argc, char** argv)
{
    Cli(argc, argv).parse(); // no flags: any argument exits 2
    // A stream of D (data-dependent) rows is bufferized, and a weight
    // tensor is re-read once per buffered group: the traffic expression
    // contains the symbolic group count.
    Graph g;
    const int64_t rows_today = 24; // today's runtime value of D

    std::vector<Token> toks;
    for (int64_t i = 0; i < rows_today; ++i)
        toks.push_back(Token::data(Tile(1, 64)));
    toks.push_back(Token::done());
    // Declare the batch dimension as dynamic: shape [D].
    Dim d = Dim::dynamic("D");
    auto& src = g.add<SourceOp>("rows", toks, StreamShape({d}),
                                DataType::tile(1, 64));

    // Pack rows into tiles of 8: stream shape becomes [ceil(D/8), 8].
    auto& rs = g.add<ReshapeOp>("reshape", src.out(), 0, 8,
                                std::optional<Value>(Tile(1, 64)));
    auto& pack = g.add<AccumOp>("pack", rs.out(), 1,
                                fns::retileRowInit(64),
                                fns::retileRowUpdate(), 64,
                                DataType::tile(8, 64));
    g.add<SinkOp>("padSink", rs.padOut());
    std::cout << "rows stream shape:   " << src.out().shape.toString()
              << "\n";
    std::cout << "reshaped shape:      " << rs.out().shape.toString()
              << "\n";
    std::cout << "packed tile stream:  " << pack.out().shape.toString()
              << "\n\n";

    // The weight is loaded once per packed tile: ceil(D/8) re-reads.
    auto& pbc = g.add<BroadcastOp>("bc", pack.out(), 2);
    OffChipTensor wt = OffChipTensor::shapeOnly(0, 64, 64, 64, 64);
    auto& wload = g.add<LinearOffChipLoadOp>(
        "wload", pbc.out(1), wt, std::array<int64_t, 2>{1, 1},
        std::array<int64_t, 2>{1, 1});
    auto& wflat = g.add<FlattenOp>("wflat", wload.out(), 0, 1);
    auto& wflat2 = g.add<FlattenOp>("wflat2", wflat.out(), 0, 1);
    auto& mm = g.add<MapOp>(
        "mm", std::vector<StreamPort>{pbc.out(0), wflat2.out()},
        fns::matmul(), 1024, DataType::tile(8, 64));
    mm.setMatmulMemSpec(1);
    g.add<SinkOp>("sink", mm.out());

    sym::Expr traffic = g.offChipTrafficExpr();
    sym::Expr onchip = g.onChipMemExpr();
    std::cout << "symbolic off-chip traffic: " << traffic.toString()
              << " bytes\n";
    std::cout << "symbolic on-chip memory:   " << onchip.toString()
              << " bytes\n\n";

    // Substitute candidate batch sizes (section 4.2: "programmers can
    // quickly analyze off-chip traffic ... by substituting symbols").
    std::string dname = *traffic.freeSymbols().begin();
    for (int64_t cand : {8, 24, 100}) {
        std::cout << "  D = " << cand << " -> traffic "
                  << traffic.eval({{dname, cand}}) << " B, on-chip "
                  << onchip.tryEval({{dname, cand}}).value_or(0)
                  << " B\n";
    }

    // Run the simulator: measured traffic must equal the substituted
    // expression for today's D.
    SimResult res = g.run();
    int64_t predicted = traffic.eval({{dname, rows_today}});
    std::cout << "\nsimulated traffic for D=" << rows_today << ": "
              << res.offChipBytes << " B (symbolic prediction "
              << predicted << " B) -> "
              << (res.offChipBytes == predicted ? "MATCH" : "MISMATCH")
              << "\n";
    return res.offChipBytes == predicted ? 0 : 1;
}
