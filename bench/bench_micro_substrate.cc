/**
 * @file
 * google-benchmark microbenchmarks for the substrates: the coroutine
 * channel/scheduler kernel, the HBM bank model, the symbolic engine, the
 * stop-token codec, and tile algebra. These guard the simulator's own
 * performance (the evaluation sweeps run thousands of graph simulations).
 */
#include <benchmark/benchmark.h>

#include "core/codec.hh"
#include "dam/channel.hh"
#include "dam/scheduler.hh"
#include "mem/dram.hh"
#include "ops/higher_order.hh"
#include "ops/source_sink.hh"
#include "support/rng.hh"
#include "symbolic/expr.hh"

namespace step {
namespace {

void
BM_ChannelPingPong(benchmark::State& state)
{
    const auto n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        Graph g;
        std::vector<Token> toks;
        for (int i = 0; i < n; ++i)
            toks.push_back(Token::data(Tile(1, 64)));
        toks.push_back(Token::done());
        auto& src = g.add<SourceOp>("src", std::move(toks),
                                    StreamShape({Dim::fixed(n)}),
                                    DataType::tile(1, 64));
        auto& sink = g.add<SinkOp>("sink", src.out());
        (void)g.run();
        benchmark::DoNotOptimize(sink.dataCount());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ChannelPingPong)->Arg(1024)->Arg(8192);

void
BM_MapPipeline(benchmark::State& state)
{
    const auto n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        Graph g;
        std::vector<Token> toks;
        for (int i = 0; i < n; ++i)
            toks.push_back(Token::data(Tile(32, 64)));
        toks.push_back(Token::done());
        auto& src = g.add<SourceOp>("src", std::move(toks),
                                    StreamShape({Dim::fixed(n)}),
                                    DataType::tile(32, 64));
        MapFn id = [](const std::vector<Value>& a, int64_t& f) -> Value {
            f += 64;
            return a[0];
        };
        StreamPort cur = src.out();
        for (int s = 0; s < 4; ++s) {
            std::string name = "m";
            name += std::to_string(s);
            auto& m = g.add<MapOp>(name,
                                   std::vector<StreamPort>{cur}, id, 64,
                                   DataType::tile(32, 64));
            cur = m.out();
        }
        auto& sink = g.add<SinkOp>("sink", cur);
        (void)g.run();
        benchmark::DoNotOptimize(sink.dataCount());
    }
    state.SetItemsProcessed(state.iterations() * n * 4);
}
BENCHMARK(BM_MapPipeline)->Arg(2048);

void
BM_HbmStreaming(benchmark::State& state)
{
    for (auto _ : state) {
        HbmBankModel m;
        dam::Cycle t = 0;
        for (int i = 0; i < 4096; ++i)
            t = m.access(static_cast<uint64_t>(i) * 256, 256, t, false);
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_HbmStreaming);

void
BM_SymbolicMetricFold(benchmark::State& state)
{
    for (auto _ : state) {
        sym::Expr total;
        for (int i = 0; i < 256; ++i) {
            std::string name = "D";
            name += std::to_string(i % 16);
            sym::Expr d = sym::Expr::sym(name);
            total += sym::ceilDiv(d, sym::Expr(4)) * sym::Expr(4096);
        }
        benchmark::DoNotOptimize(total.toString());
    }
}
BENCHMARK(BM_SymbolicMetricFold);

void
BM_CodecRoundTrip(benchmark::State& state)
{
    // A ragged rank-3 structure of ~1000 scalar tiles.
    std::vector<Nested> mats;
    float v = 0;
    for (int i = 0; i < 10; ++i) {
        std::vector<Nested> rows;
        for (int j = 0; j < 10 + i; ++j) {
            std::vector<Nested> elems;
            for (int k = 0; k < 9; ++k)
                elems.emplace_back(
                    Value(Tile::withData(1, 1, {v++}, 1)));
            rows.push_back(Nested::list(std::move(elems)));
        }
        mats.push_back(Nested::list(std::move(rows)));
    }
    Nested n = Nested::list(std::move(mats));
    for (auto _ : state) {
        auto toks = encodeNested(n, 3);
        Nested back = decodeNested(toks, 3);
        benchmark::DoNotOptimize(back.children().size());
    }
}
BENCHMARK(BM_CodecRoundTrip);

void
BM_TileMatmul(benchmark::State& state)
{
    Rng rng(1);
    std::vector<float> a(64 * 64), b(64 * 64);
    for (auto& x : a)
        x = static_cast<float>(rng.uniform());
    for (auto& x : b)
        x = static_cast<float>(rng.uniform());
    Tile ta = Tile::withData(64, 64, a);
    Tile tb = Tile::withData(64, 64, b);
    for (auto _ : state) {
        int64_t flops = 0;
        Tile c = matmul(ta, tb, &flops);
        benchmark::DoNotOptimize(c.at(0, 0));
    }
}
BENCHMARK(BM_TileMatmul);

} // namespace
} // namespace step

BENCHMARK_MAIN();
