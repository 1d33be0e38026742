/**
 * @file
 * Mutation corpus for the static graph verifier (src/verify): each test
 * builds a deliberately corrupted graph and asserts that exactly the
 * intended rule fires, with the witness pinpointing the corrupted
 * op/channel. Also checks the inverse obligations: shipping workload
 * graphs lint clean, a primed feedback cycle is proven live, the static
 * deadlock report agrees with the runtime scheduler's report on the
 * same graph, and verification is read-only (verifier-on runs are
 * bit-identical to verifier-off runs).
 */
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "ops/route.hh"
#include "ops/source_sink.hh"
#include "support/error.hh"
#include "support/rng.hh"
#include "trace/trace.hh"
#include "verify/verifier.hh"
#include "workloads/attention.hh"
#include "workloads/decoder.hh"
#include "workloads/moe.hh"

#include "helpers.hh"

namespace step {
namespace {

using test::scalarTile;
using verify::Severity;
using verify::VerifyOptions;
using verify::VerifyReport;

/** Options running only one pass, so each mutation isolates one rule. */
VerifyOptions
only(bool structural, bool shape, bool deadlock)
{
    VerifyOptions o;
    o.structural = structural;
    o.shapeFlow = shape;
    o.deadlock = deadlock;
    return o;
}

const VerifyOptions kStructural = only(true, false, false);
const VerifyOptions kShape = only(false, true, false);
const VerifyOptions kDeadlock = only(false, false, true);

std::vector<Token>
doneOnly()
{
    return {Token::done()};
}

StreamShape
ragged1()
{
    return StreamShape({Dim::ragged()});
}

/** Expect exactly one finding and return it (by value: the report a
 *  caller passes is often a temporary). */
verify::Finding
single(const VerifyReport& r)
{
    EXPECT_EQ(r.findings.size(), 1u) << r.toText();
    if (r.findings.empty())
        return {};
    return r.findings.front();
}

/** Binds a port with no channel (input, or output into a pre-created
 *  channel) — a builder bug. */
class NullPortOp : public OpBase
{
  public:
    NullPortOp(Graph& g, const std::string& name, bool output)
        : OpBase(g, name)
    {
        if (output)
            bindOutputInto(nullptr, port_);
        else
            bindInput(port_);
    }

    dam::SimTask run() override { co_return; }

  private:
    StreamPort port_{nullptr, ragged1(), scalarTile()};
};

/**
 * Forwarder whose output carries priming credits: the static
 * counterpart of DispatcherOp's primed selector stream, reduced to the
 * minimum needed to exercise the credit arithmetic of the deadlock
 * pass.
 */
class PrimedFeedbackOp : public OpBase
{
  public:
    PrimedFeedbackOp(Graph& g, const std::string& name, StreamPort in,
                     size_t capacity, int64_t priming)
        : OpBase(g, name), in_(in)
    {
        bindInput(in_);
        bindOutput(out_, name + ".out", in_.shape, in_.dtype, capacity,
                   priming);
    }

    StreamPort out() const { return out_; }

    dam::SimTask run() override { co_return; }

  private:
    StreamPort in_;
    StreamPort out_;
};

/**
 * The port tables and the channel endpoints are one record: every
 * channel of @p g appears exactly once as an output, in its producer's
 * table, and exactly once as an input, in its consumer's table.
 */
void
expectPortTablesMatchEndpoints(const Graph& g)
{
    std::unordered_map<const dam::Channel*, int> outs;
    std::unordered_map<const dam::Channel*, int> ins;
    for (const OpBase* op : g.ops()) {
        for (const PortDecl& p : op->ports()) {
            ASSERT_NE(p.ch, nullptr) << op->name();
            const dam::Context* endpoint =
                p.isInput ? p.ch->consumer() : p.ch->producer();
            EXPECT_EQ(endpoint, op) << op->name() << " " << p.ch->name();
            ++(p.isInput ? ins : outs)[p.ch];
        }
    }
    EXPECT_EQ(outs.size(), g.channels().size());
    EXPECT_EQ(ins.size(), g.channels().size());
    for (const dam::Channel* ch : g.channels()) {
        EXPECT_EQ(outs.count(ch) ? outs.at(ch) : 0, 1) << ch->name();
        EXPECT_EQ(ins.count(ch) ? ins.at(ch) : 0, 1) << ch->name();
    }
}

/** The priming count of @p op_name's output ports, summed. */
int64_t
primingOf(const Graph& g, const std::string& op_name)
{
    int64_t n = -1;
    for (const OpBase* op : g.ops()) {
        if (op->name() != op_name)
            continue;
        n = 0;
        for (const PortDecl& p : op->ports())
            if (!p.isInput)
                n += p.priming;
    }
    return n;
}

// ---- structural pass ---------------------------------------------------

TEST(VerifyStructural, SourceWithoutSinkIsNoConsumer)
{
    Graph g;
    g.add<SourceOp>("src", doneOnly(), ragged1(), scalarTile());
    const VerifyReport r = g.verify(kStructural);
    const auto& f = single(r);
    EXPECT_EQ(f.ruleId, "structural.no-consumer");
    EXPECT_EQ(f.channelName, "src.out");
    EXPECT_EQ(f.severity, Severity::Error);
    EXPECT_EQ(r.errors(), 1u);
}

TEST(VerifyStructural, OrphanChannelIsNoProducer)
{
    Graph g;
    dam::Channel& ch = g.makeChannel("orphan");
    g.add<SinkOp>("sink", StreamPort{&ch, ragged1(), scalarTile()});
    const auto& f = single(g.verify(kStructural));
    EXPECT_EQ(f.ruleId, "structural.no-producer");
    EXPECT_EQ(f.channelName, "orphan");
}

TEST(VerifyStructural, ZeroCapacityChannelUnreachableByConstruction)
{
    // The runtime guards capacity >= 1 in both the Channel constructor
    // and reinit(), so the verifier's structural.zero-capacity and
    // deadlock.zero-capacity-cycle rules are pure defense-in-depth for
    // future graph-rewrite passes that might edit capacities in place.
    // Pin the guard that makes the state unreachable today.
    SimConfig sc;
    sc.channelCapacity = 0;
    Graph g(sc);
    EXPECT_THROW(
        (void)g.add<SourceOp>("src", doneOnly(), ragged1(), scalarTile()),
        PanicError);
}

TEST(VerifyStructural, SecondConsumerOverwriteIsEndpointMismatch)
{
    Graph g;
    auto& src = g.add<SourceOp>("src", doneOnly(), ragged1(),
                                scalarTile());
    g.add<SinkOp>("s1", src.out());
    g.add<SinkOp>("s2", src.out()); // silently steals the consumer slot
    const auto& f = single(g.verify(kStructural));
    EXPECT_EQ(f.ruleId, "structural.endpoint-mismatch");
    EXPECT_EQ(f.opName, "s1");
    EXPECT_EQ(f.channelName, "src.out");
    EXPECT_NE(f.witness.find("'s2'"), std::string::npos) << f.witness;
}

TEST(VerifyStructural, EndpointFromAnotherGraphIsForeign)
{
    Graph g;
    dam::Channel& ch = g.makeChannel("xch");
    Graph other;
    auto& src = other.add<SourceOp>("src", doneOnly(), ragged1(),
                                    scalarTile());
    // An op of another build binds itself as this graph's producer.
    other.add<RelayOp>("foreign", src.out(), &ch);
    g.add<SinkOp>("sink", StreamPort{&ch, ragged1(), scalarTile()});
    const auto& f = single(g.verify(kStructural));
    EXPECT_EQ(f.ruleId, "structural.foreign-endpoint");
    EXPECT_EQ(f.opName, "foreign");
    EXPECT_EQ(f.channelName, "xch");
}

TEST(VerifyStructural, NullPortBindingUnreachableByConstruction)
{
    // Ports are recorded only by the bind helpers, which reject a null
    // channel, so structural.null-port is defense-in-depth for future
    // rewrite passes that might edit port tables in place. Pin the
    // guard that makes the state unreachable today.
    Graph g;
    EXPECT_THROW((void)g.add<NullPortOp>("in", false), PanicError);
    EXPECT_THROW((void)g.add<NullPortOp>("out", true), PanicError);
}

// ---- shape/dtype flow pass ---------------------------------------------

TEST(VerifyShape, StaticExtentDisagreementFlagged)
{
    Graph g;
    auto& src = g.add<SourceOp>("src", doneOnly(),
                                StreamShape::fixed({2}), scalarTile());
    // Consumer claims a different static extent on the same channel.
    g.add<SinkOp>("sink",
                  StreamPort{src.out().ch, StreamShape::fixed({3}),
                             scalarTile()});
    const auto& f = single(g.verify(kShape));
    EXPECT_EQ(f.ruleId, "shape.mismatch");
    EXPECT_EQ(f.opName, "sink");
    EXPECT_EQ(f.channelName, "src.out");
    EXPECT_NE(f.witness.find("src"), std::string::npos);
}

TEST(VerifyShape, DtypeDisagreementFlagged)
{
    Graph g;
    auto& src = g.add<SourceOp>("src", doneOnly(),
                                StreamShape::fixed({2}), scalarTile());
    g.add<SinkOp>("sink",
                  StreamPort{src.out().ch, StreamShape::fixed({2}),
                             DataType::tile(1, 64)});
    const auto& f = single(g.verify(kShape));
    EXPECT_EQ(f.ruleId, "shape.dtype-mismatch");
    EXPECT_EQ(f.opName, "sink");
    EXPECT_EQ(f.channelName, "src.out");
}

// ---- deadlock pass -----------------------------------------------------

/** Two relays forwarding into each other: a credit-less cycle. */
void
buildRelayCycle(Graph& g)
{
    dam::Channel& a = g.makeChannel("cycA");
    dam::Channel& b = g.makeChannel("cycB");
    g.add<RelayOp>("r1", StreamPort{&a, ragged1(), scalarTile()}, &b);
    g.add<RelayOp>("r2", StreamPort{&b, ragged1(), scalarTile()}, &a);
}

TEST(VerifyDeadlock, CreditlessCycleFlaggedWithWitness)
{
    Graph g;
    buildRelayCycle(g);
    const auto& f = single(g.verify(kDeadlock));
    EXPECT_EQ(f.ruleId, "deadlock.cycle-no-credits");
    EXPECT_NE(f.witness.find("cycA"), std::string::npos) << f.witness;
    EXPECT_NE(f.witness.find("cycB"), std::string::npos) << f.witness;
    EXPECT_NE(f.witness.find(" -> "), std::string::npos) << f.witness;
}

TEST(VerifyDeadlock, MinimalCapacityCycleStillNamedNoCredits)
{
    // Capacity 1 is the legal minimum; a credit-less cycle at minimum
    // buffering must still be attributed to missing initial tokens,
    // not capacity (zero capacity itself is unreachable — see
    // VerifyStructural.ZeroCapacityChannelUnreachableByConstruction).
    Graph g;
    dam::Channel& a = g.makeChannel("cycA", 1);
    dam::Channel& b = g.makeChannel("cycB", 1);
    g.add<RelayOp>("r1", StreamPort{&a, ragged1(), scalarTile()}, &b);
    g.add<RelayOp>("r2", StreamPort{&b, ragged1(), scalarTile()}, &a);
    const auto& f = single(g.verify(kDeadlock));
    EXPECT_EQ(f.ruleId, "deadlock.cycle-no-credits");
}

TEST(VerifyDeadlock, PrimingBeyondCycleBufferingFlagged)
{
    Graph g;
    dam::Channel& a = g.makeChannel("cycA", 2);
    auto& f1 = g.add<PrimedFeedbackOp>(
        "f1", StreamPort{&a, ragged1(), scalarTile()}, 2, 5);
    g.add<RelayOp>("r", f1.out(), &a);
    const auto& f = single(g.verify(kDeadlock));
    EXPECT_EQ(f.ruleId, "deadlock.cycle-capacity");
    EXPECT_NE(f.witness.find("primes 5"), std::string::npos) << f.witness;
    EXPECT_NE(f.witness.find("only 4"), std::string::npos) << f.witness;
}

TEST(VerifyDeadlock, PrimedCycleWithinBufferingIsLive)
{
    // The Figure-16 pattern in miniature: one initial token on the
    // feedback loop keeps it live, and the verifier must not cry wolf.
    Graph g;
    dam::Channel& a = g.makeChannel("cycA");
    auto& f1 = g.add<PrimedFeedbackOp>(
        "f1", StreamPort{&a, ragged1(), scalarTile()}, 0, 1);
    g.add<RelayOp>("r", f1.out(), &a);
    const VerifyReport r = g.verify(kDeadlock);
    EXPECT_TRUE(r.clean()) << r.toText();
}

TEST(VerifyDeadlock, AcyclicPipelineIsClean)
{
    Graph g;
    auto& src = g.add<SourceOp>("src", doneOnly(), ragged1(),
                                scalarTile());
    auto& bc = g.add<BroadcastOp>("bc", src.out(), 2);
    g.add<SinkOp>("s0", bc.out(0));
    g.add<SinkOp>("s1", bc.out(1));
    const VerifyReport r = g.verify(kDeadlock);
    EXPECT_TRUE(r.clean()) << r.toText();
}

// ---- cross-checks and hygiene ------------------------------------------

TEST(Verify, StaticAndRuntimeDeadlockReportsAgree)
{
    // The same corrupted graph, judged twice: the static pass must name
    // the cycle the scheduler will actually wedge on.
    Graph g;
    buildRelayCycle(g);
    const auto& f = single(g.verify(kDeadlock));
    ASSERT_EQ(f.ruleId, "deadlock.cycle-no-credits");

    try {
        (void)g.run();
        FAIL() << "relay cycle ran to completion";
    } catch (const FatalError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("simulation deadlock"), std::string::npos)
            << msg;
        // Runtime blocks read both cycle channels; the static witness
        // named the same two.
        EXPECT_NE(msg.find("cycA"), std::string::npos) << msg;
        EXPECT_NE(msg.find("cycB"), std::string::npos) << msg;
    }
}

TEST(Verify, ShippingMoeGraphLintsClean)
{
    MoeParams p;
    p.cfg = tinyConfig();
    p.cfg.hidden = 32;
    p.cfg.moeIntermediate = 32;
    p.cfg.numExperts = 4;
    p.cfg.topK = 2;
    p.batch = 16;
    p.weightTileCols = 8;
    p.tileRows = 4;
    Rng rng(2);
    ExpertTrace tr =
        generateExpertTrace(rng, p.batch, p.cfg.numExperts, p.cfg.topK);
    SimConfig sc;
    sc.channelCapacity = 64;
    Graph g(sc);
    MoeBuild mb = buildMoeLayer(g, p, tr);
    g.add<SinkOp>("sink", mb.out);
    const VerifyReport r = g.verify({});
    EXPECT_TRUE(r.clean()) << r.toText();
    EXPECT_GT(r.opsChecked, 0u);
    EXPECT_GT(r.channelsChecked, 0u);
}

TEST(Verify, PortTablesAreTheChannelEndpoints)
{
    const ModelConfig cfg = servingSimConfig();
    const auto lens = sampleKvBatch(7, 32, KvVarClass::Med);
    for (ParStrategy s : {ParStrategy::StaticCoarse,
                          ParStrategy::StaticInterleaved,
                          ParStrategy::Dynamic}) {
        SCOPED_TRACE(static_cast<int>(s));
        AttnParams p;
        p.cfg = cfg;
        p.batch = 32;
        p.strategy = s;
        p.regions = 4;
        p.coarseBlock = p.batch / p.regions;
        Graph g;
        g.add<SinkOp>("out", buildAttentionLayer(g, p, lens).out);
        expectPortTablesMatchEndpoints(g);
        // The dispatcher's round-robin fill: min(regions, B) tokens.
        EXPECT_EQ(primingOf(g, "attn.disp"),
                  s == ParStrategy::Dynamic ? 4 : -1);
    }
    for (Tiling t : {Tiling::Static, Tiling::Dynamic}) {
        for (int64_t regions : {int64_t{0}, int64_t{4}}) {
            SCOPED_TRACE(regions);
            MoeParams p;
            p.cfg = cfg;
            p.batch = 32;
            p.tiling = t;
            p.parallelRegions = regions;
            Rng rng(11);
            ExpertTrace tr = generateExpertTrace(rng, p.batch,
                                                 p.cfg.numExperts,
                                                 p.cfg.topK);
            Graph g;
            g.add<SinkOp>("out", buildMoeLayer(g, p, tr).out);
            expectPortTablesMatchEndpoints(g);
        }
    }
    // A batch smaller than the region count primes only B selectors.
    DecoderParams dp;
    dp.cfg = cfg;
    dp.batch = 2;
    dp.attnStrategy = ParStrategy::Dynamic;
    dp.moeRegions = 4;
    IterationSpec spec;
    spec.kvLens = sampleKvBatch(13, dp.batch, KvVarClass::Med);
    Rng rng(17);
    spec.trace = generateExpertTrace(rng, dp.batch, dp.cfg.numExperts,
                                     dp.cfg.topK);
    Graph g;
    buildDecoderLayer(g, dp, spec.trace, spec.kvLens);
    expectPortTablesMatchEndpoints(g);
    EXPECT_EQ(primingOf(g, "attn.disp"), 2);
}

TEST(Verify, VerificationIsReadOnly)
{
    auto build_and_run = [](bool verify_first) {
        Graph g;
        auto toks = encodeNested(test::vec({1, 2, 3}), 1);
        auto& src = g.add<SourceOp>("src", toks, StreamShape::fixed({3}),
                                    scalarTile());
        g.add<SinkOp>("sink", src.out());
        if (verify_first) {
            const VerifyReport r = g.verify({});
            EXPECT_TRUE(r.clean()) << r.toText();
        }
        return g.run();
    };
    const SimResult plain = build_and_run(false);
    const SimResult verified = build_and_run(true);
    EXPECT_EQ(plain.cycles, verified.cycles);
    EXPECT_EQ(plain.offChipBytes, verified.offChipBytes);
    EXPECT_EQ(plain.totalFlops, verified.totalFlops);
    EXPECT_EQ(plain.contextSwitches, verified.contextSwitches);
}

TEST(Verify, RenderersCarryTheFinding)
{
    Graph g;
    g.add<SourceOp>("src", doneOnly(), ragged1(), scalarTile());
    const VerifyReport r = g.verify(kStructural);
    const std::string text = r.toText();
    EXPECT_NE(text.find("error[structural.no-consumer]"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("channel 'src.out'"), std::string::npos) << text;
    EXPECT_NE(text.find("1 error(s)"), std::string::npos) << text;
    const std::string json = r.toJson();
    EXPECT_NE(json.find("\"ruleId\":\"structural.no-consumer\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"errors\":1"), std::string::npos) << json;
}

} // namespace
} // namespace step
