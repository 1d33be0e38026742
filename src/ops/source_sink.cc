#include "ops/source_sink.hh"

#include "support/error.hh"

namespace step {

SourceOp::SourceOp(Graph& g, const std::string& name,
                   std::vector<Token> toks, StreamShape shape,
                   DataType dtype, dam::Cycle ii)
    : OpBase(g, name), ii_(ii)
{
    setTokens(std::move(toks));
    bindOutput(out_, name + ".out", std::move(shape), std::move(dtype));
}

dam::SimTask
SourceOp::run()
{
    STEP_ASSERT(armed_, "source " << name() << " re-run without a "
                "fresh token stream (setTokens)");
    armed_ = false;
    // A run consumes the pre-materialized tokens, so they can be moved
    // out instead of copied; setTokens() installs the next stream.
    for (auto& t : toks_) {
        busyAdvance(ii_);
        STEP_EMIT_RAW(out_.ch, std::move(t));
    }
    co_return;
}

void
SourceOp::setTokens(std::vector<Token> toks)
{
    STEP_ASSERT(!toks.empty() && toks.back().isDone(),
                "source stream must end in Done: " << name());
    toks_ = std::move(toks);
    armed_ = true;
}

SinkOp::SinkOp(Graph& g, const std::string& name, StreamPort in,
               bool capture)
    : OpBase(g, name), in_(in), capture_(capture)
{
    bindInput(in_);
}

dam::SimTask
SinkOp::run()
{
    captured_.clear();
    dataCount_ = 0;
    while (true) {
        Token t = co_await in_.ch->read(*this);
        if (t.isData())
            ++dataCount_;
        bool done = t.isDone();
        if (capture_)
            captured_.push_back(std::move(t));
        if (done)
            break;
    }
    co_return;
}

RelayOp::RelayOp(Graph& g, const std::string& name, StreamPort in,
                 dam::Channel* target)
    : OpBase(g, name), in_(in), target_(target)
{
    bindInput(in_);
    // Verbatim forwarder: the target carries the input's view.
    bindOutputInto(target_, in_);
}

dam::SimTask
RelayOp::run()
{
    while (true) {
        Token t = co_await in_.ch->read(*this);
        bool done = t.isDone();
        co_await target_->write(*this, std::move(t));
        if (done)
            break;
    }
    co_return;
}

BroadcastOp::BroadcastOp(Graph& g, const std::string& name, StreamPort in,
                         size_t fanout)
    : OpBase(g, name), in_(in)
{
    STEP_ASSERT(fanout >= 1, "broadcast fanout must be >= 1");
    bindInput(in_);
    outs_.resize(fanout);
    for (size_t i = 0; i < fanout; ++i)
        bindOutput(outs_[i], name + ".out" + std::to_string(i), in_.shape,
                   in_.dtype);
}

dam::SimTask
BroadcastOp::run()
{
    while (true) {
        Token t = co_await in_.ch->read(*this);
        bool done = t.isDone();
        // Copies for all but the last output, which takes the token.
        for (size_t o = 0; o + 1 < outs_.size(); ++o)
            STEP_EMIT_RAW(outs_[o].ch, t);
        STEP_EMIT_RAW(outs_.back().ch, std::move(t));
        if (done)
            break;
    }
    co_return;
}

} // namespace step
