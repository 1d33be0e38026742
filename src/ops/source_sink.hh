/**
 * @file
 * Stream endpoints and fan-out: SourceOp injects a pre-materialized token
 * stream (program inputs: activations from the previous layer, selector
 * streams from the router, reference/trigger streams), SinkOp terminates
 * and optionally captures a stream, and BroadcastOp is the explicit
 * fan-out node (channels are single-consumer, as on the hardware fabric).
 */
#pragma once

#include "ops/common.hh"
#include "ops/graph.hh"

namespace step {

class SourceOp : public OpBase
{
  public:
    /**
     * @param toks   full token stream including the trailing Done
     * @param shape  declared symbolic shape
     * @param dtype  element type
     * @param ii     initiation interval per token (cycles)
     */
    SourceOp(Graph& g, const std::string& name, std::vector<Token> toks,
             StreamShape shape, DataType dtype, dam::Cycle ii = 1);

    StreamPort out() const { return out_; }

    dam::SimTask run() override;

    /**
     * Requires spec.tokens when re-arming for a new run: the previous
     * stream was moved out during emission. Graph::rearm's generic
     * pass (null tokens) leaves the source disarmed; running a
     * disarmed source asserts.
     */
    void rearm(const RearmSpec& spec) override;

  private:
    std::vector<Token> toks_;
    StreamPort out_;
    dam::Cycle ii_;
    bool armed_ = true;
};

class SinkOp : public OpBase
{
  public:
    SinkOp(Graph& g, const std::string& name, StreamPort in,
           bool capture = false);

    dam::SimTask run() override;

    /** Captured tokens (only if capture=true). */
    const std::vector<Token>& tokens() const { return captured_; }
    uint64_t dataCount() const { return dataCount_; }
    /** Local clock when Done was received. */
    dam::Cycle finishTime() const { return finish_; }

    void rearm(const RearmSpec& spec) override;

  private:
    StreamPort in_;
    bool capture_;
    std::vector<Token> captured_;
    uint64_t dataCount_ = 0;
    dam::Cycle finish_ = 0;
};

/**
 * Forwards a stream into a pre-created channel. Used to close feedback
 * structures (e.g. region-completion signals feeding a dispatcher whose
 * output routes work to those same regions, Figure 16) where the
 * consumer graph must exist before the producer.
 */
class RelayOp : public OpBase
{
  public:
    RelayOp(Graph& g, const std::string& name, StreamPort in,
            dam::Channel* target);

    dam::SimTask run() override;

  private:
    StreamPort in_;
    dam::Channel* target_;
};

class BroadcastOp : public OpBase
{
  public:
    BroadcastOp(Graph& g, const std::string& name, StreamPort in,
                size_t fanout);

    StreamPort out(size_t i) const { return outs_.at(i); }
    size_t fanout() const { return outs_.size(); }

    dam::SimTask run() override;

  private:
    StreamPort in_;
    std::vector<StreamPort> outs_;
};

} // namespace step
