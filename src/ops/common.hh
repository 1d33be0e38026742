/**
 * @file
 * Shared infrastructure for STeP operator implementations: the simulation
 * configuration, stream ports (channel + symbolic shape + dtype), and the
 * operator base class combining a DAM context, its port table, and the
 * section-4.2 metric interface.
 */
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/codec.hh"
#include "core/dtype.hh"
#include "core/stream_shape.hh"
#include "core/token.hh"
#include "dam/channel.hh"
#include "dam/context.hh"
#include "symbolic/expr.hh"

namespace step {

class Graph;

/** Timing parameters shared by all operators (section 5.1 defaults). */
struct SimConfig
{
    /** Per-unit on-chip memory bandwidth in bytes/cycle. */
    int64_t onChipBwBytesPerCycle = 64;
    /** Off-chip aggregate bandwidth for the SimpleBwModel default. */
    int64_t offChipBwBytesPerCycle = 1024;
    /** Off-chip access latency for the SimpleBwModel default. */
    dam::Cycle offChipLatency = 64;
    /** Hardware FIFO depth. */
    size_t channelCapacity = 8;
    /** FIFO forwarding latency. */
    dam::Cycle channelLatency = 1;
};

/** One end of a stream: the channel plus its compile-time view. */
struct StreamPort
{
    dam::Channel* ch = nullptr;
    StreamShape shape;
    DataType dtype;

    size_t rank() const { return shape.rank(); }

    /** Listing-1 style shape override (e.g. after Reassemble). */
    StreamPort
    withShape(StreamShape s) const
    {
        return StreamPort{ch, std::move(s), dtype};
    }
};

/**
 * One stream endpoint of an operator, recorded when the operator binds
 * it (OpBase::bindInput / bindOutput / bindOutputInto), so binding a
 * port and declaring it are one call. The static verifier (src/verify)
 * reads these tables in place to cross-check them against the channel
 * endpoints and to diff shapes/dtypes across each channel without
 * executing anything. Shape and dtype are viewed, not copied: they live
 * in the operator's own StreamPort member.
 */
struct PortDecl
{
    const dam::Channel* ch = nullptr;
    /** The operator's port carrying this endpoint's shape and dtype
     *  (RelayOp's output views the input it forwards verbatim). */
    const StreamPort* view = nullptr;
    bool isInput = false;
    /**
     * Tokens the operator emits on this output before consuming
     * anything: the static counterpart of initial tokens on a marked
     * dataflow graph. DispatcherOp primes its selector stream this way
     * (Figure 16); the deadlock pass uses these credits to prove its
     * feedback cycle live instead of flagging it.
     */
    int64_t priming = 0;

    const StreamShape& shape() const { return view->shape; }
    const DataType& dtype() const { return view->dtype; }
};

struct OffChipTensor;

/**
 * Per-iteration payload handed to OpBase::rearm(). Only the fields an
 * operator understands are consumed; everything else is ignored. The
 * default-constructed spec means "reset run state only" and is what
 * Graph::rearm() passes to every operator; workload-level rearm
 * functions then re-invoke rearm on the operators that carry
 * per-iteration data (source token streams, off-chip tensor metadata,
 * policy-assigned compute bandwidths).
 */
struct RearmSpec
{
    /** New source token stream (consumed by move; SourceOp). */
    std::vector<Token>* tokens = nullptr;
    /** New off-chip tensor metadata (off-chip load operators). */
    const OffChipTensor* tensor = nullptr;
    /** New allocated compute bandwidth; < 0 keeps the current value. */
    int64_t computeBw = -1;
    /** New element count of a counted generator (DispatcherOp's
     *  selector total); < 0 keeps the current value. */
    int64_t total = -1;
};

/**
 * Base class for every STeP operator. An operator is a DAM context (its
 * run() coroutine implements the streaming semantics and the timing
 * model) plus the static metric expressions of section 4.2.
 */
class OpBase : public dam::Context
{
  public:
    OpBase(Graph& g, std::string name);

    /**
     * Structure-preserving re-arm: reset all per-run state (local
     * clock, coroutine frame, measured metrics, roofline memo) and
     * apply the per-iteration payload in @p spec, so the operator can
     * re-run inside a recycled graph without being reconstructed.
     * Subclasses with run-state members (stop coalescers, exhaustion
     * flags, cursors) or rearm-able parameters override this and call
     * the base. Metrics after a rearmed run are bit-identical to a
     * rebuilt graph's.
     */
    virtual void rearm(const RearmSpec& spec);

    /** Off-chip traffic in bytes (zero except off-chip operators). */
    virtual sym::Expr offChipTrafficExpr() const { return sym::Expr(0); }

    /** On-chip memory requirement in bytes (section 4.2 equations). */
    virtual sym::Expr onChipMemExpr() const { return sym::Expr(0); }

    /** Compute bandwidth allocated to this operator (FLOPs/cycle). */
    virtual int64_t allocatedComputeBw() const { return 0; }

    /**
     * Every stream endpoint this operator bound, in binding order. The
     * bind helpers below are the only way to set a channel endpoint, so
     * a bound port is always a declared one. The span views graph-owned
     * storage: it is valid until the graph binds its next port.
     */
    std::span<const PortDecl> ports() const;

    // Runtime measurements, populated during simulation.
    int64_t measuredFlops() const { return flops_; }
    int64_t measuredOnChipPeakBytes() const { return onChipPeak_; }
    uint64_t processedElements() const { return elements_; }
    dam::Cycle busyCycles() const { return busy_; }

    Graph& graph() const { return graph_; }

  protected:
    /**
     * Bind @p in, a StreamPort member of this operator (the port table
     * views it), as an input: set the channel's consumer and record it.
     */
    void bindInput(const StreamPort& in);

    /**
     * Create channel @p chan (@p capacity overrides the configured
     * depth when nonzero), make this operator its producer, store the
     * port in the member @p out, and record it with @p priming initial
     * tokens.
     */
    void bindOutput(StreamPort& out, std::string_view chan,
                    StreamShape shape, DataType dtype, size_t capacity = 0,
                    int64_t priming = 0);

    /**
     * Bind an output into the pre-created channel @p ch, whose shape
     * and dtype are those of the member @p view (RelayOp).
     */
    void bindOutputInto(dam::Channel* ch, const StreamPort& view);

    /** Re-set the priming count recorded for the bound output @p out
     *  (a rearm payload, e.g. DispatcherOp's min(regions, total)). */
    void setPriming(const StreamPort& out, int64_t priming);

    /** advance() that also accrues busy-cycle statistics. */
    void
    busyAdvance(dam::Cycle dt)
    {
        busy_ += dt;
        advance(dt);
    }

    /** Roofline cycles for one element (section 4.3 equation). */
    dam::Cycle rooflineCycles(int64_t in_bytes, int64_t flops,
                              int64_t out_bytes, int64_t compute_bw,
                              bool in_via_memory,
                              bool out_via_memory) const;

    /**
     * Memoized rooflineCycles for the regular-stream common case: most
     * operators process identically-shaped elements, so the (division-
     * heavy) roofline evaluates to the same cycle count every event.
     * Keyed on everything that varies at run time; bandwidths and the
     * via-memory flags are fixed per operator lifetime.
     */
    dam::Cycle
    rooflineCyclesMemo(int64_t in_bytes, int64_t flops, int64_t out_bytes,
                       int64_t compute_bw, bool in_via_memory,
                       bool out_via_memory)
    {
        if (in_bytes == memoIn_ && flops == memoFlops_ &&
            out_bytes == memoOut_)
            return memoDt_;
        memoIn_ = in_bytes;
        memoFlops_ = flops;
        memoOut_ = out_bytes;
        memoDt_ = rooflineCycles(in_bytes, flops, out_bytes, compute_bw,
                                 in_via_memory, out_via_memory);
        return memoDt_;
    }

    Graph& graph_;
    int64_t flops_ = 0;
    int64_t onChipPeak_ = 0;
    uint64_t elements_ = 0;
    dam::Cycle busy_ = 0;

  private:
    // Operators set endpoints only through the helpers above, which
    // record the port.
    using dam::Context::bindConsumer;
    using dam::Context::bindProducer;

    void recordPort(const PortDecl& port);

    /** This op's slice of the graph's port storage (see Graph). */
    uint32_t firstPort_ = 0;
    uint32_t numPorts_ = 0;
    int64_t memoIn_ = -1;
    int64_t memoFlops_ = -1;
    int64_t memoOut_ = -1;
    dam::Cycle memoDt_ = 0;
};

/** Emit every token of a StopCoalescer result (coroutine bodies only). */
#define STEP_EMIT(chan, toks)                                                \
    for (auto& _step_tok : (toks))                                           \
        co_await (chan)->write(*this, std::move(_step_tok))

/** Emit a single raw token. */
#define STEP_EMIT_RAW(chan, tok) co_await (chan)->write(*this, (tok))

} // namespace step
