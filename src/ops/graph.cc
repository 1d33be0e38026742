#include "ops/graph.hh"

#include "support/error.hh"

namespace step {

OpBase::OpBase(Graph& g, std::string name)
    : dam::Context(std::move(name)), graph_(g)
{}

std::span<const PortDecl>
OpBase::ports() const
{
    return {graph_.ports_.data() + firstPort_, numPorts_};
}

void
OpBase::recordPort(const PortDecl& port)
{
    std::vector<PortDecl>& table = graph_.ports_;
    if (numPorts_ == 0)
        firstPort_ = static_cast<uint32_t>(table.size());
    STEP_ASSERT(firstPort_ + numPorts_ == table.size(),
                "operator " << name() << " bound a port after another "
                "operator was built");
    table.push_back(port);
    ++numPorts_;
}

void
OpBase::bindInput(const StreamPort& in)
{
    STEP_ASSERT(in.ch, "input of " << name() << " bound to a null channel");
    bindConsumer(*in.ch);
    recordPort(PortDecl{in.ch, &in, true, 0});
}

void
OpBase::bindOutput(StreamPort& out, std::string_view chan,
                   StreamShape shape, DataType dtype, size_t capacity,
                   int64_t priming)
{
    out = StreamPort{&graph_.makeChannel(chan, capacity), std::move(shape),
                     std::move(dtype)};
    bindProducer(*out.ch);
    recordPort(PortDecl{out.ch, &out, false, priming});
}

void
OpBase::bindOutputInto(dam::Channel* ch, const StreamPort& view)
{
    STEP_ASSERT(ch, "output of " << name() << " bound to a null channel");
    bindProducer(*ch);
    recordPort(PortDecl{ch, &view, false, 0});
}

void
OpBase::setPriming(const StreamPort& out, int64_t priming)
{
    for (uint32_t i = firstPort_; i < firstPort_ + numPorts_; ++i) {
        PortDecl& port = graph_.ports_[i];
        if (!port.isInput && port.view == &out) {
            port.priming = priming;
            return;
        }
    }
    STEP_ASSERT(false, "operator " << name() << " has no bound output "
                "to prime");
}

void
OpBase::rearm(const RearmSpec&)
{
    flops_ = 0;
    onChipPeak_ = 0;
    elements_ = 0;
    busy_ = 0;
    // Invalidate the roofline memo: a rearm may change the operator's
    // compute bandwidth, which the memo key deliberately omits.
    memoIn_ = -1;
    memoFlops_ = -1;
    memoOut_ = -1;
    memoDt_ = 0;
    resetRun();
}

dam::Cycle
OpBase::rooflineCycles(int64_t in_bytes, int64_t flops, int64_t out_bytes,
                       int64_t compute_bw, bool in_via_memory,
                       bool out_via_memory) const
{
    const SimConfig& cfg = graph_.config();
    int64_t cycles = 0;
    if (in_via_memory)
        cycles = std::max(cycles, (in_bytes + cfg.onChipBwBytesPerCycle - 1)
                          / cfg.onChipBwBytesPerCycle);
    if (out_via_memory)
        cycles = std::max(cycles, (out_bytes + cfg.onChipBwBytesPerCycle - 1)
                          / cfg.onChipBwBytesPerCycle);
    if (compute_bw > 0)
        cycles = std::max(cycles, (flops + compute_bw - 1) / compute_bw);
    return static_cast<dam::Cycle>(cycles);
}

Graph::Graph(SimConfig cfg, GraphArena* arena)
    : cfg_(cfg), arena_(arena),
      mem_(std::make_unique<SimpleBwModel>(cfg.offChipBwBytesPerCycle,
                                           cfg.offChipLatency))
{}

Graph::~Graph()
{
    destroyOps();
}

void
Graph::destroyOps()
{
    // Reverse construction order, mirroring what member unique_ptrs in
    // a struct would do.
    for (size_t i = ops_.size(); i-- > 0;) {
        if (arena_)
            ops_[i]->~OpBase(); // virtual dtor; storage stays in arena
        else
            delete ops_[i];
    }
    ops_.clear();
}

dam::Channel&
Graph::makeChannel(std::string_view name, size_t capacity_override)
{
    size_t cap = capacity_override ? capacity_override
                                   : cfg_.channelCapacity;
    if (arena_)
        name = arena_->names.intern(name);
    std::unique_ptr<dam::Channel> ch;
    if (!channelPool_.empty()) {
        ch = std::move(channelPool_.back());
        channelPool_.pop_back();
        ch->reinit(name, cap, cfg_.channelLatency);
    } else {
        ch = std::make_unique<dam::Channel>(std::string(name), cap,
                                            cfg_.channelLatency);
    }
    channels_.push_back(ch.get());
    configSized_.push_back(capacity_override == 0);
    channelStore_.push_back(std::move(ch));
    return *channels_.back();
}

void
Graph::recycle(const SimConfig& cfg)
{
    STEP_ASSERT(arena_, "Graph::recycle requires an arena-backed graph");
    destroyOps();
    arena_->mem.reset();
    ports_.clear();
    channels_.clear();
    configSized_.clear();
    // LIFO pooling: a structurally stable rebuild pops channels in a
    // fixed order, so each logical channel settles onto one pooled
    // object whose name/ring storage already fits.
    while (!channelStore_.empty()) {
        channelPool_.push_back(std::move(channelStore_.back()));
        channelStore_.pop_back();
    }
    cfg_ = cfg;
    if (customMem_) {
        // A user-installed model is reset in place; it does not derive
        // from SimConfig.
        mem_->reset();
    } else {
        // Re-arm the default model with the new config's parameters in
        // place (no allocation) so a recycled build matches a fresh
        // Graph(cfg) exactly even when off-chip parameters change.
        static_cast<SimpleBwModel*>(mem_.get())
            ->reinit(cfg_.offChipBwBytesPerCycle, cfg_.offChipLatency);
    }
    spad_.reset();
    ran_ = false;
}

void
Graph::rearm(const SimConfig& cfg)
{
    STEP_ASSERT(!ops_.empty(), "Graph::rearm on an empty graph");
    STEP_ASSERT(cfg.channelLatency == cfg_.channelLatency,
                "channel latency is structural: recycle and rebuild "
                "instead of rearming");
    cfg_ = cfg;
    for (size_t i = 0; i < channels_.size(); ++i)
        channels_[i]->rearm(configSized_[i] ? cfg_.channelCapacity
                                            : channels_[i]->capacity());
    if (customMem_) {
        mem_->reset();
    } else {
        static_cast<SimpleBwModel*>(mem_.get())
            ->reinit(cfg_.offChipBwBytesPerCycle, cfg_.offChipLatency);
    }
    spad_.reset();
    ran_ = false;
    for (OpBase* op : ops_)
        op->rearm(RearmSpec{});
}

uint64_t
Graph::totalChannelTokens() const
{
    uint64_t n = 0;
    for (const dam::Channel* ch : channels_)
        n += ch->totalPushed();
    return n;
}

sym::Expr
Graph::offChipTrafficExpr() const
{
    sym::Expr total;
    for (const auto& op : ops_)
        total += op->offChipTrafficExpr();
    return total;
}

sym::Expr
Graph::onChipMemExpr() const
{
    sym::Expr total;
    for (const auto& op : ops_)
        total += op->onChipMemExpr();
    return total;
}

SimResult
Graph::run()
{
    dam::Scheduler sched;
    return run(sched);
}

SimResult
Graph::run(dam::Scheduler& sched)
{
    STEP_ASSERT(!ran_, "Graph::run() called twice");
    ran_ = true;

    sched.reset();
    for (OpBase* op : ops_)
        sched.add(op);
    sched.run();

    SimResult res;
    res.cycles = sched.elapsed();
    res.contextSwitches = sched.contextSwitches();
    // Drop the scheduler's context pointers now: they reference ops this
    // graph owns, and a long-lived external scheduler must not dangle
    // into them once the graph is destroyed.
    sched.reset();
    const MemStats& ms = mem_->stats();
    res.offChipReadBytes = ms.bytesRead;
    res.offChipWriteBytes = ms.bytesWritten;
    res.offChipBytes = ms.totalBytes();
    res.onChipPeakBytes = spad_.peakAllocatedBytes() + spad_.peakMetaBytes();
    for (const auto& op : ops_) {
        res.totalFlops += op->measuredFlops();
        res.allocatedComputeBw += op->allocatedComputeBw();
        res.onChipPeakBytes += op->measuredOnChipPeakBytes();
    }
    return res;
}

} // namespace step
