/**
 * @file
 * The STeP program graph: owns operators, channels, and the shared memory
 * resources (off-chip model + scratchpad), provides the builder API used
 * by workloads (the C++ analog of the symbolic Python frontend of
 * section 4.1), aggregates the symbolic metrics of section 4.2, and runs
 * the cycle-approximate simulation of section 4.3.
 */
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dam/scheduler.hh"
#include "mem/mem_model.hh"
#include "mem/scratchpad.hh"
#include "ops/common.hh"
#include "support/arena.hh"

namespace step {

namespace verify {
struct VerifyOptions;
struct VerifyReport;
} // namespace verify

/** Result of one simulation run. */
struct SimResult
{
    dam::Cycle cycles = 0;            ///< makespan over all contexts
    int64_t offChipBytes = 0;         ///< achieved off-chip traffic
    int64_t offChipReadBytes = 0;
    int64_t offChipWriteBytes = 0;
    int64_t onChipPeakBytes = 0;      ///< scratchpad + operator state peak
    int64_t totalFlops = 0;           ///< useful FLOPs executed
    int64_t allocatedComputeBw = 0;   ///< sum of per-op compute bandwidth
    uint64_t contextSwitches = 0;     ///< coroutine resumes during the run

    /** Fraction of allocated compute doing useful work. */
    double
    computeUtilization() const
    {
        if (!cycles || !allocatedComputeBw)
            return 0.0;
        return static_cast<double>(totalFlops) /
               (static_cast<double>(cycles) *
                static_cast<double>(allocatedComputeBw));
    }

    /** Fraction of off-chip bandwidth used, given bytes/cycle peak. */
    double
    offChipBwUtilization(int64_t peak_bytes_per_cycle) const
    {
        if (!cycles || !peak_bytes_per_cycle)
            return 0.0;
        return static_cast<double>(offChipBytes) /
               (static_cast<double>(cycles) *
                static_cast<double>(peak_bytes_per_cycle));
    }
};

class Graph
{
  public:
    /**
     * @param cfg   timing parameters
     * @param arena optional recycling backend. When set, operators are
     *              bump-allocated from it, channel names are interned in
     *              it, and recycle() rewinds the whole build; the arena
     *              must outlive the graph.
     */
    explicit Graph(SimConfig cfg = {}, GraphArena* arena = nullptr);
    ~Graph();

    Graph(const Graph&) = delete;
    Graph& operator=(const Graph&) = delete;

    const SimConfig& config() const { return cfg_; }

    /** Construct and register an operator. */
    template <typename OpT, typename... Args>
    OpT&
    add(Args&&... args)
    {
        OpT* op;
        if (arena_) {
            void* p = arena_->mem.allocate(sizeof(OpT), alignof(OpT));
            op = new (p) OpT(*this, std::forward<Args>(args)...);
        } else {
            op = new OpT(*this, std::forward<Args>(args)...);
        }
        ops_.push_back(op);
        return *op;
    }

    /** Create a channel owned by the graph. */
    dam::Channel& makeChannel(std::string_view name,
                              size_t capacity_override = 0);

    /**
     * Tear down the current build for reuse (arena-backed graphs only):
     * operator destructors run in reverse order, the arena rewinds,
     * channels return to a pool for reinit, and the memory models reset.
     * The next build bump-allocates through the retained blocks, reuses
     * pooled channel storage, and hits the interned name pool — so
     * steady-state rebuilds of a structurally stable graph stop paying
     * per-node heap allocation.
     */
    void recycle(const SimConfig& cfg);

    /**
     * Structure-preserving re-arm: keep every operator and channel of
     * the current build alive and reset only their run-time state
     * (clocks, coroutine frames, FIFO contents, measured metrics,
     * memory models), so the same graph can run again after its
     * per-iteration parameters are patched through OpBase::rearm().
     * This skips the ~190 operator constructors a recycle+rebuild pays
     * and is valid only while the graph structure (operator set,
     * channel wiring and latency) is unchanged — callers key on a
     * structural fingerprint and fall back to recycle() + rebuild on
     * mismatch. Channel depth is not structural: channels created at
     * the configured depth take @p cfg's channelCapacity, and channels
     * created with a makeChannel override keep theirs for the owning
     * builder's rearm to re-size.
     */
    void rearm(const SimConfig& cfg);

    /** Off-chip memory model (default: SimpleBwModel per SimConfig). */
    MemModel& memModel() { return *mem_; }
    void
    setMemModel(std::unique_ptr<MemModel> m)
    {
        mem_ = std::move(m);
        customMem_ = true;
    }

    Scratchpad& scratchpad() { return spad_; }

    /** Sum of per-operator off-chip traffic expressions (section 4.2). */
    sym::Expr offChipTrafficExpr() const;
    /** Sum of per-operator on-chip requirement expressions. */
    sym::Expr onChipMemExpr() const;

    /** Run the simulation; callable once per graph build. */
    [[nodiscard]] SimResult run();

    /**
     * Run the simulation on an externally owned scheduler (reset before
     * use). Lets a long-lived driver such as the serving engine reuse one
     * scheduler across many per-iteration graphs.
     */
    [[nodiscard]] SimResult run(dam::Scheduler& sched);

    /**
     * Statically analyze the current build without executing it
     * (structural well-formedness, shape/dtype flow, deadlock-freedom —
     * see src/verify/verifier.hh). Read-only: verification never
     * changes simulation behavior or output bytes.
     */
    [[nodiscard]] verify::VerifyReport
    verify(const verify::VerifyOptions& opts) const;

    [[nodiscard]] const std::vector<OpBase*>& ops() const { return ops_; }

    /** Live channels of the current build, in creation order. */
    [[nodiscard]] const std::vector<dam::Channel*>&
    channels() const
    {
        return channels_;
    }

    /** Total tokens pushed across all channels (event count). */
    uint64_t totalChannelTokens() const;

  private:
    friend class OpBase;

    void destroyOps();

    SimConfig cfg_;
    GraphArena* arena_ = nullptr;
    std::vector<OpBase*> ops_;
    /**
     * Every operator's port table, back to back in construction order
     * (OpBase::ports() is a slice). One vector kept across recycle()
     * so steady-state rebuilds record ports without allocating.
     */
    std::vector<PortDecl> ports_;
    /** Live channels of the current build (owned via store/pool). */
    std::vector<dam::Channel*> channels_;
    /** Per channel of channels_: created at the configured depth (no
     *  makeChannel override), so rearm() re-sizes it from the config. */
    std::vector<bool> configSized_;
    std::vector<std::unique_ptr<dam::Channel>> channelStore_;
    std::vector<std::unique_ptr<dam::Channel>> channelPool_;
    std::unique_ptr<MemModel> mem_;
    bool customMem_ = false;
    Scratchpad spad_;
    bool ran_ = false;
};

} // namespace step
