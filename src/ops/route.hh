/**
 * @file
 * Dynamic routing and merging operators (section 3.2.3): Partition,
 * Reassemble, EagerMerge — the data-dependent control flow primitives —
 * plus DispatcherOp, the availability-driven selector generator that
 * closes the dynamic-parallelization loop of Figure 16.
 */
#pragma once

#include "ops/common.hh"
#include "ops/graph.hh"

namespace step {

/**
 * Partition routes rank-@p rank chunks of the input stream to the output
 * streams selected by each (multi-hot) selector element. Stops closing
 * selector-level dimensions broadcast to every output so all partitions
 * observe the group structure.
 */
class PartitionOp : public OpBase
{
  public:
    PartitionOp(Graph& g, const std::string& name, StreamPort in,
                StreamPort sel, size_t rank, size_t num_consumers);

    StreamPort out(size_t i) const { return outs_.at(i); }
    size_t numOuts() const { return outs_.size(); }

    dam::SimTask run() override;
    void rearm(const RearmSpec& spec) override;

  private:
    StreamPort in_;
    StreamPort sel_;
    size_t rank_;
    std::vector<StreamPort> outs_;
    std::vector<StopCoalescer> coals_;
};

/**
 * Reassemble merges rank-@p rank chunks from the selected input streams;
 * when a multi-hot selector picks several inputs, chunks are collected in
 * the order input data is available, never interleaving chunks
 * (Figure 4). After all selected inputs are collected a new dimension is
 * added by incrementing the stop token.
 */
class ReassembleOp : public OpBase
{
  public:
    ReassembleOp(Graph& g, const std::string& name,
                 std::vector<StreamPort> ins, StreamPort sel, size_t rank);

    StreamPort out() const { return out_; }

    dam::SimTask run() override;
    void rearm(const RearmSpec& spec) override;

  private:
    std::vector<StreamPort> ins_;
    StreamPort sel_;
    size_t rank_;
    StreamPort out_;
    StopCoalescer coal_;
    /** Per-selection scratch (capacity reused across events). */
    std::vector<uint32_t> selScratch_;
};

/**
 * EagerMerge collects rank-@p rank chunks in arrival order and reports
 * the origin of each chunk on a selector stream. rank 0 merges scalar
 * streams element-wise (completion signals).
 */
class EagerMergeOp : public OpBase
{
  public:
    EagerMergeOp(Graph& g, const std::string& name,
                 std::vector<StreamPort> ins, size_t rank);

    StreamPort out() const { return out_; }
    StreamPort selOut() const { return selOut_; }

    dam::SimTask run() override;
    void rearm(const RearmSpec& spec) override;

  private:
    /** Pick the available input with the earliest head token. */
    int pickAvailable(const std::vector<bool>& done) const;

    std::vector<StreamPort> ins_;
    size_t rank_;
    StreamPort out_;
    StreamPort selOut_;
    StopCoalescer coal_;
    /** Re-block scratch for WaitAny (capacity reused across events). */
    std::vector<dam::Channel*> waitScratch_;
    /** Per-input exhaustion flags; sized at build (run() runs once). */
    std::vector<bool> done_;
};

/**
 * Dispatcher for dynamic parallelization (Figure 16): emits @p total
 * one-hot selectors over @p regions consumers; the first `regions`
 * assignments are round-robin (the FlatMap in the figure), every
 * subsequent assignment targets the region whose completion signal
 * arrives next (the EagerMerge selector input). The round-robin
 * selectors are emitted before any completion is read, so the output is
 * bound with min(regions, total) priming tokens: the initial tokens
 * that keep the feedback cycle live. The output declares @p extent as
 * its length: Dim::fixed(total), or a symbol when the builder rearms the
 * total (RearmSpec::total), since a static extent cannot follow a new
 * total.
 */
class DispatcherOp : public OpBase
{
  public:
    DispatcherOp(Graph& g, const std::string& name, StreamPort completions,
                 size_t regions, uint64_t total, Dim extent);

    StreamPort out() const { return out_; }

    dam::SimTask run() override;
    void rearm(const RearmSpec& spec) override;

  private:
    StreamPort completions_;
    size_t regions_;
    uint64_t total_;
    StreamPort out_;
};

} // namespace step
