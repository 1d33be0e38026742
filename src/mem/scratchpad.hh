/**
 * @file
 * On-chip scratchpad memory. Bufferize allocates here and emits buffer
 * references; Streamify reads them back (section 3.2.2). To support
 * dynamically-sized tensors, allocation is virtualized at a fixed page
 * granularity with a mapping table, exactly the mechanism sketched in
 * section 6.2 ("allocating space at a fixed granularity independent of
 * stream length and maintaining mappings between stream references and
 * their memory addresses"); the mapping metadata is accounted so the ~6%
 * overhead claim can be checked.
 */
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/token.hh"

namespace step {

struct ScratchpadConfig
{
    /** Page granularity for virtualized allocation. */
    int64_t pageBytes = 2048;
    /** Bytes of mapping metadata per page (one table entry). */
    int64_t pageMetaBytes = 8;
    /** Optional capacity limit; 0 = unlimited (tracking only). */
    int64_t capacityBytes = 0;
};

/**
 * Contents of one allocated on-chip buffer: the stored sub-stream (data
 * tokens and stop tokens, no Done) plus, when the buffered region is
 * regular, its tile-grid extents for affine Streamify reads.
 */
struct StoredBuffer
{
    std::vector<Token> toks;
    int64_t payloadBytes = 0;
    /** Tile-grid extents, innermost last; empty when ragged/irregular. */
    std::vector<int64_t> gridDims;
    /** Buffer rank as declared by Bufferize. */
    size_t rank = 0;
};

class Scratchpad
{
  public:
    explicit Scratchpad(ScratchpadConfig cfg = {}) : cfg_(cfg) {}

    /** Allocate and register a buffer; returns its reference id. */
    uint64_t alloc(StoredBuffer buf);

    /** Look up a live buffer. */
    const StoredBuffer& get(uint64_t id) const;

    /** Release a buffer (deallocates its pages). */
    void release(uint64_t id);

    /** Live payload bytes right now. */
    int64_t liveBytes() const { return liveBytes_; }
    /** Live bytes rounded to page granularity + metadata. */
    int64_t liveAllocatedBytes() const { return liveAllocated_; }
    int64_t liveMetaBytes() const { return liveMeta_; }

    /** High-water marks over the run (on-chip memory requirement). */
    int64_t peakAllocatedBytes() const { return peakAllocated_; }
    int64_t peakMetaBytes() const { return peakMeta_; }

    uint64_t numAllocs() const { return nextId_; }
    size_t numLive() const { return buffers_.size(); }

    /** Drop all buffers and watermarks (graph recycling). */
    void
    reset()
    {
        buffers_.clear();
        allocPages_.clear();
        nextId_ = 0;
        liveBytes_ = 0;
        liveAllocated_ = 0;
        liveMeta_ = 0;
        peakAllocated_ = 0;
        peakMeta_ = 0;
    }

    const ScratchpadConfig& config() const { return cfg_; }

  private:
    int64_t pagesFor(int64_t bytes) const;

    ScratchpadConfig cfg_;
    std::unordered_map<uint64_t, StoredBuffer> buffers_;
    std::unordered_map<uint64_t, int64_t> allocPages_;
    uint64_t nextId_ = 0;
    int64_t liveBytes_ = 0;
    int64_t liveAllocated_ = 0;
    int64_t liveMeta_ = 0;
    int64_t peakAllocated_ = 0;
    int64_t peakMeta_ = 0;
};

} // namespace step
