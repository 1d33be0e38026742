/**
 * @file
 * Monotonic arena backing graph recycling. Allocating operator objects
 * from a bump arena lets Graph::recycle() release a whole build's nodes
 * by running destructors and resetting an offset; the blocks are reused
 * by the next build, so rebuilding a graph performs no large
 * allocations. Channel names need no arena: a pooled channel keeps its
 * own name string and reuses its buffer (dam::Channel::reinit).
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace step {

/**
 * Bump allocator over retained blocks. allocate() never constructs;
 * reset() never frees — callers run destructors themselves (Graph does,
 * in reverse construction order) and subsequent builds bump through the
 * same memory.
 */
class MonotonicArena
{
  public:
    static constexpr size_t kDefaultBlockBytes = 64 * 1024;

    explicit MonotonicArena(size_t block_bytes = kDefaultBlockBytes)
        : blockBytes_(block_bytes)
    {}

    void*
    allocate(size_t size, size_t align)
    {
        for (;;) {
            if (cur_ < blocks_.size()) {
                Block& b = blocks_[cur_];
                // Align the actual address: the block base is only
                // guaranteed new[]-aligned, which over-aligned types
                // can exceed.
                auto base = reinterpret_cast<uintptr_t>(b.data.get());
                uintptr_t at = (base + b.used + align - 1) &
                               ~static_cast<uintptr_t>(align - 1);
                if (at + size <= base + b.size) {
                    b.used = at + size - base;
                    return reinterpret_cast<void*>(at);
                }
                ++cur_;
                continue;
            }
            size_t want = std::max(blockBytes_, size + align);
            blocks_.push_back(Block{
                std::make_unique<std::byte[]>(want), want, 0});
        }
    }

    /** Rewind every block; memory is retained for the next build. */
    void
    reset()
    {
        for (Block& b : blocks_)
            b.used = 0;
        cur_ = 0;
    }

    size_t
    retainedBytes() const
    {
        size_t n = 0;
        for (const Block& b : blocks_)
            n += b.size;
        return n;
    }

  private:
    struct Block
    {
        std::unique_ptr<std::byte[]> data;
        size_t size = 0;
        size_t used = 0;
    };

    size_t blockBytes_;
    std::vector<Block> blocks_;
    size_t cur_ = 0;
};

/** Everything a recyclable graph retains across iterations. */
struct GraphArena
{
    MonotonicArena mem;
};

} // namespace step
