/**
 * @file
 * Intrusive reference count for immutable shared payload blocks. It is
 * atomic because cluster replicas copy and drop shared payloads on
 * their own worker threads.
 */
#pragma once

#include <atomic>
#include <cstdint>

namespace step::detail {

/** Intrusive reference count at the head of every shared payload block
 *  (tile floats, spilled selector indices, tuple elements, block-hash
 *  chains). */
struct RefCount
{
    std::atomic<uint32_t> refs{1};

    void retain() noexcept { refs.fetch_add(1); }

    /** Drop one reference; true when it was the last. */
    bool release() noexcept { return refs.fetch_sub(1) == 1; }
};

} // namespace step::detail
