/**
 * @file
 * Fixed-capacity-friendly ring buffer used for channel entry/credit
 * storage. Unlike std::deque it never allocates per push in steady
 * state: storage is a single power-of-two array that is reused in place,
 * growing (amortized, doubling) only when the occupancy high-water mark
 * rises.
 *
 * Slots are raw storage: an element is alive only between the push that
 * constructs it in a dead slot and the pop that ends it. A pop either
 * destroys the element (pop_front) or, when the caller has already
 * relocated it out bytewise, just vacates the slot
 * (pop_front_relocated), so a channel hop never leaves an empty shell
 * behind to be released on the next push. clear() and the destructor
 * destroy whatever is still live.
 */
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "support/error.hh"

namespace step {

template <typename T>
class Ring
{
  public:
    Ring() = default;
    Ring(const Ring&) = delete;
    Ring& operator=(const Ring&) = delete;

    ~Ring()
    {
        clear();
        deallocate();
    }

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }
    size_t capacity() const { return cap_; }

    T&
    front()
    {
        STEP_ASSERT(size_ > 0, "front() on empty ring");
        return buf_[head_];
    }

    const T&
    front() const
    {
        STEP_ASSERT(size_ > 0, "front() on empty ring");
        return buf_[head_];
    }

    T&
    back()
    {
        STEP_ASSERT(size_ > 0, "back() on empty ring");
        return buf_[(head_ + size_ - 1) & mask_];
    }

    const T&
    back() const
    {
        STEP_ASSERT(size_ > 0, "back() on empty ring");
        return buf_[(head_ + size_ - 1) & mask_];
    }

    /** i-th element from the front (0 = front). */
    const T&
    at(size_t i) const
    {
        STEP_ASSERT(i < size_, "ring index " << i << " out of " << size_);
        return buf_[(head_ + i) & mask_];
    }

    /** Construct an element at the back, in place in a dead slot. */
    template <typename... Args>
    T&
    emplace_back(Args&&... args)
    {
        if (size_ == cap_)
            grow(cap_ ? cap_ * 2 : 8);
        T* slot = buf_ + ((head_ + size_) & mask_);
        ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
        ++size_;
        return *slot;
    }

    void push_back(T v) { emplace_back(std::move(v)); }

    /** Destroy the front element. */
    void
    pop_front()
    {
        front().~T();
        advance();
    }

    /**
     * Vacate the front slot without running a destructor: the caller
     * has relocated the element out bytewise (its representation now
     * lives elsewhere), so the slot is already dead.
     */
    void
    pop_front_relocated()
    {
        STEP_ASSERT(size_ > 0, "pop_front_relocated() on empty ring");
        advance();
    }

    /** Destroy all elements; keeps the storage. */
    void
    clear()
    {
        if constexpr (!std::is_trivially_destructible_v<T>) {
            for (size_t i = 0; i < size_; ++i)
                buf_[(head_ + i) & mask_].~T();
        }
        head_ = 0;
        size_ = 0;
    }

    /** Ensure capacity for at least @p n elements without reallocation. */
    void
    reserve(size_t n)
    {
        if (n > cap_)
            grow(n);
    }

  private:
    void
    advance()
    {
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    // Out of line: growth is rare (the occupancy high-water mark), and
    // keeping it out of emplace_back keeps the per-token push short.
    [[gnu::noinline]] void
    grow(size_t min_cap)
    {
        size_t cap = cap_ ? cap_ : 8;
        while (cap < min_cap)
            cap *= 2;
        T* next = std::allocator<T>{}.allocate(cap);
        for (size_t i = 0; i < size_; ++i) {
            T& old = buf_[(head_ + i) & mask_];
            ::new (static_cast<void*>(next + i)) T(std::move(old));
            old.~T();
        }
        deallocate();
        buf_ = next;
        cap_ = cap;
        mask_ = cap - 1;
        head_ = 0;
    }

    void
    deallocate()
    {
        if (buf_)
            std::allocator<T>{}.deallocate(buf_, cap_);
        buf_ = nullptr;
    }

    T* buf_ = nullptr;
    size_t cap_ = 0;
    size_t mask_ = 0;
    size_t head_ = 0;
    size_t size_ = 0;
};

} // namespace step
