#include "mem/scratchpad.hh"

#include "support/error.hh"

namespace step {

int64_t
Scratchpad::pagesFor(int64_t bytes) const
{
    if (bytes <= 0)
        return 1; // even empty buffers hold a mapping entry
    return (bytes + cfg_.pageBytes - 1) / cfg_.pageBytes;
}

uint64_t
Scratchpad::alloc(StoredBuffer buf)
{
    int64_t pages = pagesFor(buf.payloadBytes);
    int64_t alloc_bytes = pages * cfg_.pageBytes;
    int64_t meta_bytes = pages * cfg_.pageMetaBytes;
    if (cfg_.capacityBytes > 0 &&
        liveAllocated_ + alloc_bytes + liveMeta_ + meta_bytes >
            cfg_.capacityBytes) {
        stepFatal("scratchpad capacity exceeded: live="
                  << liveAllocated_ << "B request=" << alloc_bytes
                  << "B cap=" << cfg_.capacityBytes << "B");
    }

    uint64_t id = nextId_++;
    liveBytes_ += buf.payloadBytes;
    liveAllocated_ += alloc_bytes;
    liveMeta_ += meta_bytes;
    peakAllocated_ = std::max(peakAllocated_, liveAllocated_);
    peakMeta_ = std::max(peakMeta_, liveMeta_);
    allocPages_[id] = pages;
    buffers_.emplace(id, std::move(buf));
    return id;
}

const StoredBuffer&
Scratchpad::get(uint64_t id) const
{
    auto it = buffers_.find(id);
    if (it == buffers_.end())
        stepPanic("dangling buffer reference #" << id);
    return it->second;
}

void
Scratchpad::release(uint64_t id)
{
    auto it = buffers_.find(id);
    if (it == buffers_.end())
        stepPanic("double release of buffer #" << id);
    int64_t pages = allocPages_.at(id);
    liveBytes_ -= it->second.payloadBytes;
    liveAllocated_ -= pages * cfg_.pageBytes;
    liveMeta_ -= pages * cfg_.pageMetaBytes;
    allocPages_.erase(id);
    buffers_.erase(it);
}

} // namespace step
