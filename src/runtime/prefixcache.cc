#include "runtime/prefixcache.hh"

#include <algorithm>
#include <vector>

#include "support/error.hh"

namespace step::runtime {

PrefixCache::PrefixCache(PrefixCacheConfig cfg) : cfg_(cfg)
{
    STEP_ASSERT(cfg_.capacityTokens >= 0, "negative prefix-cache capacity");
    STEP_ASSERT(cfg_.capacityTokens == 0 ||
                    cfg_.capacityTokens >= kPrefixBlockTokens,
                "prefix-cache capacity below one block ("
                    << kPrefixBlockTokens << " tokens)");
}

// unique_ptr children destruct recursively; prefix chains are a few
// hundred blocks deep at most, well within stack limits.
PrefixCache::~PrefixCache() = default;

PrefixCache::Node*
PrefixCache::walk(std::span<const uint64_t> block_hashes,
                  int64_t nblocks) const
{
    Node* n = &root_;
    for (int64_t i = 0; i < nblocks; ++i) {
        auto it = n->children.find(block_hashes[static_cast<size_t>(i)]);
        if (it == n->children.end())
            break;
        n = it->second.get();
    }
    return n;
}

int64_t
PrefixCache::depthOf(const Node* n) const
{
    int64_t d = 0;
    for (; n != &root_; n = n->parent)
        ++d;
    return d;
}

int64_t
PrefixCache::matchTokens(const Request& r) const
{
    if (cfg_.capacityTokens == 0 || r.blockHashes.empty() ||
        r.promptBlocks == 0)
        return 0;
    const int64_t nblocks =
        std::min<int64_t>(r.promptBlocks,
                          static_cast<int64_t>(r.blockHashes.size()));
    Node* deepest = walk(r.blockHashes, nblocks);
    int64_t matched = depthOf(deepest) * kPrefixBlockTokens;
    // The final prompt token always runs through prefill so the first
    // output token has a compute event to come from (and TTFT stays
    // strictly after arrival).
    return std::min(matched, r.promptLen - 1);
}

bool
PrefixCache::evictable(const Node* n) const
{
    return n != &root_ && n->children.empty() && n->pins == 0;
}

void
PrefixCache::evictRemove(Node* n)
{
    evictQueue_.erase({n->lastUsed, n->id});
}

void
PrefixCache::evictAddIfEligible(Node* n)
{
    if (evictable(n))
        evictQueue_.insert({n->lastUsed, n->id});
}

void
PrefixCache::acquire(Request& r)
{
    if (cfg_.capacityTokens == 0)
        return;
    ++stats_.lookups;
    if (r.blockHashes.empty() || r.promptBlocks == 0)
        return;
    const int64_t nblocks =
        std::min<int64_t>(r.promptBlocks,
                          static_cast<int64_t>(r.blockHashes.size()));
    Node* deepest = walk(r.blockHashes, nblocks);
    int64_t matched = std::min(depthOf(deepest) * kPrefixBlockTokens,
                               r.promptLen - 1);
    STEP_ASSERT(r.cachedPrefixTokens == 0 ||
                    r.cachedPrefixTokens == matched,
                "acquire disagrees with the matchTokens admission sized "
                "against (cache mutated in between?)");
    r.cachedPrefixTokens = matched;
    if (matched <= 0)
        return;
    ++stats_.hits;
    stats_.tokensSaved += matched;
    // Pin and freshen the whole matched path; the pin holds until the
    // request finishes, so eviction can never drop in-flight KV.
    for (Node* n = deepest; n != &root_; n = n->parent) {
        evictRemove(n);
        ++n->pins;
        n->lastUsed = ++tick_;
    }
    STEP_ASSERT(pinned_.find(&r) == pinned_.end(),
                "request " << r.id << " acquired the prefix cache twice");
    pinned_.emplace(&r, deepest);
}

void
PrefixCache::release(const Request& r)
{
    auto it = pinned_.find(&r);
    if (it == pinned_.end())
        return;
    for (Node* n = it->second; n != &root_; n = n->parent) {
        STEP_ASSERT(n->pins > 0, "prefix-cache pin underflow");
        --n->pins;
        evictAddIfEligible(n);
    }
    pinned_.erase(it);
}

bool
PrefixCache::evictOne()
{
    if (evictQueue_.empty())
        return false;
    auto [tick, id] = *evictQueue_.begin();
    evictQueue_.erase(evictQueue_.begin());
    auto it = byId_.find(id);
    STEP_ASSERT(it != byId_.end(), "evict queue references unknown node");
    Node* n = it->second;
    STEP_ASSERT(evictable(n), "evict queue held a non-evictable node");
    Node* parent = n->parent;
    byId_.erase(it);
    parent->children.erase(n->hash); // frees n
    stats_.occupancyTokens -= kPrefixBlockTokens;
    ++stats_.evictedBlocks;
    evictAddIfEligible(parent); // may have just become an unpinned leaf
    return true;
}

void
PrefixCache::insert(std::span<const uint64_t> block_hashes,
                    int64_t nblocks)
{
    if (cfg_.capacityTokens == 0)
        return;
    nblocks = std::min<int64_t>(nblocks,
                                static_cast<int64_t>(block_hashes.size()));
    Node* n = &root_;
    // Pin the path as we descend so eviction pressure from this very
    // insert cannot cannibalize it; unpinned on the way out.
    std::vector<Node*> path;
    path.reserve(static_cast<size_t>(nblocks));
    for (int64_t i = 0; i < nblocks; ++i) {
        uint64_t h = block_hashes[static_cast<size_t>(i)];
        auto it = n->children.find(h);
        Node* child;
        if (it != n->children.end()) {
            child = it->second.get();
        } else {
            while (stats_.occupancyTokens + kPrefixBlockTokens >
                       cfg_.capacityTokens &&
                   evictOne()) {
            }
            if (stats_.occupancyTokens + kPrefixBlockTokens >
                cfg_.capacityTokens) {
                stats_.skippedBlocks += nblocks - i;
                break;
            }
            auto node = std::make_unique<Node>();
            child = node.get();
            child->hash = h;
            child->id = nextId_++;
            child->parent = n;
            // The parent stops being a leaf; its evict entry (if any)
            // disappears until it is childless again.
            evictRemove(n);
            n->children.emplace(h, std::move(node));
            byId_.emplace(child->id, child);
            stats_.occupancyTokens += kPrefixBlockTokens;
            stats_.peakOccupancyTokens = std::max(
                stats_.peakOccupancyTokens, stats_.occupancyTokens);
            ++stats_.insertedBlocks;
        }
        evictRemove(child);
        ++child->pins;
        child->lastUsed = ++tick_;
        path.push_back(child);
        n = child;
    }
    for (Node* p : path) {
        --p->pins;
        evictAddIfEligible(p);
    }
}

} // namespace step::runtime
