/**
 * @file
 * KV prefix cache for the serving runtime: a radix tree over chained
 * token-block hashes (see Request::blockHashes) modeling the KV blocks a
 * replica retains beyond its per-request reservations. Shared system
 * prompts and multi-turn conversations make most prefix tokens of a
 * "new" request already resident; admission looks up the longest cached
 * prefix and charges prefill flops and KV reservation only for the
 * uncached suffix — the dominant real-serving saving the cold-prompt
 * model misses.
 *
 * Structure: one node per cached block, children keyed by the child's
 * chained hash (a chained hash commits to the whole prefix, so hash
 * equality is prefix equality and the tree deduplicates shared prefixes
 * across sessions automatically). Nodes are ref-counted by in-flight
 * pins: an admitted request pins its matched path until it finishes, so
 * eviction can never drop KV a running request depends on. Capacity is
 * a token budget; eviction is LRU over unpinned *leaves* only (interior
 * nodes are shared by definition — leaf-first keeps the tree a tree and
 * drops the least-shared content first), with (lastUsed, creation id)
 * ordering so every run is bit-identical for a fixed call sequence.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <unordered_map>

#include "runtime/request.hh"

namespace step::runtime {

struct PrefixCacheConfig
{
    /**
     * KV-token capacity of the cache; 0 disables it entirely (the
     * engine then behaves bit-identically to a cache-less build).
     * Occupancy is counted in whole blocks of kPrefixBlockTokens.
     */
    int64_t capacityTokens = 0;
};

/** Monotone counters + occupancy snapshot; engine copies the totals
 *  into ServingSummary at the end of a run. */
struct PrefixCacheStats
{
    int64_t lookups = 0;     ///< admissions that consulted the cache
    int64_t hits = 0;        ///< lookups matching at least one block
    int64_t tokensSaved = 0; ///< prompt tokens served from cache
    int64_t insertedBlocks = 0;
    int64_t evictedBlocks = 0;
    /** Blocks an insert wanted but could not place because capacity was
     *  exhausted by pinned content (never silently exceeds capacity). */
    int64_t skippedBlocks = 0;
    int64_t occupancyTokens = 0;
    int64_t peakOccupancyTokens = 0;
};

class PrefixCache
{
  public:
    explicit PrefixCache(PrefixCacheConfig cfg);
    ~PrefixCache();

    PrefixCache(const PrefixCache&) = delete;
    PrefixCache& operator=(const PrefixCache&) = delete;

    /**
     * Longest cached prefix of @p r's prompt, in tokens — a pure query
     * (no pins, no LRU touch, no counters), used by admission to size
     * the KV reservation before deciding whether the request fits.
     * Block-granular and capped at promptLen - 1 (the last prompt token
     * is always processed so the first output token has a compute event
     * to come from).
     */
    int64_t matchTokens(const Request& r) const;

    /**
     * Re-walk the match, pin the matched path against eviction, bump
     * its LRU stamps, record the hit/saved-token counters, and set
     * r.cachedPrefixTokens. Must follow a matchTokens() call with no
     * intervening mutation (admission does exactly this); asserts the
     * walk agrees with r.cachedPrefixTokens when already set. One
     * acquire per admitted request; release(r) when it finishes.
     */
    void acquire(Request& r);

    /** Drop the pin taken by acquire (no-op if none, e.g. a cold miss). */
    void release(const Request& r);

    /**
     * Insert the first @p nblocks of @p block_hashes, reusing any
     * cached prefix and evicting LRU unpinned leaves to make room.
     * Blocks that cannot fit once nothing evictable remains are skipped
     * (counted in stats().skippedBlocks) — capacity is never exceeded.
     * The engine calls this with the prompt blocks when a request
     * finishes prefill, and with the full prompt+output stream when it
     * finishes, so a session's next turn can hit its predecessor's
     * whole context.
     */
    void insert(std::span<const uint64_t> block_hashes, int64_t nblocks);

    const PrefixCacheStats& stats() const { return stats_; }
    int64_t occupancyTokens() const { return stats_.occupancyTokens; }
    int64_t capacityTokens() const { return cfg_.capacityTokens; }
    /** In-flight pins outstanding (one per acquired request). Must be 0
     *  after every sim — the abort-path accounting invariant. */
    int64_t pinnedRequests() const
    {
        return static_cast<int64_t>(pinned_.size());
    }

  private:
    struct Node
    {
        uint64_t hash = 0;
        uint64_t id = 0;       ///< creation order; deterministic tiebreak
        uint64_t lastUsed = 0;    ///< LRU stamp (monotone operation tick)
        int64_t pins = 0;      ///< in-flight references incl. descendants
        Node* parent = nullptr;
        /** Ordered map: child iteration (destruction, debug) is
         *  deterministic without relying on hash-table order. */
        std::map<uint64_t, std::unique_ptr<Node>> children;
    };

    /** Deepest node matching block_hashes[0..nblocks); may be root_. */
    Node* walk(std::span<const uint64_t> block_hashes,
               int64_t nblocks) const;
    int64_t depthOf(const Node* n) const;
    bool evictable(const Node* n) const;
    void evictRemove(Node* n);
    void evictAddIfEligible(Node* n);
    /** Evict the LRU unpinned leaf; false if none exists. */
    bool evictOne();

    PrefixCacheConfig cfg_;
    PrefixCacheStats stats_;
    mutable Node root_; ///< sentinel: depth 0, never evicted
    uint64_t tick_ = 0;
    uint64_t nextId_ = 1;
    /** (lastUsed, id) of every unpinned leaf — the eviction frontier. */
    std::set<std::pair<uint64_t, uint64_t>> evictQueue_;
    std::unordered_map<uint64_t, Node*> byId_;
    /** Deepest pinned node per admitted request (the incarnation
     *  object: each incarnation holds its own pin). */
    std::unordered_map<const Request*, Node*> pinned_;
};

} // namespace step::runtime
