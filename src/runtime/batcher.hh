/**
 * @file
 * Admission queue + iteration-level continuous batcher. Requests wait in
 * FIFO order; at every batching iteration the engine asks the batcher to
 * admit as many waiting requests as fit under the KV-memory budget and
 * the batch-size cap. Admission reserves the request's worst-case KV
 * footprint (prompt + max output), so an admitted request never has to
 * be preempted — the simple deterministic discipline of iteration-level
 * continuous batching. With a prefix cache attached, the footprint is
 * sized against the *uncached suffix* only: the cached prefix's KV is
 * already resident and pinned in the cache, so reserving it again would
 * double-count exactly the tokens prefix sharing saves.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "runtime/faults.hh"
#include "runtime/request.hh"

namespace step::runtime {

struct BatcherConfig
{
    /** KV-cache capacity in bytes. */
    int64_t kvBudgetBytes = int64_t{1} << 26;
    /** KV bytes per cached token: K and V in BF16, 2 x numKvHeads x
     *  headDim x 2 bytes (256 for the serving-sim model). */
    int64_t kvBytesPerToken = 256;
};

class PrefixCache;

class ContinuousBatcher
{
  public:
    /** Maximum concurrently running requests. */
    static constexpr int64_t kMaxRunning = 64;

    explicit ContinuousBatcher(BatcherConfig cfg);

    /**
     * Attach the engine's prefix cache (may be null). Admission then
     * looks up the longest cached prefix per request, reserves KV only
     * for the uncached suffix, and pins the matched path until the
     * request is released.
     */
    void attachPrefixCache(PrefixCache* cache) { cache_ = cache; }

    /**
     * A request has arrived; it joins the admission queue. A request
     * whose worst-case reservation exceeds the whole KV budget is
     * accepted here but can never admit: with an admission policy
     * attached it is shed at the next admission round, without one the
     * engine raises a StallError carrying the diagnostic — either way a
     * structured outcome instead of the former fatal assert.
     */
    void enqueue(Request* r);

    /** Outcome of one admission round. */
    struct AdmitResult
    {
        std::vector<Request*> admitted;
        /** Dropped by the admission policy (state set to Shed; the
         *  caller stamps finishedAt and accounts them). */
        std::vector<Request*> shed;
        /** Admitted with outputLen truncated by the policy's outputCap
         *  (brown-out middle rung); subset of admitted. */
        std::vector<Request*> capped;
    };

    /**
     * Admit waiting requests in FIFO order while the KV reservation and
     * batch cap allow; head-of-line blocking is deliberate (keeps
     * admission fair and deterministic). Admitted requests move to
     * Prefilling (with cachedPrefixTokens and the prefilledTokens
     * baseline set from the prefix cache). With @p policy attached,
     * each request is offered to it (post-cache-match, so the policy
     * sees the true uncached suffix) before the budget check; requests
     * it sheds — plus any request that could never fit the budget at
     * all — leave the queue as Shed instead of blocking the line.
     */
    AdmitResult admit(const AdmissionPolicy* policy = nullptr,
                      const AdmissionContext& ctx = {});

    /** Release a finished or failed request's KV reservation and drop
     *  it from the running set. */
    void release(Request* r);

    /**
     * Remove and return every waiting request (admission-queue drop on
     * replica crash: the caller marks them failed and releases any
     * cache state). The returned pointers are in FIFO order.
     */
    std::vector<Request*> drainWaiting();

    const std::vector<Request*>& running() const { return running_; }
    /** The admission queue, head first (stall diagnostics). */
    const std::deque<Request*>& waiting() const { return waiting_; }
    int64_t waitingCount() const
    {
        return static_cast<int64_t>(waiting_.size());
    }
    /** Total un-prefilled prompt tokens still waiting for admission. */
    int64_t waitingPromptTokens() const;

    int64_t kvBytesReserved() const { return kvReserved_; }
    int64_t kvBudgetBytes() const { return cfg_.kvBudgetBytes; }

  private:
    BatcherConfig cfg_;
    PrefixCache* cache_ = nullptr;
    std::deque<Request*> waiting_;
    std::vector<Request*> running_;
    int64_t kvReserved_ = 0;
};

} // namespace step::runtime
