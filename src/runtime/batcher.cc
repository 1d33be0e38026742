#include "runtime/batcher.hh"

#include <algorithm>

#include "runtime/prefixcache.hh"
#include "support/error.hh"

namespace step::runtime {

ContinuousBatcher::ContinuousBatcher(BatcherConfig cfg) : cfg_(cfg)
{
    STEP_ASSERT(cfg_.kvBudgetBytes > 0, "KV budget must be positive");
    STEP_ASSERT(cfg_.kvBytesPerToken > 0, "KV token size must be positive");
}

void
ContinuousBatcher::enqueue(Request* r)
{
    STEP_ASSERT(r->state == ReqState::Queued,
                "request " << r->id << " enqueued in non-Queued state");
    // Oversized requests (worst-case reservation > whole budget) are
    // accepted into the queue: admission sheds them under a policy, or
    // the engine raises a StallError with the diagnostic — structured
    // outcomes where a fatal assert used to live.
    waiting_.push_back(r);
}

ContinuousBatcher::AdmitResult
ContinuousBatcher::admit(const AdmissionPolicy* policy,
                         const AdmissionContext& ctx)
{
    AdmitResult out;
    while (!waiting_.empty() &&
           static_cast<int64_t>(running_.size()) < kMaxRunning) {
        Request* r = waiting_.front();
        // Size the reservation against the uncached suffix: tokens the
        // prefix cache already holds are pinned there, not re-reserved
        // (see Request::kvReservationTokens).
        if (cache_)
            r->cachedPrefixTokens = cache_->matchTokens(*r);
        int64_t need = r->kvReservationTokens() * cfg_.kvBytesPerToken;
        if (policy) {
            AdmissionContext c = ctx;
            c.runningRequests = static_cast<int64_t>(running_.size());
            c.waitingRequests = waitingCount();
            c.kvBudgetBytes = cfg_.kvBudgetBytes;
            c.kvReservedBytes = kvReserved_;
            // A request that can never fit the budget blocks the line
            // forever; shed it structurally whenever shedding is on.
            if (need > cfg_.kvBudgetBytes || policy->shouldShed(*r, c)) {
                waiting_.pop_front();
                r->cachedPrefixTokens = 0; // no pin was taken
                r->state = ReqState::Shed;
                out.shed.push_back(r);
                continue;
            }
            // Brown-out middle rung: admit, but with a truncated output
            // budget. The block-hash view must shrink with it — the
            // finish-time cache insert would otherwise publish blocks
            // this request never generates. Only the view shrinks: the
            // session's other turns share the stored chain.
            int64_t cap = policy->outputCap(*r, c);
            if (cap > 0 && cap < r->outputLen) {
                r->outputLen = cap;
                auto blocks = static_cast<size_t>(
                    (r->promptLen + r->outputLen) / kPrefixBlockTokens);
                if (r->blockHashes.size() > blocks)
                    r->blockHashes.truncate(blocks);
                need = r->kvReservationTokens() * cfg_.kvBytesPerToken;
                out.capped.push_back(r);
            }
        }
        if (kvReserved_ + need > cfg_.kvBudgetBytes) {
            // Not admitted: the match is re-done (and may differ) on the
            // next attempt, so leave no stale state behind.
            r->cachedPrefixTokens = 0;
            break;
        }
        waiting_.pop_front();
        kvReserved_ += need;
        if (cache_)
            cache_->acquire(*r); // pins the matched path until release
        // Tokens that skip prefill compute: the local cache hit or, for
        // a migrated/remote-hit incarnation, the transferred KV.
        r->prefilledTokens = r->prefillSkipTokens();
        r->state = ReqState::Prefilling;
        running_.push_back(r);
        out.admitted.push_back(r);
    }
    return out;
}

std::vector<Request*>
ContinuousBatcher::drainWaiting()
{
    std::vector<Request*> out(waiting_.begin(), waiting_.end());
    waiting_.clear();
    return out;
}

void
ContinuousBatcher::release(Request* r)
{
    auto it = std::find(running_.begin(), running_.end(), r);
    STEP_ASSERT(it != running_.end(),
                "releasing request " << r->id << " that is not running");
    kvReserved_ -= r->kvReservationTokens() * cfg_.kvBytesPerToken;
    STEP_ASSERT(kvReserved_ >= 0, "KV reservation accounting underflow");
    running_.erase(it);
}

int64_t
ContinuousBatcher::waitingPromptTokens() const
{
    int64_t tokens = 0;
    for (const Request* r : waiting_)
        tokens += r->promptLen;
    return tokens;
}

} // namespace step::runtime
