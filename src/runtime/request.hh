/**
 * @file
 * Request model for the serving runtime. A request is a prompt that must
 * be prefilled, then a sequence of decode tokens, with an arrival time
 * drawn from a seeded synthetic workload (Poisson or bursty on/off
 * modulated Poisson). This is the request-level dynamism — variable KV
 * lengths, variable batch composition, bursty load — that the STeP
 * paper's streaming abstraction is built to exploit.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "dam/task.hh"
#include "support/error.hh"
#include "support/refcount.hh"

namespace step::runtime {

enum class ReqState : uint8_t {
    Queued,     ///< arrived, waiting for admission
    Prefilling, ///< admitted, prompt being processed
    Decoding,   ///< first token emitted, generating
    Finished,
    Failed, ///< terminal: its replica crashed (may be retried elsewhere)
    Shed,   ///< terminal: dropped by the admission policy
    /**
     * Terminal *here*: drained off a degraded replica by the resilience
     * tier, carrying its KV to a healthy one. Like Failed it marks an
     * incarnation that ended without completing, but the work was
     * handed off rather than lost — the cluster reschedules it with a
     * modeled KV-transfer cost instead of a client-visible failure.
     */
    Migrated,
};

/**
 * Request priority class for the brown-out ladder: under overload the
 * cluster sheds Low first, then caps everyone below High, and at the
 * top rung refuses all but High. Normal is the default everywhere so a
 * priority-blind build behaves identically.
 */
enum class ReqPriority : uint8_t { Low, Normal, High };

/**
 * Tokens per prefix-cache block. Prompt content is identified by a
 * chained hash per block of this many tokens (see Request::blockHashes);
 * the prefix cache stores and evicts whole blocks, so trace generation
 * and the cache must agree on the granularity — hence one shared
 * constant rather than two config knobs that could drift apart.
 */
constexpr int64_t kPrefixBlockTokens = 16;

/**
 * SplitMix64-style 2-to-1 mixer used for synthetic token content and
 * chained block hashes. Not cryptographic; 64-bit collisions are
 * negligible at trace scale.
 */
constexpr uint64_t
prefixHashMix(uint64_t a, uint64_t b)
{
    uint64_t z = a + 0x9e3779b97f4a7c15ULL +
                 (b ^ (b >> 31)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * A request's chained block hashes (see Request::blockHashes): a view of
 * the first size() hashes of one immutable, refcounted block. A
 * conversation trace stores each session's chain once and every turn
 * views a prefix of it, so the turns and every copy of a request share
 * one block. Like SelectorIndices it is trivially relocatable, and a
 * copy is a pointer copy plus one refcount increment. The empty view
 * holds no block.
 */
class BlockHashes
{
  public:
    /** User-provided, so g++ 12 builds a default Request field by
     *  field: a defaulted one let it zero-fill the whole Request with
     *  `rep stos`, 6 % of single-turn trace generation on a Xeon. */
    BlockHashes() noexcept {}

    /** A new block storing @p hashes, viewed whole (none if empty). */
    explicit BlockHashes(std::span<const uint64_t> hashes);

    BlockHashes(const BlockHashes& o) noexcept
        : block_(o.block_), n_(o.n_)
    {
        retain();
    }
    BlockHashes(BlockHashes&& o) noexcept : block_(o.block_), n_(o.n_)
    {
        o.block_ = nullptr;
        o.n_ = 0;
    }

    BlockHashes&
    operator=(const BlockHashes& o) noexcept
    {
        if (this != &o) {
            o.retain();
            release();
            block_ = o.block_;
            n_ = o.n_;
        }
        return *this;
    }

    BlockHashes&
    operator=(BlockHashes&& o) noexcept
    {
        if (this != &o) {
            release();
            block_ = o.block_;
            n_ = o.n_;
            o.block_ = nullptr;
            o.n_ = 0;
        }
        return *this;
    }

    ~BlockHashes() { release(); }

    /** The first @p n hashes, viewing the same block. */
    BlockHashes
    prefix(size_t n) const
    {
        BlockHashes v(*this);
        v.truncate(n);
        return v;
    }

    /** Shrink the view to its first @p n hashes; the block itself is
     *  never written once built, so other views keep theirs. */
    void
    truncate(size_t n)
    {
        STEP_ASSERT(n <= n_, "block-hash view of " << n_
                                 << " cannot grow to " << n);
        n_ = n;
    }

    size_t size() const { return n_; }
    bool empty() const { return n_ == 0; }
    const uint64_t* data() const
    {
        return block_ != nullptr ? block_->hashes() : nullptr;
    }
    const uint64_t* begin() const { return data(); }
    const uint64_t* end() const { return data() + n_; }

    /** Hashes the viewed block stores (at least size()); 0 without one. */
    size_t stored() const { return block_ != nullptr ? block_->n : 0; }

    /** Equal hashes, whichever blocks hold them. */
    bool
    operator==(const BlockHashes& o) const
    {
        return std::equal(begin(), end(), o.begin(), o.end());
    }

  private:
    /** Refcount header; the hashes follow it in the same allocation. */
    struct alignas(uint64_t) Block
    {
        detail::RefCount rc;
        uint32_t n = 0;

        uint64_t* hashes() { return reinterpret_cast<uint64_t*>(this + 1); }
    };

    void
    retain() const noexcept
    {
        if (block_ != nullptr)
            block_->rc.retain();
    }

    void
    release() noexcept
    {
        if (block_ != nullptr && block_->rc.release())
            freeBlock(block_);
    }

    static void freeBlock(Block* b) noexcept;

    Block* block_ = nullptr;
    size_t n_ = 0;
};

struct Request
{
    int64_t id = 0;
    dam::Cycle arrival = 0;
    int64_t promptLen = 0; ///< tokens to prefill
    int64_t outputLen = 1; ///< tokens to generate (includes first token)

    // ---- conversation / prefix identity ------------------------------
    /** Session this request belongs to; -1 for single-turn traces. */
    int64_t sessionId = -1;
    /** Turn index within the session (0-based). */
    int64_t turn = 0;
    /**
     * Chained hashes of the request's token stream (prompt followed by
     * its own output), one per kPrefixBlockTokens full block. Hash i
     * commits to every token in blocks [0, i], so equal hashes mean
     * equal prefixes; a turn's stream is a strict prefix of the next
     * turn's stream in the same session, and every turn views the
     * session's one stored chain. Empty for legacy traces (no token
     * content — the prefix cache then never matches).
     */
    BlockHashes blockHashes;
    /** How many of blockHashes lie entirely within the prompt. */
    int64_t promptBlocks = 0;
    /**
     * Dominant-prefix key for cache-affinity routing: the chained hash
     * of the session's first-turn prompt (shared by every turn of the
     * session, distinct across sessions). 0 for legacy traces — the
     * affinity router then places each request least-loaded, with no
     * stickiness to preserve.
     */
    uint64_t affinityKey = 0;

    // ---- service-level constraints -----------------------------------
    /**
     * Absolute completion deadline (cycles); 0 = none, the default —
     * every layer then behaves bit-identically to a deadline-less
     * build. A deadline-aware admission policy may shed a request whose
     * deadline is provably unmeetable; a retry policy never re-submits
     * past it; a request finishing after it counts as a deadline miss.
     */
    dam::Cycle deadlineAt = 0;
    /** Submission attempt (0 = original; bumped per cluster retry). */
    int64_t attempt = 0;
    /** Brown-out class; Normal keeps priority-blind builds identical. */
    ReqPriority priority = ReqPriority::Normal;

    // ---- dynamic serving state --------------------------------------
    ReqState state = ReqState::Queued;
    int64_t prefilledTokens = 0;
    /** Sub-token prefill progress (flops), engine bookkeeping. */
    double prefillFlopsDone = 0.0;
    int64_t generated = 0;
    dam::Cycle firstTokenAt = 0; ///< valid once generated >= 1
    /** Terminal stamp: completion, failure, or shed cycle. */
    dam::Cycle finishedAt = 0;
    /**
     * Prompt tokens already resident in the prefix cache at admission
     * (set by ContinuousBatcher::admit, 0 when the cache is disabled or
     * cold). Capped at promptLen - 1: the final prompt token is always
     * processed so the first output token has a compute event to come
     * from. Fixed for the request's lifetime once admitted.
     */
    int64_t cachedPrefixTokens = 0;
    /**
     * Prompt tokens whose KV arrives over the wire instead of being
     * recomputed: migrated KV shards and cross-replica prefix-cache
     * fetches. The transfer latency is charged by the cluster before
     * the incarnation re-arrives; here the tokens only skip prefill
     * compute — unlike cachedPrefixTokens they are NOT resident in the
     * local cache, so they reserve KV budget like any other token.
     */
    int64_t remoteKvTokens = 0;

    /** Current KV context length (prompt + generated so far). */
    int64_t contextLen() const { return promptLen + generated; }

    /**
     * Prompt tokens that skip prefill compute: the better of the local
     * cache hit and the remotely transferred KV (they overlap — both
     * cover a prefix of the prompt). Capped like cachedPrefixTokens so
     * the first output token always has a compute event.
     */
    int64_t prefillSkipTokens() const
    {
        int64_t remote = remoteKvTokens;
        if (remote > promptLen - 1)
            remote = promptLen - 1;
        return cachedPrefixTokens > remote ? cachedPrefixTokens : remote;
    }

    /**
     * KV tokens this request must newly reserve at admission: the
     * worst-case footprint (prompt + max output) minus the cached-prefix
     * tokens whose KV is already resident in the prefix cache and kept
     * alive by the admission pin. Reserving the full prompt here would
     * double-count the cached prefix — once in the cache's occupancy,
     * once in the batcher budget — and starve admission exactly on the
     * shared-prefix traces the cache exists for. cachedPrefixTokens is
     * set at admission and never changes while the request runs, so
     * release() symmetrically frees what admit() reserved.
     */
    int64_t kvReservationTokens() const
    {
        return promptLen + outputLen - cachedPrefixTokens;
    }

    bool done() const { return state == ReqState::Finished; }

    bool operator==(const Request&) const = default;

    /** Finished, failed, shed, or migrated away: no further service
     *  possible on this replica. */
    bool
    terminal() const
    {
        return state == ReqState::Finished || state == ReqState::Failed ||
               state == ReqState::Shed || state == ReqState::Migrated;
    }
};

/** Synthetic arrival/length workload parameters. */
struct TraceConfig
{
    int64_t numRequests = 200;
    /** Mean arrivals per 1000 cycles of simulated time. */
    double arrivalsPerKcycle = 0.001;

    /** Prompt length: log-normal around the mean, clamped. */
    int64_t promptMean = 128;
    int64_t promptMin = 16;
    int64_t promptMax = 1024;
    double promptSigma = 0.6; ///< underlying normal sigma

    /** Output length: log-normal around the mean, clamped. */
    int64_t outputMean = 32;
    int64_t outputMin = 4;
    int64_t outputMax = 128;
    double outputSigma = 0.5;

    /**
     * On/off burst modulation. With burstPeriod == 0 arrivals are plain
     * Poisson. Otherwise time alternates between an "on" window of
     * burstDuty * burstPeriod cycles where the rate is multiplied by
     * burstFactor and an "off" window where it is divided by it —
     * bursty traffic with the same long-run mean shape, which is what
     * separates queue-depth-driven resource policies from static
     * splits.
     */
    dam::Cycle burstPeriod = 0;
    double burstDuty = 0.3;
    double burstFactor = 4.0;

    /**
     * Per-request completion deadline, relative to arrival (deadlineAt =
     * arrival + deadlineCycles); 0, the default, generates deadline-less
     * traces that are bit-identical to previous builds.
     */
    dam::Cycle deadlineCycles = 0;

    /**
     * Priority class mix for brown-out studies. Both 0 (the default)
     * draws nothing from the RNG and marks every request Normal, so
     * priority-free traces stay bit-identical to previous builds. With
     * either fraction positive, each request draws one uniform (after
     * its length draws): u < lowPriorityFrac → Low, u >
     * 1 - highPriorityFrac → High, Normal between.
     */
    double lowPriorityFrac = 0;
    double highPriorityFrac = 0;

    // ---- conversation model (numSessions > 0 switches it on) ---------
    /**
     * With numSessions > 0 the trace is generated from a multi-turn
     * conversation model instead of independent single-turn requests:
     * numSessions sessions arrive as a (burst-modulated) Poisson
     * process at arrivalsPerKcycle, each session runs turnsPerSession
     * turns, and turn t's prompt is the session's full prior context —
     * shared system prompt, every earlier turn's prompt delta and
     * generated output — plus a fresh user delta. Token content is
     * synthesized deterministically, so the per-block prefix hashes of
     * a session's turns genuinely nest and the system prompt is
     * bit-identical across sessions; numRequests is ignored (the trace
     * holds numSessions * turnsPerSession requests). Prompt lengths
     * follow from the context, so promptMean/Min/Max govern only the
     * per-turn delta in this mode (see turnDeltaMean).
     */
    int64_t numSessions = 0;
    int64_t turnsPerSession = 4;
    /** Tokens of system prompt shared by every session (may be 0). */
    int64_t sharedSystemPromptLen = 64;
    /** Mean new user tokens per turn (log-normal, promptSigma,
     *  clamped to [promptMin, promptMax]). */
    int64_t turnDeltaMean = 96;
    /**
     * Mean cycles between a turn's arrival and the next turn of the
     * same session (exponential): user think time plus service. Short
     * gaps make the next turn arrive before the previous finished, so
     * its freshly generated suffix is not yet cached — partial hits,
     * exactly like a real impatient user.
     */
    dam::Cycle turnGapMean = 4'000'000;
};

/**
 * Generate a request trace, sorted by arrival time. Deterministic for a
 * fixed (config, seed) pair.
 */
std::vector<Request> generateTrace(const TraceConfig& cfg, uint64_t seed);

} // namespace step::runtime
