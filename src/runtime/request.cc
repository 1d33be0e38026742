#include "runtime/request.hh"

#include <algorithm>
#include <cmath>
#include <new>

#include "support/error.hh"
#include "support/rng.hh"

namespace step::runtime {

BlockHashes::BlockHashes(std::span<const uint64_t> hashes)
{
    if (hashes.empty())
        return;
    STEP_ASSERT(hashes.size() <= UINT32_MAX, "block-hash chain of "
                                                 << hashes.size()
                                                 << " blocks");
    block_ = new (::operator new(sizeof(Block) +
                                 hashes.size() * sizeof(uint64_t))) Block();
    block_->n = static_cast<uint32_t>(hashes.size());
    std::copy(hashes.begin(), hashes.end(), block_->hashes());
    n_ = hashes.size();
}

void
BlockHashes::freeBlock(Block* b) noexcept
{
    b->~Block();
    ::operator delete(b);
}

namespace {

/** Log-normal draw with the given linear-scale mean, clamped. */
int64_t
sampleLen(Rng& rng, int64_t mean, double sigma, int64_t lo, int64_t hi)
{
    // E[lognormal(mu, sigma)] = exp(mu + sigma^2/2); solve for mu.
    double mu = std::log(static_cast<double>(mean)) - 0.5 * sigma * sigma;
    auto len = static_cast<int64_t>(std::llround(rng.logNormal(mu, sigma)));
    return std::clamp(len, lo, hi);
}

/** Arrival rate (per cycle) in effect at time @p t. */
double
rateAt(const TraceConfig& cfg, double t)
{
    double base = cfg.arrivalsPerKcycle / 1000.0;
    if (cfg.burstPeriod == 0)
        return base;
    double phase = std::fmod(t, static_cast<double>(cfg.burstPeriod));
    bool on = phase < cfg.burstDuty * static_cast<double>(cfg.burstPeriod);
    return on ? base * cfg.burstFactor : base / cfg.burstFactor;
}

/**
 * Priority draw for brown-out studies. Gated on the fractions being
 * set: the default (both 0) consumes nothing from the RNG, keeping
 * priority-free traces bit-identical to previous builds.
 */
ReqPriority
samplePriority(Rng& rng, const TraceConfig& cfg)
{
    if (cfg.lowPriorityFrac <= 0.0 && cfg.highPriorityFrac <= 0.0)
        return ReqPriority::Normal;
    double u = rng.uniform();
    if (u < cfg.lowPriorityFrac)
        return ReqPriority::Low;
    if (u > 1.0 - cfg.highPriorityFrac)
        return ReqPriority::High;
    return ReqPriority::Normal;
}

/** Seed constants for synthetic token content. The system prompt hashes
 *  from a fixed constant so it is bit-identical across sessions (and
 *  across traces); session content hashes from (trace seed, session). */
constexpr uint64_t kSystemPromptSeed = 0x53595354454d5052ULL;
constexpr uint64_t kSessionSeed = 0x434f4e5645525341ULL;

/**
 * Per-session token-stream builder: appends synthetic token hashes and
 * records the chained hash at every kPrefixBlockTokens boundary. Equal
 * token sequences yield equal chained hashes, which is what turns the
 * prefix cache's hash-keyed radix tree into genuine content sharing.
 */
struct TokenChain
{
    uint64_t hash = kSystemPromptSeed; ///< chain origin (any constant)
    int64_t tokens = 0;
    std::vector<uint64_t> blockHashes;

    void
    append(uint64_t segment_seed, int64_t count)
    {
        for (int64_t i = 0; i < count; ++i) {
            hash = prefixHashMix(hash, prefixHashMix(segment_seed,
                                                     static_cast<uint64_t>(i)));
            if (++tokens % kPrefixBlockTokens == 0)
                blockHashes.push_back(hash);
        }
    }
};

std::vector<Request>
generateConversationTrace(const TraceConfig& cfg, uint64_t seed)
{
    STEP_ASSERT(cfg.turnsPerSession > 0, "session needs at least one turn");
    STEP_ASSERT(cfg.sharedSystemPromptLen >= 0,
                "negative system prompt length");
    Rng rng(seed);

    std::vector<Request> reqs;
    reqs.reserve(static_cast<size_t>(cfg.numSessions * cfg.turnsPerSession));

    // Session starts form the same piecewise-homogeneous Poisson process
    // as single-turn arrivals (burst modulation included).
    double session_start = 0.0;
    for (int64_t s = 0; s < cfg.numSessions; ++s) {
        double u = 0.0;
        while (u == 0.0)
            u = rng.uniform();
        session_start += -std::log(u) / rateAt(cfg, session_start);

        const uint64_t session_seed =
            prefixHashMix(prefixHashMix(kSessionSeed, seed),
                          static_cast<uint64_t>(s));
        TokenChain chain;
        chain.append(kSystemPromptSeed, cfg.sharedSystemPromptLen);

        double arrival = session_start;
        uint64_t affinity_key = 0;
        for (int64_t t = 0; t < cfg.turnsPerSession; ++t) {
            int64_t delta = sampleLen(rng, cfg.turnDeltaMean,
                                      cfg.promptSigma, cfg.promptMin,
                                      cfg.promptMax);
            int64_t output = sampleLen(rng, cfg.outputMean,
                                       cfg.outputSigma, cfg.outputMin,
                                       cfg.outputMax);
            ReqPriority priority = samplePriority(rng, cfg);
            // User turn t: new tokens on top of the full prior context.
            chain.append(prefixHashMix(session_seed,
                                       static_cast<uint64_t>(2 * t)),
                         delta);

            Request r;
            r.sessionId = s;
            r.turn = t;
            r.arrival = static_cast<dam::Cycle>(std::llround(arrival));
            r.promptLen = chain.tokens;
            r.outputLen = output;
            r.priority = priority;
            r.promptBlocks = chain.tokens / kPrefixBlockTokens;

            // Assistant turn t: the generated output joins the context
            // (and the request's own block hashes, so inserting the
            // finished request caches prompt + output for turn t+1).
            chain.append(prefixHashMix(session_seed,
                                       static_cast<uint64_t>(2 * t + 1)),
                         output);

            if (t == 0)
                affinity_key = r.promptBlocks > 0
                                   ? chain.blockHashes[static_cast<size_t>(
                                         r.promptBlocks - 1)]
                                   : prefixHashMix(session_seed, 0);
            r.affinityKey = affinity_key;
            reqs.push_back(std::move(r));

            double gap = 0.0;
            while (gap == 0.0)
                gap = rng.uniform();
            arrival += -std::log(gap) *
                       static_cast<double>(cfg.turnGapMean);
        }
        // The last turn's stream holds every earlier one: store the
        // chain once and let each turn view its prompt + output blocks.
        const BlockHashes stored(chain.blockHashes);
        for (auto it = reqs.end() - cfg.turnsPerSession; it != reqs.end();
             ++it)
            it->blockHashes = stored.prefix(static_cast<size_t>(
                (it->promptLen + it->outputLen) / kPrefixBlockTokens));
    }

    // Arrival order with a deterministic tie-break; ids number the
    // sorted trace 0..n-1 exactly like the single-turn generator.
    std::stable_sort(reqs.begin(), reqs.end(),
                     [](const Request& a, const Request& b) {
                         if (a.arrival != b.arrival)
                             return a.arrival < b.arrival;
                         if (a.sessionId != b.sessionId)
                             return a.sessionId < b.sessionId;
                         return a.turn < b.turn;
                     });
    for (size_t i = 0; i < reqs.size(); ++i)
        reqs[i].id = static_cast<int64_t>(i);
    return reqs;
}

} // namespace

std::vector<Request>
generateTrace(const TraceConfig& cfg, uint64_t seed)
{
    STEP_ASSERT(cfg.arrivalsPerKcycle > 0.0, "non-positive arrival rate");
    if (cfg.numSessions > 0) {
        std::vector<Request> reqs = generateConversationTrace(cfg, seed);
        if (cfg.deadlineCycles > 0)
            for (Request& r : reqs)
                r.deadlineAt = r.arrival + cfg.deadlineCycles;
        return reqs;
    }
    STEP_ASSERT(cfg.numRequests > 0, "empty trace requested");
    Rng rng(seed);
    std::vector<Request> reqs;
    reqs.reserve(static_cast<size_t>(cfg.numRequests));

    // Piecewise-homogeneous Poisson process: each inter-arrival gap is an
    // exponential draw at the rate in effect when the previous request
    // arrived. For burst periods much longer than a gap this matches the
    // on/off process; it keeps generation one-pass and deterministic.
    double t = 0.0;
    for (int64_t i = 0; i < cfg.numRequests; ++i) {
        double u = 0.0;
        while (u == 0.0)
            u = rng.uniform();
        t += -std::log(u) / rateAt(cfg, t);

        Request r;
        r.id = i;
        r.arrival = static_cast<dam::Cycle>(std::llround(t));
        r.promptLen = sampleLen(rng, cfg.promptMean, cfg.promptSigma,
                                cfg.promptMin, cfg.promptMax);
        r.outputLen = sampleLen(rng, cfg.outputMean, cfg.outputSigma,
                                cfg.outputMin, cfg.outputMax);
        r.priority = samplePriority(rng, cfg);
        if (cfg.deadlineCycles > 0)
            r.deadlineAt = r.arrival + cfg.deadlineCycles;
        reqs.push_back(r);
    }
    return reqs;
}

} // namespace step::runtime
