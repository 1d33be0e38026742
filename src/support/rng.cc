#include "support/rng.hh"

#include <atomic>
#include <cmath>

#include "support/error.hh"

namespace step {

namespace {

// Atomic so a worker thread calling deriveSeed/globalSeed never races a
// late setGlobalSeed into a torn read. Relaxed ordering suffices: the
// seed carries no release/acquire payload, and the documented contract
// (rng.hh) is that setGlobalSeed happens before workers spawn — thread
// creation itself then sequences the store before every worker load.
std::atomic<uint64_t> g_seed{42};

} // namespace

void
setGlobalSeed(uint64_t seed)
{
    g_seed.store(seed, std::memory_order_relaxed);
}

uint64_t
globalSeed()
{
    return g_seed.load(std::memory_order_relaxed);
}

uint64_t
deriveSeed(uint64_t stream_id)
{
    // One SplitMix64 step over (seed, stream) decorrelates nearby ids.
    Rng mix(globalSeed() ^ (stream_id * 0xd1342543de82ef95ULL));
    return mix.next();
}

uint64_t
Rng::uniformInt(uint64_t n)
{
    STEP_ASSERT(n > 0, "uniformInt over an empty range");
    // Rejection sampling (arc4random_uniform style): 2^64 mod n raw
    // draws map to one extra residue each under plain `next() % n`,
    // biasing small values by up to n/2^64. Computing min = 2^64 mod n
    // as (-n) mod n in wrapping arithmetic, draws below min are
    // rejected so every residue keeps exactly floor(2^64 / n)
    // preimages. Accepted draws return the same value the old modulo
    // did, so seeded sequences only change in the astronomically rare
    // rejection case (probability < n / 2^64 per draw).
    const uint64_t min = (0 - n) % n;
    uint64_t x = next();
    while (x < min)
        x = next();
    return x % n;
}

double
Rng::gaussian()
{
    if (haveSpare_) {
        haveSpare_ = false;
        return spare_;
    }
    double u1 = 0.0;
    while (u1 == 0.0)
        u1 = uniform();
    double u2 = uniform();
    double mag = std::sqrt(-2.0 * std::log(u1));
    spare_ = mag * std::sin(2.0 * M_PI * u2);
    haveSpare_ = true;
    return mag * std::cos(2.0 * M_PI * u2);
}

double
Rng::logNormal(double mu, double sigma)
{
    return std::exp(mu + sigma * gaussian());
}

double
Rng::gamma(double shape)
{
    STEP_ASSERT(shape > 0.0, "gamma shape must be positive");
    if (shape < 1.0) {
        // Boost to shape+1 and scale back (Marsaglia-Tsang trick).
        double u = 0.0;
        while (u == 0.0)
            u = uniform();
        return gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
    }
    double d = shape - 1.0 / 3.0;
    double c = 1.0 / std::sqrt(9.0 * d);
    while (true) {
        double x = gaussian();
        double v = 1.0 + c * x;
        if (v <= 0.0)
            continue;
        v = v * v * v;
        double u = uniform();
        if (u < 1.0 - 0.0331 * x * x * x * x)
            return d * v;
        if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v)))
            return d * v;
    }
}

std::vector<double>
Rng::dirichlet(const std::vector<double>& alpha)
{
    std::vector<double> draws(alpha.size());
    double sum = 0.0;
    for (size_t i = 0; i < alpha.size(); ++i) {
        draws[i] = gamma(alpha[i]);
        sum += draws[i];
    }
    if (sum <= 0.0)
        sum = 1.0;
    for (double& d : draws)
        d /= sum;
    return draws;
}

size_t
Rng::categorical(const std::vector<double>& weights)
{
    STEP_ASSERT(!weights.empty(), "categorical over empty weights");
    double total = 0.0;
    for (double w : weights)
        total += w;
    double r = uniform() * total;
    double acc = 0.0;
    for (size_t i = 0; i < weights.size(); ++i) {
        acc += weights[i];
        if (r < acc)
            return i;
    }
    return weights.size() - 1;
}

} // namespace step
