/**
 * @file
 * Deterministic random number generation and the distributions used by the
 * synthetic trace substrate. All experiments must be reproducible from a
 * seed. Rng instances never touch shared state; the one process-wide
 * value is the explicit base seed below (default 42), which benches set
 * once at startup from --seed/STEP_SEED and every component then derives
 * its per-stream seeds from.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace step {

/**
 * SplitMix64 generator. Tiny, fast, and has well-understood statistical
 * behaviour; good enough for workload synthesis (not cryptography).
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed ? seed : 0x9e3779b97f4a7c15ULL)
    {}

    /** Next raw 64-bit draw. */
    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform double in [0, 1). */
    double uniform() { return (next() >> 11) * 0x1.0p-53; }

    /**
     * Uniform integer in [0, n), bias-free via rejection sampling (the
     * naive `next() % n` overweights small residues when n does not
     * divide 2^64). n must be > 0.
     */
    uint64_t uniformInt(uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    uniformRange(int64_t lo, int64_t hi)
    {
        return lo + static_cast<int64_t>(uniformInt(
            static_cast<uint64_t>(hi - lo + 1)));
    }

    /** Standard normal via Box-Muller. */
    double gaussian();

    /** Log-normal with the given *underlying* normal mu/sigma. */
    double logNormal(double mu, double sigma);

    /** Gamma(shape, 1) via Marsaglia-Tsang; shape > 0. */
    double gamma(double shape);

    /**
     * A point on the probability simplex drawn from Dirichlet(alpha).
     * Smaller alpha -> more skewed expert popularity.
     */
    std::vector<double> dirichlet(const std::vector<double>& alpha);

    /** Sample an index from an (unnormalized) weight vector. */
    size_t categorical(const std::vector<double>& weights);

  private:
    uint64_t state_;
    bool haveSpare_ = false;
    double spare_ = 0.0;
};

/**
 * Process-wide base seed for experiment reproducibility. Every bench and
 * example derives its per-component Rng seeds from this value, so one
 * `--seed N` flag (or the STEP_SEED environment variable) reseeds a whole
 * sweep while run-to-run results stay bit-identical for a fixed seed.
 * Defaults to 42.
 *
 * Thread-safety contract: the seed is stored atomically, so concurrent
 * reads never tear — but for reproducibility, call setGlobalSeed once at
 * startup, *before* any worker thread (e.g. ServingCluster replicas)
 * spawns. A mid-run reseed is a race against every in-flight
 * deriveSeed and yields runs that no single seed reproduces.
 */
void setGlobalSeed(uint64_t seed);
uint64_t globalSeed();

/**
 * Derive an independent stream seed for component @p stream_id from the
 * global seed (SplitMix64 mix, so nearby ids decorrelate). This is how
 * per-replica engine seeds decorrelate deterministically: ServingCluster
 * seeds replica i with deriveSeed(i) on the coordinating thread before
 * workers start.
 */
uint64_t deriveSeed(uint64_t stream_id);

/**
 * Bench entry point: apply `--seed N` from @p argv or the STEP_SEED
 * environment variable (flag wins) to the global seed; returns it. A
 * value that is not a whole unsigned decimal ("3e7", "abc", "0x10")
 * prints a message naming the flag and the value and exits 2.
 */
uint64_t seedFromArgsOrEnv(int argc, char** argv);

} // namespace step
