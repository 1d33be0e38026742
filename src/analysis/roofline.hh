/**
 * @file
 * Roofline helpers: effective-bandwidth computation used to regenerate
 * Figure 1 (the SDA-vs-GPU motivation) from the paper's published
 * fractions-of-peak, and attainable-bandwidth reasoning used in the
 * memory-bound analyses.
 */
#pragma once

#include <string>
#include <vector>

namespace step {

/** One platform/workload bar of Figure 1. */
struct RooflineBar
{
    std::string platform;
    std::string workload;
    double peakHbmTBs = 0.0;     ///< peak HBM bandwidth (TB/s)
    double fracOfPeak = 0.0;     ///< achieved fraction of peak
    double
    effectiveTBs() const
    {
        return peakHbmTBs * fracOfPeak;
    }
};

/**
 * Published Figure-1 data points: 8xH100 vs SN40L-8 / SN40L-16 on
 * Llama-3.1 8B and 70B token generation (sequence length 4K); GPUs
 * achieve under half of peak, the SDA a much larger fraction [5, 19].
 */
inline std::vector<RooflineBar>
figure1Bars()
{
    return {
        {"8xH100", "Llama3.1-8B b=1", 26.8, 0.21},
        {"SN40L-8", "Llama3.1-8B b=1", 12.8, 0.72},
        {"SN40L-16", "Llama3.1-8B b=1", 25.6, 0.75},
        {"8xH100", "Llama3.1-8B b=8", 26.8, 0.34},
        {"SN40L-8", "Llama3.1-8B b=8", 12.8, 0.78},
        {"SN40L-16", "Llama3.1-8B b=8", 25.6, 0.80},
        {"8xH100", "Llama3.1-70B b=1", 26.8, 0.30},
        {"SN40L-8", "Llama3.1-70B b=1", 12.8, 0.80},
        {"SN40L-16", "Llama3.1-70B b=1", 25.6, 0.84},
        {"8xH100", "Llama3.1-70B b=8", 26.8, 0.42},
        {"SN40L-8", "Llama3.1-70B b=8", 12.8, 0.85},
        {"SN40L-16", "Llama3.1-70B b=8", 25.6, 0.88},
    };
}

} // namespace step
