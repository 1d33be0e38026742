#include "runtime/metrics.hh"

#include <algorithm>
#include <iostream>

#include "obs/metrics.hh"
#include "support/error.hh"
#include "support/stats.hh"

namespace step::runtime {

double
ttft(const Request& r)
{
    STEP_ASSERT(r.generated >= 1,
                "TTFT of request " << r.id << " before its first token");
    return static_cast<double>(r.firstTokenAt - r.arrival);
}

double
tpot(const Request& r)
{
    if (r.outputLen <= 1)
        return 0.0;
    STEP_ASSERT(r.done(), "TPOT of unfinished request " << r.id);
    return static_cast<double>(r.finishedAt - r.firstTokenAt) /
           static_cast<double>(r.outputLen - 1);
}

namespace {

/** Fill everything derivable from the raw fields — percentiles and
 *  means from the sample vectors (each sorted once), rates from the
 *  token totals over the makespan, the prefix-cache ratios from their
 *  counters. Shared tail of resummarize and mergeSummaries. */
void
finalizeDerivedStats(ServingSummary& s)
{
    std::vector<double> ttft = s.ttftSamples;
    std::sort(ttft.begin(), ttft.end());
    std::vector<double> tpot = s.tpotSamples;
    std::sort(tpot.begin(), tpot.end());
    s.ttftP50 = percentileSorted(ttft, 50.0);
    s.ttftP95 = percentileSorted(ttft, 95.0);
    s.ttftP99 = percentileSorted(ttft, 99.0);
    s.ttftMean = mean(ttft);
    s.tpotP50 = percentileSorted(tpot, 50.0);
    s.tpotP95 = percentileSorted(tpot, 95.0);
    s.tpotP99 = percentileSorted(tpot, 99.0);
    s.tpotMean = mean(tpot);
    s.prefixHitRate =
        s.prefixLookups > 0
            ? static_cast<double>(s.prefixHits) /
                  static_cast<double>(s.prefixLookups)
            : 0.0;
    s.prefillTokensSavedFrac =
        s.promptTokens > 0
            ? static_cast<double>(s.prefixTokensSaved) /
                  static_cast<double>(s.promptTokens)
            : 0.0;
    refreshAvailability(s);
    const double kcycles = static_cast<double>(s.makespan) / 1000.0;
    s.throughputTokensPerKcycle =
        s.makespan > 0 ? static_cast<double>(s.generatedTokens) / kcycles
                       : 0.0;
    s.goodputTokensPerKcycle =
        s.makespan > 0 ? static_cast<double>(s.sloGoodTokens) / kcycles
                       : 0.0;
}

} // namespace

void
refreshAvailability(ServingSummary& s)
{
    const int64_t terminal =
        s.completed + s.failedRequests + s.shedRequests;
    s.availability =
        terminal > 0 ? static_cast<double>(s.completed) /
                           static_cast<double>(terminal)
                     : 1.0;
}

ServingSummary
summarize(const std::vector<Request>& reqs, dam::Cycle makespan)
{
    ServingSummary s;
    s.makespan = makespan;
    resummarize(s, reqs);
    return s;
}

void
resummarize(ServingSummary& s, const std::vector<Request>& reqs)
{
    s.completed = s.generatedTokens = s.promptTokens = s.sloCompliant =
        s.sloGoodTokens = s.failedRequests = s.retriedRequests =
            s.shedRequests = s.migratedRequests = s.deadlineMisses = 0;
    s.ttftSamples.clear();
    s.tpotSamples.clear();
    for (const Request& r : reqs) {
        if (r.state == ReqState::Failed) {
            // The engine sees every crash casualty as failed; a cluster
            // reclassifies the retried ones (see ServingCluster::Run).
            ++s.failedRequests;
            continue;
        }
        if (r.state == ReqState::Shed) {
            ++s.shedRequests;
            continue;
        }
        if (r.state == ReqState::Migrated) {
            // In-transit handoff: the incarnation that replaces it is
            // accounted at its target replica.
            ++s.migratedRequests;
            continue;
        }
        if (!r.done())
            continue;
        if (r.deadlineAt != 0 && r.finishedAt > r.deadlineAt)
            ++s.deadlineMisses;
        ++s.completed;
        s.generatedTokens += r.generated;
        s.promptTokens += r.promptLen;
        s.ttftSamples.push_back(ttft(r));
        if (r.outputLen > 1)
            s.tpotSamples.push_back(tpot(r));
        if (meetsSlo(r)) {
            ++s.sloCompliant;
            s.sloGoodTokens += r.generated;
        }
    }
    finalizeDerivedStats(s);
}

void
scoreSloPerCaller(ServingSummary& s, const std::vector<Request>& callers)
{
    s.sloCompliant = s.sloGoodTokens = 0;
    for (const Request& r : callers)
        if (r.done() && meetsSlo(r)) {
            ++s.sloCompliant;
            s.sloGoodTokens += r.generated;
        }
    s.goodputTokensPerKcycle =
        s.makespan > 0 ? static_cast<double>(s.sloGoodTokens) /
                             (static_cast<double>(s.makespan) / 1000.0)
                       : 0.0;
}

double
computeUtilization(int64_t useful_flops, dam::Cycle span,
                   int64_t provisioned_bw)
{
    if (!span || provisioned_bw <= 0)
        return 0.0;
    return static_cast<double>(useful_flops) /
           (static_cast<double>(span) * static_cast<double>(provisioned_bw));
}

ServingSummary
mergeSummaries(const std::vector<ServingSummary>& parts)
{
    ServingSummary m;
    for (const ServingSummary& p : parts) {
        m.completed += p.completed;
        m.generatedTokens += p.generatedTokens;
        m.failedRequests += p.failedRequests;
        m.retriedRequests += p.retriedRequests;
        m.shedRequests += p.shedRequests;
        m.migratedRequests += p.migratedRequests;
        m.deadlineMisses += p.deadlineMisses;
        m.sloCompliant += p.sloCompliant;
        m.sloGoodTokens += p.sloGoodTokens;
        m.promptTokens += p.promptTokens;
        m.prefixLookups += p.prefixLookups;
        m.prefixHits += p.prefixHits;
        m.prefixTokensSaved += p.prefixTokensSaved;
        m.prefixPeakOccupancyTokens += p.prefixPeakOccupancyTokens;
        // Carry the busiest replica: an engine's summary sets it to its
        // own peak, and a merge of merges keeps the largest.
        m.prefixPeakOccupancyMaxReplica =
            std::max(m.prefixPeakOccupancyMaxReplica,
                     p.prefixPeakOccupancyMaxReplica);
        for (const obs::CounterSample& c : p.counters) {
            auto it = std::find_if(m.counters.begin(), m.counters.end(),
                                   [&](const obs::CounterSample& x) {
                                       return x.name == c.name;
                                   });
            if (it == m.counters.end())
                m.counters.push_back(c);
            else if (c.monotonic)
                it->value += c.value;
            else
                it->value = std::max(it->value, c.value);
        }
        m.makespan = std::max(m.makespan, p.makespan);
        m.ttftSamples.insert(m.ttftSamples.end(), p.ttftSamples.begin(),
                             p.ttftSamples.end());
        m.tpotSamples.insert(m.tpotSamples.end(), p.tpotSamples.begin(),
                             p.tpotSamples.end());
    }
    finalizeDerivedStats(m);
    return m;
}

void
printSummary(const ServingSummary& s, std::ostream& os)
{
    os << "completed requests : " << s.completed << " ("
       << s.generatedTokens << " tokens, " << s.sloCompliant
       << " within SLO)\n"
       << "makespan           : " << s.makespan << " cycles\n"
       << "TTFT p50/p99       : " << s.ttftP50 << " / " << s.ttftP99
       << " cycles\n"
       << "TPOT p50/p99       : " << s.tpotP50 << " / " << s.tpotP99
       << " cycles/token\n"
       << "throughput         : " << s.throughputTokensPerKcycle
       << " tokens/kcycle\n"
       << "goodput (SLO)      : " << s.goodputTokensPerKcycle
       << " tokens/kcycle\n"
       << "compute utilization: " << 100.0 * s.computeUtilization
       << " %\n";
    // Fault line only when the fault tier did something: a fault-free,
    // deadline-less run prints bytes identical to earlier builds.
    if (s.failedRequests + s.retriedRequests + s.shedRequests +
            s.migratedRequests + s.deadlineMisses >
        0) {
        os << "fault tolerance    : " << s.failedRequests << " failed, "
           << s.retriedRequests << " retried, " << s.shedRequests
           << " shed, " << s.deadlineMisses << " deadline misses, "
           << 100.0 * s.availability << " % availability";
        // Migration sub-clause only when it happened: fault lines from
        // migration-free runs keep their exact historical bytes.
        if (s.migratedRequests > 0)
            os << ", " << s.migratedRequests << " migrated";
        os << "\n";
    }
    // SLO-window line only when a metrics registry fed the run: the
    // fault-line pattern, so metrics-off runs keep their exact bytes.
    if (s.sloWindows > 0) {
        os << "slo windows        : " << s.sloWindowsAttained << "/"
           << s.sloWindows << " attained ("
           << 100.0 * static_cast<double>(s.sloWindowsAttained) /
                  static_cast<double>(s.sloWindows)
           << " %), worst window p95 TTFT " << s.sloWorstWindowP95Ttft
           << " cycles, p95 TPOT " << s.sloWorstWindowP95Tpot
           << " cycles/token\n";
    }
    if (s.prefixLookups > 0) {
        os << "prefix cache       : " << 100.0 * s.prefixHitRate
           << " % hit rate (" << s.prefixHits << "/" << s.prefixLookups
           << "), " << s.prefixTokensSaved << "/" << s.promptTokens
           << " prompt tokens served from cache ("
           << 100.0 * s.prefillTokensSavedFrac << " % prefill saved), "
           << "peak occupancy " << s.prefixPeakOccupancyTokens
           << " KV tokens summed bound ("
           << s.prefixPeakOccupancyMaxReplica << " busiest replica)\n";
    }
    if (!s.counters.empty()) {
        os << "counters           :";
        for (const obs::CounterSample& c : s.counters)
            os << " " << c.name << "=" << c.value;
        os << "\n";
    }
}

SloWindowStats
computeSloWindows(const obs::MetricsRegistry& m)
{
    SloWindowStats st;
    const obs::MetricsRegistry::Instrument* ttft_i =
        m.find("ttft_cycles");
    const obs::MetricsRegistry::Instrument* tpot_i =
        m.find("tpot_cycles");
    const obs::MetricsRegistry::Instrument* miss_i =
        m.find("deadline_misses");
    size_t slots = 0;
    if (ttft_i)
        slots = std::max(slots, ttft_i->series.windowSlots());
    if (tpot_i)
        slots = std::max(slots, tpot_i->series.windowSlots());
    for (size_t w = 0; w < slots; ++w) {
        const obs::LogHistogram* th =
            ttft_i ? ttft_i->series.windowHistogram(w) : nullptr;
        const obs::LogHistogram* ph =
            tpot_i ? tpot_i->series.windowHistogram(w) : nullptr;
        if ((!th || th->empty()) && (!ph || ph->empty()))
            continue; // no completion latency observed this window
        ++st.windows;
        bool ok = true;
        if (th && !th->empty()) {
            const uint64_t p95 = th->percentile(95.0);
            st.worstP95Ttft = std::max(st.worstP95Ttft, p95);
            ok = ok && static_cast<double>(p95) <= kSloTtftCycles;
        }
        if (ph && !ph->empty()) {
            const uint64_t p95 = ph->percentile(95.0);
            st.worstP95Tpot = std::max(st.worstP95Tpot, p95);
            ok = ok && static_cast<double>(p95) <= kSloTpotCycles;
        }
        if (miss_i && miss_i->series.window(w).count > 0)
            ok = false;
        if (ok)
            ++st.attained;
    }
    return st;
}

void
applySloWindows(ServingSummary& s, const obs::MetricsRegistry& m)
{
    const SloWindowStats st = computeSloWindows(m);
    s.sloWindows = st.windows;
    s.sloWindowsAttained = st.attained;
    s.sloWorstWindowP95Ttft = st.worstP95Ttft;
    s.sloWorstWindowP95Tpot = st.worstP95Tpot;
}

} // namespace step::runtime
