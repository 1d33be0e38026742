/**
 * @file
 * CounterRegistry: named telemetry counters sampled into the trace
 * event stream. Components register a counter once (monotonic for
 * ever-increasing totals like generated tokens, gauge for levels like
 * queue depth), update it by handle — an index, so the hot path is one
 * vector store — and the owning TraceSink samples every registered
 * counter into Counter events each serving iteration. ServingSummary
 * snapshots the final values so cluster merges can aggregate them
 * (monotonic counters add across replicas, gauges take the max).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace step::obs {

/** Final value of one counter, as snapshotted into ServingSummary. */
struct CounterSample
{
    std::string name;
    int64_t value = 0;
    bool monotonic = false;

    bool operator==(const CounterSample&) const = default;
};

class CounterRegistry
{
  public:
    enum class Kind : uint8_t { Monotonic, Gauge };

    using Handle = size_t;

    /** Register (or re-find) a counter; idempotent per name. */
    Handle
    monotonic(std::string name)
    {
        return ensure(std::move(name), Kind::Monotonic);
    }
    Handle
    gauge(std::string name)
    {
        return ensure(std::move(name), Kind::Gauge);
    }

    void
    set(Handle h, int64_t v)
    {
        entries_[h].value = v;
    }
    void
    add(Handle h, int64_t dv)
    {
        entries_[h].value += dv;
    }
    int64_t value(Handle h) const { return entries_[h].value; }

    size_t size() const { return entries_.size(); }
    const std::string& name(Handle h) const { return entries_[h].name; }
    Kind kind(Handle h) const { return entries_[h].kind; }

    /**
     * True when the counter's value differs from its last-emitted
     * sample (or was never emitted); marks it emitted. The sink uses
     * this to sample only transitions, which keeps counter tracks small
     * without losing any level change.
     */
    bool
    consumeChanged(Handle h)
    {
        Entry& e = entries_[h];
        if (e.everEmitted && e.lastEmitted == e.value)
            return false;
        e.everEmitted = true;
        e.lastEmitted = e.value;
        return true;
    }

    /** Final values, registration order (deterministic). */
    std::vector<CounterSample>
    snapshot() const
    {
        std::vector<CounterSample> out;
        out.reserve(entries_.size());
        for (const Entry& e : entries_)
            out.push_back({e.name, e.value, e.kind == Kind::Monotonic});
        return out;
    }

  private:
    struct Entry
    {
        std::string name;
        int64_t value = 0;
        int64_t lastEmitted = 0;
        bool everEmitted = false;
        Kind kind = Kind::Gauge;
    };

    Handle
    ensure(std::string name, Kind kind)
    {
        for (size_t i = 0; i < entries_.size(); ++i)
            if (entries_[i].name == name)
                return i;
        entries_.push_back(Entry{std::move(name), 0, 0, false, kind});
        return entries_.size() - 1;
    }

    std::vector<Entry> entries_;
};

} // namespace step::obs
