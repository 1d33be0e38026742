#include "obs/sink.hh"

#include <algorithm>

#include "dam/channel.hh"
#include "support/error.hh"

namespace step::obs {

const char*
traceLevelName(TraceLevel level)
{
    switch (level) {
      case TraceLevel::Off:
        return "off";
      case TraceLevel::Request:
        return "request";
      case TraceLevel::Op:
        return "op";
      case TraceLevel::Full:
        return "full";
    }
    return "?";
}

const char*
blockKindName(uint8_t kind)
{
    // Mirrors dam::BlockInfo::Kind ordinals. The None case ends a
    // context's last span: it finished, blocked on nothing.
    switch (kind) {
      case 0:
        return "done";
      case 1:
        return "read";
      case 2:
        return "write";
      case 3:
        return "select";
      case 4:
        return "timed_wait";
    }
    return "?";
}

TraceSink::TraceSink(TraceOptions opts) : opts_(opts)
{
    STEP_ASSERT(opts_.ringCapacity > 0,
                "trace ring capacity must be positive");
    nameArrive_ = intern("req.arrive");
    nameAdmit_ = intern("req.admit");
    nameFirstToken_ = intern("req.first_token");
    nameFinish_ = intern("req.finish");
    nameRetry_ = intern("req.retry");
    nameFailed_ = intern("req.failed");
    nameShed_ = intern("req.shed");
    nameFaultDown_ = intern("fault.replica_down");
    nameFaultUp_ = intern("fault.replica_up");
    nameMigrated_ = intern("req.migrated");
    nameCapped_ = intern("req.capped");
}

uint32_t
TraceSink::intern(std::string_view s)
{
    auto it = nameIds_.find(s);
    if (it != nameIds_.end())
        return it->second;
    auto id = static_cast<uint32_t>(names_.size());
    auto [pos, inserted] = nameIds_.emplace(std::string(s), id);
    names_.push_back(&pos->first);
    return id;
}

void
TraceSink::append(const TraceEvent& e)
{
    TraceEvent ev = e;
    // Deterministic monotone clamp per sub-track: discrete-event wakes
    // can stamp an event a hair before the previous one on its track
    // (e.g. an arrival that fell inside the last iteration); exported
    // tracks promise non-decreasing B/E/i/C timestamps, so pull the
    // stamp up to the track cursor. Complete (X) events are exempt —
    // they are emitted at span *end* but stamped at span begin.
    if (ev.kind != EventKind::Complete) {
        dam::Cycle& last = lastTs_[ev.tid];
        if (ev.ts < last)
            ev.ts = last;
        last = ev.ts;
    }
    if (ring_.size() < opts_.ringCapacity) {
        ring_.push_back(ev);
        return;
    }
    ring_[head_] = ev;
    head_ = (head_ + 1) % ring_.size();
    ++dropped_;
}

void
TraceSink::schedResume(const void* ctx, const std::string& ctx_name,
                       dam::Cycle at)
{
    if (opts_.level < TraceLevel::Op)
        return;
    const uint32_t id = intern(ctx_name);
    // Switch attribution per op name (first-seen order, so exports are
    // deterministic without sorting a hash map).
    auto [it, fresh] = switchIndex_.emplace(id, switchCounts_.size());
    if (fresh)
        switchCounts_.emplace_back(id, 0);
    ++switchCounts_[it->second].second;
    ++attributedSwitches_;

    const dam::Cycle ts = base_ + at;
    activeOps_.emplace(ctx, OpOpen{id, ts});
    if (opts_.level >= TraceLevel::Full) {
        TraceEvent e;
        e.ts = ts;
        e.name = id;
        e.kind = EventKind::SpanBegin;
        e.tid = kTidSched;
        append(e);
    }
}

void
TraceSink::schedSuspend(const void* ctx, dam::Cycle at, uint8_t block_kind,
                        const dam::Channel* ch)
{
    if (opts_.level < TraceLevel::Full)
        return;
    TraceEvent e;
    e.ts = base_ + at;
    auto it = activeOps_.find(ctx);
    e.name = it != activeOps_.end() ? it->second.name : 0;
    e.kind = EventKind::SpanEnd;
    e.tid = kTidSched;
    e.detail = block_kind;
    e.arg0 = ch ? static_cast<int64_t>(intern(ch->name())) : -1;
    append(e);
}

void
TraceSink::schedFinish(const void* ctx, const std::string& ctx_name,
                       dam::Cycle at)
{
    if (opts_.level < TraceLevel::Op)
        return;
    const dam::Cycle ts = base_ + at;
    auto it = activeOps_.find(ctx);
    if (opts_.level >= TraceLevel::Full) {
        TraceEvent e;
        e.ts = ts;
        e.name = it != activeOps_.end() ? it->second.name
                                        : intern(ctx_name);
        e.kind = EventKind::SpanEnd;
        e.tid = kTidSched;
        e.detail = 0;
        e.arg0 = -1;
        append(e);
    }
    // Per-op lifetime span: first resume -> completion, one X event per
    // graph run per op (the per-op timeline the fusion planner reads).
    if (it != activeOps_.end()) {
        TraceEvent e;
        e.ts = it->second.firstResume;
        e.arg0 = static_cast<int64_t>(ts - it->second.firstResume);
        e.name = it->second.name;
        e.kind = EventKind::Complete;
        e.tid = kTidOps;
        append(e);
        activeOps_.erase(it);
    } else {
        // First resume was recorded under a different sink level or the
        // map entry was lost; emit a zero-length span so begin/finish
        // stay paired in the export.
        TraceEvent e;
        e.ts = ts;
        e.name = intern(ctx_name);
        e.kind = EventKind::Complete;
        e.tid = kTidOps;
        append(e);
    }
}

void
TraceSink::lifecycle(uint32_t name, dam::Cycle at, int64_t arg0,
                     int64_t arg1)
{
    TraceEvent e; // an Instant on the lifecycle track by default
    e.ts = at;
    e.name = name;
    e.arg0 = arg0;
    e.arg1 = arg1;
    append(e);
}

RequestLifecycle*
TraceSink::record(int64_t id, int64_t attempt)
{
    auto it = reqIndex_.find(lifeKey(id, attempt));
    return it != reqIndex_.end() ? &requests_[it->second] : nullptr;
}

void
TraceSink::reqArrived(int64_t id, int64_t session, int64_t turn,
                      int64_t prompt_len, int64_t output_len, dam::Cycle at,
                      int64_t attempt)
{
    if (opts_.level < TraceLevel::Request)
        return;
    RequestLifecycle rec;
    rec.id = id;
    rec.sessionId = session;
    rec.turn = turn;
    rec.promptLen = prompt_len;
    rec.outputLen = output_len;
    rec.attempt = attempt;
    rec.arrival = at;
    // Keyed by (id, attempt): a superseded incarnation and its retry
    // can be concurrently simulated on one replica, and each hook must
    // land on its own record. Every record stays in requests_ for the
    // JSONL.
    reqIndex_[lifeKey(id, attempt)] = requests_.size();
    requests_.push_back(rec);

    lifecycle(nameArrive_, at, id, prompt_len);
    if (attempt > 0)
        lifecycle(nameRetry_, at, id, attempt);
}

void
TraceSink::reqAdmitted(int64_t id, int64_t attempt,
                       int64_t cached_prefix_tokens, dam::Cycle at)
{
    if (opts_.level < TraceLevel::Request)
        return;
    if (RequestLifecycle* rec = record(id, attempt)) {
        rec->admitted = true;
        rec->admittedAt = at;
        rec->cachedPrefixTokens = cached_prefix_tokens;
    }
    lifecycle(nameAdmit_, at, id, cached_prefix_tokens);
}

void
TraceSink::reqFirstToken(int64_t id, int64_t attempt, dam::Cycle at)
{
    if (opts_.level < TraceLevel::Request)
        return;
    if (RequestLifecycle* rec = record(id, attempt)) {
        rec->sawFirstToken = true;
        rec->firstTokenAt = at;
    }
    lifecycle(nameFirstToken_, at, id);
}

void
TraceSink::reqFinished(int64_t id, int64_t attempt, dam::Cycle at)
{
    if (opts_.level < TraceLevel::Request)
        return;
    if (RequestLifecycle* rec = record(id, attempt)) {
        rec->finished = true;
        rec->finishedAt = at;
    }
    lifecycle(nameFinish_, at, id);
}

void
TraceSink::reqFailed(int64_t id, int64_t attempt, dam::Cycle at)
{
    if (opts_.level < TraceLevel::Request)
        return;
    if (RequestLifecycle* rec = record(id, attempt)) {
        rec->failed = true;
        rec->failedAt = at;
    }
    lifecycle(nameFailed_, at, id);
}

void
TraceSink::reqShed(int64_t id, int64_t attempt, dam::Cycle at)
{
    if (opts_.level < TraceLevel::Request)
        return;
    if (RequestLifecycle* rec = record(id, attempt)) {
        rec->shed = true;
        rec->shedAt = at;
    }
    lifecycle(nameShed_, at, id);
}

void
TraceSink::reqMigrated(int64_t id, int64_t attempt, dam::Cycle at,
                       int64_t kv_tokens)
{
    if (opts_.level < TraceLevel::Request)
        return;
    if (RequestLifecycle* rec = record(id, attempt)) {
        rec->migrated = true;
        rec->migratedAt = at;
    }
    lifecycle(nameMigrated_, at, id, kv_tokens);
}

void
TraceSink::reqCapped(int64_t id, dam::Cycle at, int64_t cap)
{
    if (opts_.level >= TraceLevel::Request)
        lifecycle(nameCapped_, at, id, cap);
}

void
TraceSink::clusterInstant(std::string_view name, dam::Cycle at,
                          int64_t value)
{
    if (opts_.level < TraceLevel::Request)
        return;
    TraceEvent e;
    e.ts = at;
    e.name = intern(name);
    e.arg0 = -1;
    e.arg1 = value;
    e.tid = kTidCluster;
    clusterTrack_.push_back(e);
}

void
TraceSink::faultDown(dam::Cycle at, dam::Cycle fail_at,
                     dam::Cycle recover_at)
{
    if (opts_.level >= TraceLevel::Request)
        lifecycle(nameFaultDown_, at, static_cast<int64_t>(fail_at),
                  recover_at != 0 ? static_cast<int64_t>(recover_at) : -1);
}

void
TraceSink::faultUp(dam::Cycle at)
{
    if (opts_.level >= TraceLevel::Request)
        lifecycle(nameFaultUp_, at, -1);
}

void
TraceSink::sampleCounters(dam::Cycle at)
{
    if (opts_.level < TraceLevel::Request)
        return;
    while (counterNameIds_.size() < counters_.size())
        counterNameIds_.push_back(
            intern(counters_.name(counterNameIds_.size())));
    for (size_t i = 0; i < counters_.size(); ++i) {
        if (!counters_.consumeChanged(i))
            continue;
        TraceEvent e;
        e.ts = at;
        e.name = counterNameIds_[i];
        e.kind = EventKind::Counter;
        e.tid = kTidLifecycle;
        e.arg0 = counters_.value(i);
        append(e);
    }
}

std::vector<SwitchAttribution>
TraceSink::switchAttribution() const
{
    std::vector<SwitchAttribution> out;
    out.reserve(switchCounts_.size());
    for (const auto& [id, n] : switchCounts_)
        out.push_back(SwitchAttribution{name(id), n});
    std::sort(out.begin(), out.end(),
              [](const SwitchAttribution& a, const SwitchAttribution& b) {
                  return a.switches != b.switches
                             ? a.switches > b.switches
                             : a.name < b.name;
              });
    return out;
}

} // namespace step::obs
