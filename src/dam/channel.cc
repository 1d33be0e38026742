#include "dam/channel.hh"

#include "dam/scheduler.hh"
#include "support/error.hh"

namespace step::dam {

Channel::Channel(std::string name, size_t capacity, Cycle latency)
    : name_(std::move(name)), capacity_(capacity), latency_(latency),
      initCredits_(capacity)
{
    STEP_ASSERT(capacity_ >= 1, "channel capacity must be >= 1");
}

void
Channel::reinit(std::string_view name, size_t capacity, Cycle latency)
{
    STEP_ASSERT(capacity >= 1, "channel capacity must be >= 1");
    name_.assign(name); // reuses the string's buffer when it fits
    capacity_ = capacity;
    latency_ = latency;
    entries_.clear();
    credits_.clear();
    initCredits_ = capacity_;
    lastReady_ = 0;
    producer_ = nullptr;
    consumer_ = nullptr;
    waitingReader_ = nullptr;
    waitingWriter_ = nullptr;
    totalPushed_ = 0;
}

Cycle
Channel::frontTime() const
{
    STEP_ASSERT(!entries_.empty(), "frontTime on empty channel " << name_);
    return entries_.front().ready;
}

const Token&
Channel::frontToken() const
{
    STEP_ASSERT(!entries_.empty(), "frontToken on empty channel " << name_);
    return entries_.front().tok;
}

void
WaitAny::await_suspend(std::coroutine_handle<>) const
{
    for (Channel* c : chans)
        c->setWaitingReader(&self);
    self.state_ = CtxState::Blocked;
    self.block_ = BlockInfo{BlockInfo::Kind::Select, nullptr, chans.size()};
}

void
WaitUntil::await_suspend(std::coroutine_handle<>) const
{
    self.scheduler()->suspendUntil(&self, deadline);
}

/** Dynamics-only reset for the rearm path (see header). */
void
Channel::rearm(size_t capacity)
{
    STEP_ASSERT(capacity >= 1, "channel capacity must be >= 1");
    capacity_ = capacity;
    entries_.clear();
    credits_.clear();
    initCredits_ = capacity_;
    lastReady_ = 0;
    waitingReader_ = nullptr;
    waitingWriter_ = nullptr;
    totalPushed_ = 0;
}

std::string
BlockInfo::toString() const
{
    switch (kind) {
    case Kind::Read:
        return "read " + ch->name();
    case Kind::Write:
        return "write " + ch->name() + " (full)";
    case Kind::Select:
        return "select over " + std::to_string(selectCount) + " channels";
    case Kind::TimedWait:
        return "timed wait";
    case Kind::None:
        break;
    }
    return "<unknown>";
}

} // namespace step::dam
