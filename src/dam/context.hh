/**
 * @file
 * Simulation context: one asynchronously executing dataflow block with a
 * local virtual clock. Subclasses implement run() as a coroutine.
 */
#pragma once

#include <cstdint>
#include <string>

#include "dam/task.hh"

namespace step::dam {

class Channel;
class Scheduler;

enum class CtxState : uint8_t {
    NotStarted,
    Ready,
    Running,
    Blocked,
    Finished,
};

/**
 * Why a context is blocked. A tagged record instead of a formatted
 * string: suspension is the hottest event in the simulator, so the
 * reason is rendered lazily (by Scheduler::deadlockReport) and storing
 * it costs two stores, no allocation.
 */
struct BlockInfo
{
    enum class Kind : uint8_t { None, Read, Write, Select, TimedWait };

    Kind kind = Kind::None;
    const Channel* ch = nullptr; ///< channel involved (Read/Write)
    size_t selectCount = 0;      ///< channels waited on (Select)

    /** Human-readable rendering (diagnostics only, allocates). */
    std::string toString() const;
};

class Context
{
  public:
    explicit Context(std::string name) : name_(std::move(name)) {}
    virtual ~Context() = default;

    Context(const Context&) = delete;
    Context& operator=(const Context&) = delete;

    /** The operator body. Runs as a coroutine under the scheduler. */
    virtual SimTask run() = 0;

    const std::string& name() const { return name_; }
    Cycle now() const { return now_; }
    CtxState state() const { return state_; }

    /** Local time bump: the block was busy for @p dt cycles. */
    void advance(Cycle dt) { now_ += dt; }
    /** Local time join: wait until at least @p t. */
    void
    advanceTo(Cycle t)
    {
        if (t > now_)
            now_ = t;
    }

    Scheduler* scheduler() const { return sched_; }

  protected:
    /**
     * Make this context @p ch's producer / consumer: the only way to
     * set a channel endpoint. Operators bind through OpBase's port
     * helpers, which also record the port for static analysis.
     */
    void bindProducer(Channel& ch);
    void bindConsumer(Channel& ch);

    /**
     * Return the context to its pre-registration state so it can be
     * re-added to a scheduler and re-run: clock zeroed, coroutine frame
     * destroyed (its block returns to the FramePool), block info
     * cleared. Graph::rearm calls this for every operator so a built
     * graph re-runs without reconstructing its operators.
     */
    void
    resetRun()
    {
        now_ = 0;
        state_ = CtxState::NotStarted;
        block_ = BlockInfo{};
        sched_ = nullptr;
        task_ = SimTask{};
    }

  private:
    friend class Scheduler;
    friend class Channel;
    friend struct WaitAny;

    std::string name_;
    Cycle now_ = 0;
    CtxState state_ = CtxState::NotStarted;
    BlockInfo block_;
    Scheduler* sched_ = nullptr;
    SimTask task_;
    /** Dense index in the scheduler (its ready-queue key). */
    uint32_t id_ = 0;
};

} // namespace step::dam
