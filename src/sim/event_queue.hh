/**
 * @file
 * A small discrete-event kernel used by the power sequencer.
 *
 * Events are (time, priority, callback) tuples ordered by time then
 * priority then insertion order, so simultaneous events execute
 * deterministically. The power-cycle transients are solved analytically,
 * so the queue only has to sequence macro-level phases (supply disconnect,
 * probe attach, boot-ROM phases) — it stays intentionally simple.
 */

#ifndef VOLTBOOT_SIM_EVENT_QUEUE_HH
#define VOLTBOOT_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/units.hh"

namespace voltboot
{

/** Callback-based discrete-event queue with deterministic ordering. */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Schedule @p cb at absolute time @p when with tie-break @p priority. */
    void
    schedule(Seconds when, Callback cb, int priority = 0)
    {
        heap_.push(Event{when, priority, next_sequence_++, std::move(cb)});
    }

    /** Current simulation time. */
    Seconds now() const { return now_; }

    /** True when no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    size_t pending() const { return heap_.size(); }

    /**
     * Execute the single earliest event, advancing simulated time to it.
     * @return false when the queue was empty.
     */
    bool
    step()
    {
        if (heap_.empty())
            return false;
        Event ev = heap_.top();
        heap_.pop();
        now_ = ev.when;
        ev.callback();
        return true;
    }

    /** Run until the queue drains; returns the number of events executed. */
    size_t
    run()
    {
        size_t executed = 0;
        while (step())
            ++executed;
        return executed;
    }

    /**
     * Run events with time <= @p until; time advances to @p until even if
     * no event lands exactly there. Returns events executed.
     */
    size_t
    runUntil(Seconds until)
    {
        size_t executed = 0;
        while (!heap_.empty() && heap_.top().when <= until) {
            step();
            ++executed;
        }
        if (now_ < until)
            now_ = until;
        return executed;
    }

  private:
    struct Event
    {
        Seconds when;
        int priority;
        uint64_t sequence;
        Callback callback;
    };

    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return b.when < a.when;
            if (a.priority != b.priority)
                return b.priority < a.priority;
            return b.sequence < a.sequence;
        }
    };

    std::priority_queue<Event, std::vector<Event>, Later> heap_;
    Seconds now_{0.0};
    uint64_t next_sequence_ = 0;
};

} // namespace voltboot

#endif // VOLTBOOT_SIM_EVENT_QUEUE_HH
