/**
 * @file
 * Per-attack-step observability, shared by every attack that times its
 * steps (core/attack.cc, sidechannel/static_extract.cc).
 */

#ifndef VOLTBOOT_CORE_STEP_SCOPE_HH
#define VOLTBOOT_CORE_STEP_SCOPE_HH

#include <chrono>
#include <utility>

#include "soc/soc.hh"
#include "telemetry/counters.hh"
#include "trace/trace.hh"

namespace voltboot
{

/**
 * One attack step: a simulation-time Complete event in category "core",
 * named telemetry::stepName(slot) (deterministic, lands in the trace),
 * plus the step's wall-clock nanoseconds added to @p slot with
 * telemetry::add (non-canonical; no lock, no string key, a no-op
 * outside a telemetry::WorkerScope). Construction and destruction sync
 * the trace clock with the Soc's event queue so the span brackets any
 * simulated time the step consumed.
 */
class StepScope
{
  public:
    StepScope(Soc &soc, telemetry::Counter slot)
        : sync_(soc), soc_(soc), span_("core", telemetry::stepName(slot)),
          slot_(slot), t0_(std::chrono::steady_clock::now())
    {
    }

    ~StepScope()
    {
        trace::setSimTime(soc_.eventQueue().now());
        span_.end();
        telemetry::add(slot_,
                       static_cast<uint64_t>(
                           std::chrono::duration_cast<
                               std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now() - t0_)
                               .count()));
    }

    StepScope(const StepScope &) = delete;
    StepScope &operator=(const StepScope &) = delete;

    void arg(trace::Arg a) { span_.arg(std::move(a)); }

  private:
    struct ClockSync
    {
        explicit ClockSync(Soc &soc)
        {
            trace::setSimTime(soc.eventQueue().now());
        }
    };

    ClockSync sync_; ///< Must precede span_: syncs the clock it reads.
    Soc &soc_;
    trace::Span span_;
    telemetry::Counter slot_;
    std::chrono::steady_clock::time_point t0_;
};

} // namespace voltboot

#endif // VOLTBOOT_CORE_STEP_SCOPE_HH
