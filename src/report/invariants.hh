/**
 * @file
 * Trace invariant checking: the physical and structural properties a
 * valid simulator trace must uphold.
 *
 * The paper's argument rests on reading instruments correctly — a
 * voltage trace that ran backwards in time or a probe-held rail that
 * "dipped" below its hold floor would mean the bench was broken, not
 * that the attack failed. The simulated equivalent: any trace the
 * simulator emits must satisfy these invariants, and a trace that does
 * not is evidence of a simulator bug (or a corrupted file), which is
 * exactly what `voltboot_cli report trace --check` exists to catch.
 *
 * Invariants checked (names appear verbatim in violation output):
 *
 *  - `monotonic_time` — the emission clock never runs backwards:
 *    instants/counters are ordered by `ts`, spans by their *end* time
 *    (a span is emitted when it closes), and no span has negative
 *    duration.
 *  - `span_nesting` — span intervals are properly nested: any two are
 *    disjoint or one contains the other; partial overlap is structural
 *    corruption.
 *  - `nonnegative_voltage` — no voltage-carrying argument
 *    (`voltage_v`, `v`, `v_min`, `v_settled`, `from_v`, `to_v`,
 *    `supply_v`) is ever negative.
 *  - `probe_hold` — between `probe_attach` and `probe_detach`, once the
 *    probe transient has resolved, the domain's sampled supply voltage
 *    never falls below that transient's droop minimum `v_min` (the
 *    floor the probe guarantees), and the transient itself satisfies
 *    `v_min <= v_settled`.
 *  - `attack_step_order` — the `core` attack-step spans appear in the
 *    paper's four-step order (steps 1–2 probe, step 3 power cycle,
 *    step 4 extract); a later step never precedes an earlier one
 *    except where a fresh attack run restarts the sequence.
 *  - `glitch_bounds` and `sidechannel_bounds` — one bounded-excursion
 *    audit, driven by a three-row table of span, floor arg and
 *    invariant name: `power`/`glitch.pulse` (floor
 *    `nominal - depth_v`, `glitch_bounds`), `power`/`undervolt.hold`
 *    (floor `nominal - depth_v`, `sidechannel_bounds`) and
 *    `power`/`coupling.capture` (floor `nominal - dip_bound_v`,
 *    `sidechannel_bounds`). Each such span carries its `domain`,
 *    `nominal_v` and floor args, covers at least one
 *    `voltage.<domain>` sample, keeps every covered sample within
 *    `[floor, nominal]`, and its last covered sample has recovered to
 *    nominal before the span ends.
 */

#ifndef VOLTBOOT_REPORT_INVARIANTS_HH
#define VOLTBOOT_REPORT_INVARIANTS_HH

#include <span>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace voltboot
{
namespace report
{

/** One invariant violation, tied to the offending event. */
struct Violation
{
    /** Invariant name (stable identifiers, see file comment). */
    const char *invariant = "";
    /** Index of the offending event in the checked sequence (which is
     * its 1-based line number minus one in a JSONL file). */
    size_t event_index = 0;
    std::string message;
};

/** Check every invariant over @p events; empty result means valid. */
std::vector<Violation>
checkTraceInvariants(std::span<const trace::TraceEvent> events);

/** Render @p violations one per line as `invariant @ event N: msg`. */
std::string renderViolations(std::span<const Violation> violations);

} // namespace report
} // namespace voltboot

#endif // VOLTBOOT_REPORT_INVARIANTS_HH
