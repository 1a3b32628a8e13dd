#include "report/invariants.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>

namespace voltboot
{
namespace report
{

namespace
{

/** Slack for comparing simulation times / voltages that went through a
 * serialize-parse cycle. Well below any physical scale in the model. */
constexpr double kEps = 1e-9;

std::string
eventLabel(const trace::TraceEvent &ev)
{
    return std::string(ev.category) + "/" + ev.name;
}

/** Per-domain probe/hold state machine for the probe_hold invariant. */
struct ProbeState
{
    bool probed = false;
    /** The last probe transient's droop minimum: once the domain rides
     * on the probe, its rail never goes below this. */
    std::optional<double> hold_v;
};

void
checkMonotonicTime(std::span<const trace::TraceEvent> events,
                   std::vector<Violation> &out)
{
    double clock = 0.0;
    bool first = true;
    for (size_t i = 0; i < events.size(); ++i) {
        const trace::TraceEvent &ev = events[i];
        double at = ev.ts.seconds();
        if (ev.phase == trace::Phase::Complete) {
            if (ev.dur.seconds() < -kEps) {
                out.push_back(
                    {"monotonic_time", i,
                     eventLabel(ev) + " has negative duration"});
                continue;
            }
            // Spans are emitted at close: order by end time.
            at += ev.dur.seconds();
        }
        if (!first && at < clock - kEps)
            out.push_back({"monotonic_time", i,
                           eventLabel(ev) +
                               " emitted at simulation time " +
                               std::to_string(at) +
                               " s after the clock reached " +
                               std::to_string(clock) + " s"});
        clock = std::max(clock, at);
        first = false;
    }
}

void
checkSpanNesting(std::span<const trace::TraceEvent> events,
                 std::vector<Violation> &out)
{
    struct Interval
    {
        double start;
        double end;
        size_t index;
    };
    std::vector<Interval> roots;
    for (size_t i = 0; i < events.size(); ++i) {
        const trace::TraceEvent &ev = events[i];
        if (ev.phase != trace::Phase::Complete)
            continue;
        const double s = ev.ts.seconds();
        const double e = s + ev.dur.seconds();
        // Adopt contained predecessors (children emit before parents).
        while (!roots.empty() && roots.back().start >= s - kEps &&
               roots.back().end <= e + kEps)
            roots.pop_back();
        // Whatever remains must end strictly before this span starts;
        // anything else straddles a boundary.
        if (!roots.empty() && roots.back().end > s + kEps)
            out.push_back(
                {"span_nesting", i,
                 eventLabel(ev) + " partially overlaps " +
                     eventLabel(events[roots.back().index]) +
                     " (neither nested nor disjoint)"});
        roots.push_back({s, e, i});
    }
}

void
checkVoltages(std::span<const trace::TraceEvent> events,
              std::vector<Violation> &out)
{
    static const char *keys[] = {"voltage_v", "v",      "v_min",
                                 "v_settled", "from_v", "to_v",
                                 "supply_v"};
    for (size_t i = 0; i < events.size(); ++i) {
        for (const char *key : keys) {
            const auto v = trace::argNumber(events[i], key);
            if (v && *v < -kEps)
                out.push_back({"nonnegative_voltage", i,
                               eventLabel(events[i]) + " arg \"" + key +
                                   "\" is negative (" +
                                   std::to_string(*v) + " V)"});
        }
    }
}

void
checkProbeHold(std::span<const trace::TraceEvent> events,
               std::vector<Violation> &out)
{
    std::map<std::string, ProbeState> domains;
    for (size_t i = 0; i < events.size(); ++i) {
        const trace::TraceEvent &ev = events[i];
        const std::string cat = ev.category;
        if (cat == "power" && ev.phase == trace::Phase::Instant) {
            const std::string domain =
                trace::argString(ev, "domain").value_or("");
            ProbeState &st = domains[domain];
            if (ev.name == "probe_attach") {
                st.probed = true;
                st.hold_v.reset();
            } else if (ev.name == "probe_detach") {
                st.probed = false;
                st.hold_v.reset();
            } else if (ev.name == "domain_power_up") {
                // Main supply back: the probe floor no longer binds.
                st.hold_v.reset();
            } else if (ev.name == "probe_transient" && st.probed) {
                const auto v_min = trace::argNumber(ev, "v_min");
                const auto v_settled = trace::argNumber(ev, "v_settled");
                if (v_min && v_settled && *v_settled < *v_min - kEps)
                    out.push_back(
                        {"probe_hold", i,
                         "probe transient on " + domain +
                             " settled below its own droop minimum (" +
                             std::to_string(*v_settled) + " < " +
                             std::to_string(*v_min) + " V)"});
                if (v_min)
                    st.hold_v = *v_min;
            }
            continue;
        }
        const auto domain = ev.phase == trace::Phase::Counter
                                ? trace::voltageDomain(ev.name)
                                : std::nullopt;
        if (domain) {
            const auto it = domains.find(std::string(*domain));
            if (it == domains.end() || !it->second.probed ||
                !it->second.hold_v)
                continue;
            const auto v = trace::argNumber(ev, "v");
            if (v && *v < *it->second.hold_v - kEps)
                out.push_back(
                    {"probe_hold", i,
                     "probe-held domain " + it->first + " sampled at " +
                         std::to_string(*v) +
                         " V, below the hold floor of " +
                         std::to_string(*it->second.hold_v) + " V"});
        }
    }
}

void
checkAttackStepOrder(std::span<const trace::TraceEvent> events,
                     std::vector<Violation> &out)
{
    auto rank = [](const std::string &name) -> int {
        if (name == "attack.steps12_probe")
            return 1;
        if (name == "attack.step3_power_cycle")
            return 2;
        if (name == "attack.step4_extract")
            return 3;
        return 0;
    };
    int prev = 0;
    size_t prev_index = 0;
    for (size_t i = 0; i < events.size(); ++i) {
        const trace::TraceEvent &ev = events[i];
        if (ev.phase != trace::Phase::Complete ||
            std::string(ev.category) != "core")
            continue;
        const int r = rank(ev.name);
        if (r == 0)
            continue;
        // Steps may repeat (several extractions) and a fresh attack run
        // restarts at steps 1-2; what must never happen is a later step
        // preceding an earlier one inside a run.
        if (prev != 0 && r < prev && r != 1)
            out.push_back({"attack_step_order", i,
                           ev.name + " appears after " +
                               events[prev_index].name +
                               " (paper's four-step order violated)"});
        prev = r;
        prev_index = i;
    }
}

/** A "power" span that promises a bounded rail excursion, and the arg
 * that sets how far below nominal its rail may go. */
struct ExcursionSpan
{
    const char *span;
    const char *floor_arg;
    const char *invariant;
};

constexpr ExcursionSpan kExcursionSpans[] = {
    {"glitch.pulse", "depth_v", "glitch_bounds"},
    {"undervolt.hold", "depth_v", "sidechannel_bounds"},
    {"coupling.capture", "dip_bound_v", "sidechannel_bounds"},
};

/**
 * Every kExcursionSpans span promises a bounded excursion: all
 * voltage.<domain> samples inside the span stay within
 * [nominal - floor arg, nominal], and the last sample in the window is
 * back at nominal (the rail recovers before the span ends). A span with
 * no samples at all is also a violation: the waveform was claimed but
 * never observed.
 */
void
checkExcursionBounds(std::span<const trace::TraceEvent> events,
                     std::vector<Violation> &out)
{
    for (size_t i = 0; i < events.size(); ++i) {
        const trace::TraceEvent &ev = events[i];
        if (ev.phase != trace::Phase::Complete ||
            std::string(ev.category) != "power")
            continue;
        const auto row = std::find_if(
            std::begin(kExcursionSpans), std::end(kExcursionSpans),
            [&](const ExcursionSpan &r) { return ev.name == r.span; });
        if (row == std::end(kExcursionSpans))
            continue;
        const char *invariant = row->invariant;
        const auto domain = trace::argString(ev, "domain");
        const auto nominal = trace::argNumber(ev, "nominal_v");
        const auto depth = trace::argNumber(ev, row->floor_arg);
        if (!domain || domain->empty() || !nominal || !depth) {
            out.push_back({invariant, i,
                           ev.name + " span lacks domain/nominal_v/" +
                               row->floor_arg + " args"});
            continue;
        }
        const double start = ev.ts.seconds();
        const double end = start + ev.dur.seconds();
        const double floor_v = std::max(*nominal - *depth, 0.0);
        const std::string counter = trace::voltageCounter(*domain);
        size_t samples = 0;
        std::optional<double> last_v;
        // The span is emitted after its samples (children first), so
        // every sample it covers precedes it in the stream.
        for (size_t j = 0; j < i; ++j) {
            const trace::TraceEvent &s = events[j];
            if (s.phase != trace::Phase::Counter || s.name != counter)
                continue;
            const double at = s.ts.seconds();
            if (at < start - kEps || at > end + kEps)
                continue;
            const auto v = trace::argNumber(s, "v");
            if (!v)
                continue;
            ++samples;
            last_v = *v;
            if (*v < floor_v - kEps)
                out.push_back({invariant, j,
                               counter + " sampled at " +
                                   std::to_string(*v) + " V inside a " +
                                   ev.name + " span bounded at " +
                                   std::to_string(floor_v) + " V"});
            if (*v > *nominal + kEps)
                out.push_back({invariant, j,
                               counter + " sampled at " +
                                   std::to_string(*v) +
                                   " V, above nominal " +
                                   std::to_string(*nominal) +
                                   " V inside a " + ev.name + " span"});
        }
        if (samples == 0) {
            out.push_back({invariant, i,
                           ev.name + " span on " + *domain +
                               " covers no voltage samples"});
            continue;
        }
        if (std::abs(*last_v - *nominal) > kEps)
            out.push_back({invariant, i,
                           counter + " ends a " + ev.name + " span at " +
                               std::to_string(*last_v) +
                               " V instead of recovering to nominal " +
                               std::to_string(*nominal) + " V"});
    }
}

} // namespace

std::vector<Violation>
checkTraceInvariants(std::span<const trace::TraceEvent> events)
{
    std::vector<Violation> out;
    checkMonotonicTime(events, out);
    checkSpanNesting(events, out);
    checkVoltages(events, out);
    checkProbeHold(events, out);
    checkAttackStepOrder(events, out);
    checkExcursionBounds(events, out);
    return out;
}

std::string
renderViolations(std::span<const Violation> violations)
{
    std::string out;
    for (const Violation &v : violations) {
        out += v.invariant;
        out += " @ event ";
        out += std::to_string(v.event_index);
        out += ": ";
        out += v.message;
        out += "\n";
    }
    return out;
}

} // namespace report
} // namespace voltboot
