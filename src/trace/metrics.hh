/**
 * @file
 * Plain-value metric snapshots: counters, gauges and histogram
 * summaries.
 *
 * Metrics complement the event trace (trace/trace.hh): where the trace
 * answers "what happened, when, in simulation time", metrics aggregate
 * *cost* — wall-clock durations, queue grabs, trial counts — and are
 * therefore explicitly **non-canonical**: two runs of the same campaign
 * produce the same trace bytes but different metric values. Canonical
 * outputs (campaign JSON/CSV records, trace files) must never embed a
 * metrics snapshot; CampaignResult keeps its snapshot in the opt-in
 * timing section for exactly this reason.
 *
 * Nothing here is live: the running counters are the lock-free
 * telemetry slots (telemetry/counters.hh). A snapshot is built once
 * from values already in hand — a campaign's records, a worker's
 * counter deltas, a monitor sample — and handed to the JSON writer,
 * report/prometheus and report/campaign_json.
 */

#ifndef VOLTBOOT_TRACE_METRICS_HH
#define VOLTBOOT_TRACE_METRICS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace voltboot
{
namespace trace
{

/** Order statistics of one histogram's samples. */
struct HistogramSummary
{
    uint64_t count = 0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
};

/**
 * Summarise @p samples exactly: count, mean, min, max and the
 * nearest-rank p50/p90/p99 (rank floor(q * n), clamped to n - 1, of
 * the sorted samples). The result does not depend on sample order.
 * An empty vector yields an all-zero summary.
 */
HistogramSummary summarize(std::vector<double> samples);

/**
 * A set of named counters, gauges and histogram summaries, keyed by
 * dotted names (e.g. "campaign.trial_wall_s").
 *
 * Copyable and comparable; CampaignResult embeds one so sweep outputs
 * can carry per-trial timing percentiles.
 */
struct MetricsSnapshot
{
    std::map<std::string, double> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSummary> histograms;

    bool
    empty() const
    {
        return counters.empty() && gauges.empty() && histograms.empty();
    }

    /**
     * Render as a JSON object with sorted keys. @p indent is the number
     * of leading spaces applied to every line after the first, so the
     * snapshot can be embedded in a larger document.
     */
    std::string toJson(int indent = 0) const;
};

} // namespace trace
} // namespace voltboot

#endif // VOLTBOOT_TRACE_METRICS_HH
